// Figure 7: Latex energy usage (client Joules), small and large documents.
//
// The paper's key observation sits in the energy scenario: for the small
// document, execution on server B draws slightly less client energy than
// every other option (the client idles while B computes and the
// reintegration cost is common to all remote plans), so Spectra picks B
// even though local execution would be faster. For the large document B
// saves both time and energy.
#include "figure.h"

int main(int argc, char** argv) {
  spectra::scenario::BatchRunner batch(
      spectra::bench::jobs_from_args(argc, argv));
  const auto energy = [](const spectra::scenario::MeasuredRun& r) {
    return r.energy;
  };
  spectra::bench::run_latex_figure(
      batch, "Figure 7(a): Small document energy usage (Joules)", "small",
      energy, "energy (J)");
  spectra::bench::run_latex_figure(
      batch, "Figure 7(b): Large document energy usage (Joules)", "large",
      energy, "energy (J)");
  return 0;
}
