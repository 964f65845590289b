// Figure 6: Latex execution time for the large (123-page) document.
// Scenarios and alternatives as in Figure 5. The paper's shape: server B
// wins the baseline and reintegrate scenarios (the predicted file set of
// the large document does not include the modified small-document input,
// so no reintegration is forced); a cold server B loses to server A.
#include "figure.h"

int main(int argc, char** argv) {
  spectra::scenario::BatchRunner batch(
      spectra::bench::jobs_from_args(argc, argv));
  spectra::bench::run_latex_figure(
      batch, "Figure 6: Large document (123 pages) execution time (seconds)",
      "large",
      [](const spectra::scenario::MeasuredRun& r) { return r.time; },
      "time (s)");
  return 0;
}
