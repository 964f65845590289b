// Figure 5: Latex execution time for the small (14-page) document.
//
// Scenarios: baseline (all caches warm), file-cache (server B cold),
// reintegrate (70 KB top-level input modified on the client), energy
// (reintegrate + battery power + very aggressive lifetime goal).
// Alternatives: local (233 MHz 560X), server A (400 MHz), server B
// (933 MHz), over shared 2 Mb/s wireless.
#include "figure.h"

int main(int argc, char** argv) {
  spectra::scenario::BatchRunner batch(
      spectra::bench::jobs_from_args(argc, argv));
  spectra::bench::run_latex_figure(
      batch, "Figure 5: Small document (14 pages) execution time (seconds)",
      "small",
      [](const spectra::scenario::MeasuredRun& r) { return r.time; },
      "time (s)");
  return 0;
}
