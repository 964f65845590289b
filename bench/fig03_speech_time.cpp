// Figure 3: Speech recognition execution time.
//
// Five scenarios (baseline, energy, network, CPU, file cache); in each, the
// execution time of every (plan, fidelity) alternative, the alternative
// Spectra selects ("S"), and the execution time when Spectra chooses —
// which includes Spectra's decision overhead ("Spectra (w/ overhead)").
// Mean of 5 trials with 90% confidence intervals, as in the paper.
#include "figure.h"

int main(int argc, char** argv) {
  spectra::scenario::BatchRunner batch(
      spectra::bench::jobs_from_args(argc, argv));
  spectra::bench::run_speech_figure(
      batch,
      "Figure 3: Speech recognition execution time (seconds)\n"
      "Client: Itsy v2.2 (206 MHz SA-1100, software FP); server: "
      "IBM T20 (700 MHz PIII); serial link.",
      [](const spectra::scenario::MeasuredRun& r) { return r.time; },
      "time (s)");
  return 0;
}
