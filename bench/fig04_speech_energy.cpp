// Figure 4: Speech recognition energy usage (client Joules per utterance).
//
// Same scenarios and alternatives as Figure 3; the metric is the energy
// drawn from the Itsy's battery as reported by its SmartBattery chip. The
// paper's shape: local execution costs an order of magnitude more energy
// than the distributed plans (software-FP search on the SA-1100), and
// remote costs less than hybrid because hybrid keeps the front-end/prescan
// computation on the client.
#include "figure.h"

int main(int argc, char** argv) {
  spectra::scenario::BatchRunner batch(
      spectra::bench::jobs_from_args(argc, argv));
  spectra::bench::run_speech_figure(
      batch, "Figure 4: Speech recognition energy usage (Joules)",
      [](const spectra::scenario::MeasuredRun& r) { return r.energy; },
      "energy (J)");
  return 0;
}
