// Shared driver for the Pangloss figures (8: accuracy percentile, 9:
// relative utility vs a zero-overhead oracle).
#pragma once

#include <string>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"

namespace spectra::bench {

struct PanglossCell {
  // Percentile of Spectra's chosen alternative among all alternatives
  // ranked by achieved utility (Fig 8; 99 = best choice).
  scenario::Aggregate percentile;
  // Spectra's achieved utility / the oracle's best utility (Fig 9).
  scenario::Aggregate relative_utility;
  // The alternative Spectra chose most often.
  std::string chosen;
};

// trial_count() trials of one scenario and sentence length
// (scenario::run_trials), scored per trial by PanglossExperiment::score.
inline PanglossCell run_pangloss_cell(scenario::BatchRunner& batch,
                                      scenario::PanglossScenario sc,
                                      int words) {
  using scenario::PanglossExperiment;
  const auto trials = scenario::run_trials(
      batch, nullptr, trial_count(), kFirstSeed,
      [&](std::uint64_t seed, obs::Observability* trial_obs) {
        PanglossExperiment::Config cfg;
        cfg.scenario = sc;
        cfg.seed = seed;
        cfg.test_words = words;
        cfg.obs = trial_obs;
        return PanglossExperiment(cfg);
      });
  PanglossCell cell;
  for (const auto& trial : trials) {
    const auto score = PanglossExperiment::score(trial);
    cell.percentile.stats.add(score.percentile);
    cell.relative_utility.stats.add(score.relative_utility);
  }
  cell.chosen = scenario::most_chosen(trials, &PanglossExperiment::label);
  return cell;
}

inline const std::vector<int>& pangloss_test_sentences() {
  // Five test sentences; the three smallest should keep all engines, the
  // two largest should drop the glossary (paper §4.3).
  static const std::vector<int> kWords = {6, 10, 14, 38, 44};
  return kWords;
}

}  // namespace spectra::bench
