// Shared driver for the speech figures (3: time; 4: energy) and the Latex
// figures (5, 6: time; 7: energy).
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "scenario/experiment.h"

namespace spectra::bench {

// One table per scenario: `metric` of every alternative and of Spectra's
// run over trial_count() trials (scenario::run_trials), with Spectra's
// most frequent choice marked "S". `configure` sets the app-specific
// Config fields; `subtitle` follows the scenario name in each table title.
template <typename Experiment, typename Scenario, typename Configure>
void run_figure(scenario::BatchRunner& batch, const std::string& title,
                const std::vector<Scenario>& scenarios,
                const std::string& subtitle, Configure configure,
                scenario::RunMetric metric, const std::string& unit) {
  const auto alternatives = Experiment::alternatives();
  std::cout << title << "\n\n";
  for (const Scenario sc : scenarios) {
    const auto trials = scenario::run_trials(
        batch, nullptr, trial_count(), kFirstSeed,
        [&](std::uint64_t seed, obs::Observability* trial_obs) {
          typename Experiment::Config cfg;
          cfg.scenario = sc;
          cfg.seed = seed;
          cfg.obs = trial_obs;
          configure(cfg);
          return Experiment(cfg);
        });
    const std::string chosen =
        scenario::most_chosen(trials, &Experiment::label);

    util::Table table("Scenario: " + scenario::name(sc) + subtitle);
    table.set_header({"alternative", unit, ""});
    for (std::size_t a = 0; a < alternatives.size(); ++a) {
      const std::string label = Experiment::label(alternatives[a]);
      table.add_row({label, scenario::aggregate(trials, a, metric).cell(),
                     label == chosen ? "<-- S (Spectra's choice)" : ""});
    }
    table.add_separator();
    table.add_row({"Spectra (w/ overhead)",
                   scenario::aggregate_spectra(trials, metric).cell(), ""});
    std::cout << table.to_string() << '\n';
  }
}

inline void run_speech_figure(scenario::BatchRunner& batch,
                              const std::string& title,
                              scenario::RunMetric metric,
                              const std::string& unit) {
  using scenario::SpeechScenario;
  run_figure<scenario::SpeechExperiment>(
      batch, title,
      std::vector<SpeechScenario>{
          SpeechScenario::kBaseline, SpeechScenario::kEnergy,
          SpeechScenario::kNetwork, SpeechScenario::kCpu,
          SpeechScenario::kFileCache},
      "", [](scenario::SpeechExperiment::Config&) {}, metric, unit);
}

inline void run_latex_figure(scenario::BatchRunner& batch,
                             const std::string& title, const std::string& doc,
                             scenario::RunMetric metric,
                             const std::string& unit) {
  using scenario::LatexScenario;
  run_figure<scenario::LatexExperiment>(
      batch, title,
      std::vector<LatexScenario>{
          LatexScenario::kBaseline, LatexScenario::kFileCache,
          LatexScenario::kReintegrate, LatexScenario::kEnergy},
      " — " + doc + " document",
      [&](scenario::LatexExperiment::Config& cfg) { cfg.doc = doc; }, metric,
      unit);
}

}  // namespace spectra::bench
