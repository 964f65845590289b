// Measurement harness reproducing the paper's methodology (§4):
//
//   "For each scenario, we measured application latency and energy usage
//    for each possible combination of fidelity, execution plan, and remote
//    server. We also asked Spectra to choose one of the possible
//    alternatives for application execution."
//
// Every measurement starts from an identical, deterministic starting state:
// a fresh world (same seed), caches warmed, fetch-rate probes run, models
// trained under baseline conditions, the scenario applied, and the
// environment allowed to settle so the monitors observe it. Forced runs
// (the per-alternative bars) carry no decision overhead; the Spectra run
// exercises the full begin_fidelity_op path, overhead included.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/client.h"
#include "fault/fault_plan.h"
#include "obs/obs.h"
#include "scenario/app_op.h"
#include "scenario/batch.h"
#include "scenario/scenarios.h"
#include "scenario/world.h"
#include "solver/types.h"

namespace spectra::scenario {

// Fields every app experiment's Config shares.
struct ExperimentConfig {
  std::uint64_t seed = 1;
  util::Seconds settle_time = 12.0;
  // Optional hook to adjust the Spectra client configuration of the
  // worlds this experiment builds (e.g. enable decision tracing).
  std::function<void(core::SpectraClientConfig&)> spectra_overrides;
  // Optional fault plan, armed after training and settling so event
  // times are offsets from the start of the measured run.
  std::optional<fault::FaultPlan> fault_plan;
  // Observability sink threaded into the world's Spectra client and the
  // experiment's phase timers. Non-owning; null disables.
  obs::Observability* obs = nullptr;
  // Train/settle one template world, then deep-copy it (World::clone)
  // for every measured run instead of retraining from scratch. Clones
  // are bit-identical to fresh retrains; default from SPECTRA_REUSE.
  bool reuse_trained_world = default_reuse_trained_world();
};

struct SpeechConfig : ExperimentConfig {
  SpeechScenario scenario = SpeechScenario::kBaseline;
  double test_utterance_s = 2.0;
  // The paper trains on 15 phrases; we use 18 so deterministic
  // round-robin training covers each of the 6 alternatives 3 times,
  // enough to fit the per-bin utterance-length regressions.
  int training_runs = 18;
};

struct LatexConfig : ExperimentConfig {
  LatexScenario scenario = LatexScenario::kBaseline;
  std::string doc = "small";
  int training_runs = 20;  // "we first executed Latex 20 times"
};

struct PanglossConfig : ExperimentConfig {
  PanglossScenario scenario = PanglossScenario::kBaseline;
  int test_words = 10;
  int training_runs = 129;  // "we first translated a set of 129 sentences"
};

// The lifecycle every app experiment shares: set up and train a world,
// apply the scenario and settle, then measure from that state. Each app
// supplies only its training loop and the request its forced and chosen
// runs go through (the app table, scenario/app_op.h).
template <typename Config>
class AppExperiment {
 public:
  AppExperiment(const AppExperiment&) = delete;
  AppExperiment& operator=(const AppExperiment&) = delete;
  virtual ~AppExperiment() = default;

  MeasuredRun measure(const solver::Alternative& alt) const {
    return measure(alt, config_.obs);
  }
  MeasuredRun run_spectra() const { return run_spectra(config_.obs); }
  // Variants with an explicit observability sink for this one run: batch
  // runs hand every measured run a private shard (BatchRunner::map_runs)
  // and merge afterwards. May be called concurrently from pool workers.
  // A forced run that is infeasible under the scenario comes back with
  // feasible == false.
  MeasuredRun measure(const solver::Alternative& alt,
                      obs::Observability* run_obs) const;
  MeasuredRun run_spectra(obs::Observability* run_obs) const;
  // Spectra chooses and runs the operation once on `world`.
  MeasuredRun run_spectra_on(World& world) const;

  // The trained world measured runs clone; plain configurations share it
  // process-wide (TrainedWorldCache, keyed app|scenario|seed|shape).
  std::shared_ptr<const World> template_world() const;

  // Fresh trained world under this experiment's scenario (exposed for
  // integration tests and ablations).
  std::unique_ptr<World> trained_world() const {
    return trained_world(config_.obs);
  }
  std::unique_ptr<World> trained_world(obs::Observability* obs) const;

  // Trained world for one daemon session (scenario::app_service_factory):
  // a clone of the shared template when reuse is on, a fresh retrain
  // otherwise — exactly what each measured run gets.
  std::unique_ptr<World> session_world() const {
    return measurement_world(nullptr);
  }

 protected:
  // `app` names the template in the trained-world cache and picks the
  // operation every run goes through.
  AppExperiment(Config config, App app, Testbed testbed)
      : config_(std::move(config)), app_(app), testbed_(testbed) {}

  virtual void train(World& world) const = 0;
  // The input of the measured operation, forced or chosen by Spectra.
  virtual core::ServiceBeginRequest request() const = 0;
  // The alternative a forced run of `alt` runs and reports.
  virtual solver::Alternative recorded(const solver::Alternative& alt) const {
    return alt;
  }

  Config config_;

 private:
  std::unique_ptr<World> measurement_world(obs::Observability* run_obs) const;

  App app_;
  Testbed testbed_;
  mutable std::once_flag template_once_;
  mutable std::shared_ptr<const World> template_;
};

extern template class AppExperiment<SpeechConfig>;
extern template class AppExperiment<LatexConfig>;
extern template class AppExperiment<PanglossConfig>;

// ------------------------------------------------------------------ speech

class SpeechExperiment : public AppExperiment<SpeechConfig> {
 public:
  using Config = SpeechConfig;
  explicit SpeechExperiment(Config config);

  // The six alternatives of Figure 3/4: {local, hybrid, remote} x
  // {reduced, full}.
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);

 private:
  void train(World& world) const override;
  core::ServiceBeginRequest request() const override;
};

// ------------------------------------------------------------------- latex

class LatexExperiment : public AppExperiment<LatexConfig> {
 public:
  using Config = LatexConfig;
  explicit LatexExperiment(Config config);

  // local, remote on server A, remote on server B.
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);

 private:
  void train(World& world) const override;
  core::ServiceBeginRequest request() const override;
};

// ---------------------------------------------------------------- pangloss

class PanglossExperiment : public AppExperiment<PanglossConfig> {
 public:
  using Config = PanglossConfig;
  explicit PanglossExperiment(Config config);

  // All distinct combinations of location and fidelity (~97, the paper's
  // "100 different combinations").
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);

  // Achieved utility of a measured run of `alt` (all Pangloss scenarios are
  // wall-powered, so c = 0 and energy does not contribute).
  static double achieved_utility(const MeasuredRun& run,
                                 const solver::Alternative& alt);

  // Figures 8 and 9 for one trial: the percentile of Spectra's achieved
  // utility among every alternative's (99 = best choice), and its ratio
  // to the best (the zero-overhead oracle).
  struct Score {
    double percentile = 0.0;
    double relative_utility = 0.0;
  };
  static Score score(const Trial& trial);

 private:
  void train(World& world) const override;
  core::ServiceBeginRequest request() const override;
  solver::Alternative recorded(
      const solver::Alternative& alt) const override;
};

// --------------------------------------------------------------- overhead

// The null operation of Fig 10: a service that returns at once, run on the
// kOverhead testbed. Overhead-testbed servers take machine ids 1..N and id
// 9 is the file server, so at most 8 servers fit.
constexpr const char* kNullOp = "null.op";
constexpr std::size_t kMaxOverheadServers = 8;

// A bare kOverhead-testbed world with `servers` servers. Callers install
// the operation, settle and train it themselves.
std::unique_ptr<World> overhead_world(std::size_t servers, std::uint64_t seed,
                                      obs::Observability* obs = nullptr);
// Install the null service on every server and on the client's co-located
// server.
void install_null_service(World& world);
core::OperationDesc null_op_desc();
// install_null_service, then register null.op. World::clone copies neither
// RPC handlers nor registrations, so clones need this too.
void prepare_null_op(World& world);
// The request body of one null operation.
rpc::Request null_request();
// `runs` forced null operations cycling through `alts`, so the model has
// seen those placements (the operation itself always runs locally).
void train_null_op(World& world, const std::vector<solver::Alternative>& alts,
                   int runs);

// Fig 10: cost of a null operation under 0 / 1 / 5 candidate servers.
struct OverheadReport {
  std::size_t servers = 0;
  // Mean real wall-clock milliseconds per phase.
  double register_ms = 0.0;
  double begin_ms = 0.0;
  double cache_prediction_ms = 0.0;
  double choosing_ms = 0.0;
  double begin_other_ms = 0.0;
  double do_local_ms = 0.0;
  double end_ms = 0.0;
  double total_ms = 0.0;
  // Cache prediction with a deliberately full client cache (the paper's
  // 359.6 ms pathological case).
  double cache_prediction_full_ms = 0.0;
  // Modeled virtual-time decision cost (what simulated experiments charge).
  double virtual_decision_ms = 0.0;
};

class OverheadExperiment {
 public:
  struct Config {
    std::size_t servers = 0;
    std::uint64_t seed = 1;
    int measured_runs = 200;
    std::size_t full_cache_files = 800;
    // When set, the world's Spectra client is instrumented — used by the
    // fig10 bench to measure tracing overhead against the plain path.
    obs::Observability* obs = nullptr;
  };

  explicit OverheadExperiment(Config config) : config_(config) {}

  OverheadReport run() const;

 private:
  Config config_;
};

}  // namespace spectra::scenario
