#include "scenario/app_service.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/app_op.h"
#include "scenario/batch.h"
#include "scenario/experiment.h"
#include "scenario/scenarios.h"
#include "scenario/world.h"
#include "util/assert.h"

namespace spectra::scenario {
namespace {

// ---- nullop world (the Fig-10 overhead testbed as a service) -------------

std::vector<solver::Alternative> nullop_alternatives(const World& world) {
  std::vector<solver::Alternative> alts;
  for (double level : {1.0, 0.0}) {
    alts.push_back({0, -1, {{"level", level}}});
    for (MachineId id : world.server_ids()) {
      alts.push_back({1, id, {{"level", level}}});
    }
  }
  return alts;
}

std::unique_ptr<World> build_nullop_world(std::size_t servers,
                                          std::uint64_t seed) {
  auto world = overhead_world(servers, seed);
  prepare_null_op(*world);
  world->settle(6.0);

  // Round-robin forced training over the whole alternative space so the
  // served decisions come from a model that has seen every placement.
  const auto alts = nullop_alternatives(*world);
  train_null_op(*world, alts, static_cast<int>(alts.size()) * 3);
  world->settle(2.0);
  return world;
}

std::size_t nullop_servers(const std::string& scenario) {
  if (scenario.empty() || scenario == "baseline") return 1;
  // "<N>srv" selects the server count of the overhead testbed.
  const auto pos = scenario.find("srv");
  if (pos != std::string::npos && pos + 3 == scenario.size() && pos > 0) {
    std::size_t n = 0;
    for (char c : scenario.substr(0, pos)) {
      SPECTRA_REQUIRE(c >= '0' && c <= '9',
                      "unknown nullop scenario: " + scenario);
      n = std::min(n * 10 + static_cast<std::size_t>(c - '0'),
                   kMaxOverheadServers + 1);
    }
    // Overhead-testbed servers take machine ids 1..N; 9 is the file server.
    SPECTRA_REQUIRE(n >= 1 && n <= kMaxOverheadServers,
                    "nullop scenario wants 1-" +
                        std::to_string(kMaxOverheadServers) +
                        " servers: " + scenario);
    return n;
  }
  SPECTRA_REQUIRE(false, "unknown nullop scenario: " + scenario +
                             " (use baseline or <N>srv)");
  return 1;
}

std::unique_ptr<World> nullop_session_world(const std::string& scenario,
                                            std::uint64_t seed) {
  const std::size_t servers = nullop_servers(scenario);
  if (!default_reuse_trained_world()) {
    return build_nullop_world(servers, seed);
  }
  std::ostringstream key;
  key << "nullop|" << servers << '|' << seed;
  const auto tmpl = TrainedWorldCache::instance().get(
      key.str(), [&] { return build_nullop_world(servers, seed); });
  return tmpl->clone(nullptr, [](World& w) { prepare_null_op(w); });
}

// ---- the session ---------------------------------------------------------

class WorldDecisionService : public core::DecisionService {
 public:
  WorldDecisionService(App app, std::string scenario, std::uint64_t seed,
                       std::unique_ptr<World> world)
      : app_(app),
        scenario_(std::move(scenario)),
        seed_(seed),
        world_(std::move(world)) {}

  core::ServiceStatus status() const override {
    core::ServiceStatus s;
    s.app = to_string(app_);
    s.scenario = scenario_;
    s.seed = seed_;
    s.op = operation_name(app_);
    s.ops_begun = ops_begun_;
    s.ops_completed = ops_completed_;
    s.op_in_progress = world_->spectra().op_in_progress();
    s.virtual_now = world_->engine().now();
    return s;
  }

  core::ServiceDecision begin_op(
      const core::ServiceBeginRequest& request) override {
    SPECTRA_REQUIRE(!world_->spectra().op_in_progress(),
                    "operation already in progress in this session");
    const char* op_name = operation_name(app_);
    SPECTRA_REQUIRE(request.op.empty() || request.op == op_name,
                    "session serves operation " + std::string(op_name) +
                        ", not " + request.op);
    // Checks the input before anything is begun, so a bad request leaves
    // the session idle and is never recorded.
    AppOp op(app_, request);
    const core::OperationChoice choice = op.begin(*world_);
    SPECTRA_REQUIRE(choice.ok, "no feasible alternative for " +
                                   std::string(op_name));
    pending_ = std::move(op);
    ++ops_begun_;

    const auto& desc = world_->spectra().operation_desc(op_name);
    core::ServiceDecision d;
    d.ok = true;
    d.from_model = choice.from_model;
    d.plan = desc.plans[static_cast<std::size_t>(choice.alternative.plan)].name;
    d.placement = choice.alternative.server < 0
                      ? "local"
                      : "s" + std::to_string(choice.alternative.server);
    d.fidelity = choice.alternative.fidelity;
    d.predicted_time_s = choice.predicted.time;
    d.predicted_energy_j = choice.predicted.energy;
    d.log_utility = choice.log_utility;
    d.t = world_->engine().now();
    return d;
  }

  core::ServiceOpResult end_op() override {
    SPECTRA_REQUIRE(world_->spectra().op_in_progress() && pending_,
                    "no operation in progress in this session");
    const AppOp op = std::move(*pending_);
    pending_.reset();
    try {
      op.execute(*world_);
    } catch (...) {
      // Abort the in-flight fidelity op so the session returns to a usable
      // idle state; otherwise op_in_progress stays true with pending_ gone
      // and every later begin_op/end_op on this session fails forever.
      try {
        if (world_->spectra().op_in_progress()) {
          world_->spectra().end_fidelity_op();
        }
      } catch (...) {
        // Best effort — surface the original execution failure.
      }
      throw;
    }
    const monitor::OperationUsage usage = world_->spectra().end_fidelity_op();
    ++ops_completed_;
    core::ServiceOpResult r;
    r.ok = true;
    r.seq = ops_completed_;
    r.time_s = usage.elapsed;
    r.energy_j = usage.energy;
    r.t = world_->engine().now();
    return r;
  }

 private:
  App app_;
  std::string scenario_;
  std::uint64_t seed_;
  std::unique_ptr<World> world_;
  std::optional<AppOp> pending_;
  std::uint64_t ops_begun_ = 0;
  std::uint64_t ops_completed_ = 0;
};

// A session on the trained world of `Experiment` under `scenario`.
template <typename Experiment, typename Parse>
std::unique_ptr<core::DecisionService> experiment_session(
    App app, const std::string& scenario, std::uint64_t seed, Parse parse) {
  typename Experiment::Config cfg;
  cfg.scenario = parse(scenario);
  cfg.seed = seed;
  return std::make_unique<WorldDecisionService>(
      app, name(cfg.scenario), seed, Experiment(cfg).session_world());
}

std::unique_ptr<core::DecisionService> make_session(const std::string& app,
                                                    const std::string& scenario,
                                                    std::uint64_t seed) {
  const std::optional<App> parsed = parse_app(app.empty() ? "nullop" : app);
  SPECTRA_REQUIRE(parsed.has_value(),
                  "unknown app: " + app +
                      " (use nullop, speech, latex, or pangloss)");
  const std::string want = scenario.empty() ? "baseline" : scenario;
  switch (*parsed) {
    case App::kNullop:
      return std::make_unique<WorldDecisionService>(
          App::kNullop, want, seed, nullop_session_world(scenario, seed));
    case App::kSpeech:
      return experiment_session<SpeechExperiment>(*parsed, want, seed,
                                                  parse_speech_scenario);
    case App::kLatex:
      return experiment_session<LatexExperiment>(*parsed, want, seed,
                                                 parse_latex_scenario);
    case App::kPangloss:
      return experiment_session<PanglossExperiment>(*parsed, want, seed,
                                                    parse_pangloss_scenario);
  }
  return nullptr;
}

}  // namespace

core::ServiceFactory app_service_factory() {
  return [](const std::string& app, const std::string& scenario,
            std::uint64_t seed) { return make_session(app, scenario, seed); };
}

}  // namespace spectra::scenario
