#include "scenario/experiment.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "util/assert.h"
#include "util/stats.h"

namespace spectra::scenario {

namespace {

using apps::JanusApp;
using apps::LatexApp;
using apps::PanglossApp;

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MeasuredRun to_run(const core::OperationChoice& choice,
                   const monitor::OperationUsage& usage) {
  MeasuredRun run;
  run.feasible = true;
  run.time = usage.elapsed;
  run.energy = usage.energy;
  run.choice = choice;
  run.usage = usage;
  return run;
}

// Scoped timer for one experiment phase (setup / train / settle / measure):
// records wall and virtual elapsed time as histograms and, when tracing,
// emits a `phase` event at the phase's end. Wall time never enters the
// trace — it would break replay bit-identity.
class PhaseTimer {
 public:
  PhaseTimer(obs::Observability* obs, sim::Engine& engine, std::string name)
      : obs_(obs),
        engine_(engine),
        name_(std::move(name)),
        wall0_(wall_ms()),
        virt0_(engine.now()) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (obs_ == nullptr) return;
    const util::Seconds virt = engine_.now() - virt0_;
    obs_->metrics().histogram("phase." + name_ + ".wall_ms")
        .observe(wall_ms() - wall0_);
    obs_->metrics().histogram("phase." + name_ + ".virtual_s").observe(virt);
    if (obs_->tracing()) {
      obs::TraceEvent ev("phase", engine_.now());
      ev.field("name", name_).field("virtual_s", virt);
      obs_->trace()->emit(ev);
    }
  }

 private:
  obs::Observability* obs_;
  sim::Engine& engine_;
  std::string name_;
  double wall0_;
  util::Seconds virt0_;
};

// Clone a trained template for one measurement run, recording what the
// reuse path actually costs as phase.clone.wall_ms. Wall-only on purpose:
// a clone advances no virtual time, and wall-suffixed metrics stay out of
// goldens and replay checks, so the counter cannot perturb determinism.
std::unique_ptr<World> clone_template(const World& tmpl,
                                      obs::Observability* run_obs) {
  const double t0 = wall_ms();
  auto world = tmpl.clone(run_obs);
  if (run_obs != nullptr) {
    run_obs->metrics().histogram("phase.clone.wall_ms")
        .observe(wall_ms() - t0);
  }
  return world;
}

}  // namespace

// --------------------------------------------------------------- lifecycle

template <typename Config>
std::unique_ptr<World> AppExperiment<Config>::trained_world(
    obs::Observability* obs) const {
  WorldConfig wc;
  wc.testbed = testbed_;
  wc.seed = config_.seed;
  wc.spectra.obs = obs;
  if (config_.spectra_overrides) config_.spectra_overrides(wc.spectra);
  auto world = std::make_unique<World>(wc);
  {
    PhaseTimer phase(obs, world->engine(), "setup");
    world->warm_all_caches();
    world->probe_fetch_rates();
    world->settle(6.0);
  }
  {
    PhaseTimer phase(obs, world->engine(), "train");
    train(*world);
  }
  {
    PhaseTimer phase(obs, world->engine(), "settle");
    apply(*world, config_.scenario);
    world->settle(config_.settle_time);
    if (config_.fault_plan) world->arm_faults(*config_.fault_plan);
  }
  return world;
}

// Globally cacheable configurations go through the process-wide
// TrainedWorldCache, so several experiment instances with the same training
// shape — e.g. one per test sentence, or a chaos soak — share one trained
// world; everything else trains at most once per experiment instance.
template <typename Config>
std::shared_ptr<const World> AppExperiment<Config>::template_world() const {
  const auto build = [this] { return trained_world(config_.obs); };
  if (config_.obs != nullptr || config_.spectra_overrides ||
      config_.fault_plan) {
    std::call_once(template_once_, [&] { template_ = build(); });
    return template_;
  }
  std::ostringstream key;
  key << to_string(app_) << '|' << static_cast<int>(config_.scenario) << '|'
      << config_.seed << '|' << config_.training_runs << '|'
      << config_.settle_time;
  return TrainedWorldCache::instance().get(key.str(), build);
}

template <typename Config>
std::unique_ptr<World> AppExperiment<Config>::measurement_world(
    obs::Observability* run_obs) const {
  if (config_.reuse_trained_world) {
    return clone_template(*template_world(), run_obs);
  }
  return trained_world(run_obs);
}

template <typename Config>
MeasuredRun AppExperiment<Config>::measure(const solver::Alternative& alt,
                                           obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  try {
    const AppOp op(app_, request());
    const solver::Alternative forced = recorded(alt);
    op.begin_forced(*world, forced);
    op.execute(*world);
    MeasuredRun run = to_run(core::OperationChoice{},
                             world->spectra().end_fidelity_op());
    run.choice.alternative = forced;
    return run;
  } catch (const util::ContractError&) {
    return MeasuredRun{};  // infeasible under this scenario
  }
}

template <typename Config>
MeasuredRun AppExperiment<Config>::run_spectra(
    obs::Observability* run_obs) const {
  auto world = measurement_world(run_obs);
  PhaseTimer phase(run_obs, world->engine(), "measure");
  return run_spectra_on(*world);
}

template <typename Config>
MeasuredRun AppExperiment<Config>::run_spectra_on(World& world) const {
  const AppOp op(app_, request());
  // Capture the choice before end_fidelity_op clears it.
  const auto choice = op.begin(world);
  SPECTRA_REQUIRE(choice.ok, "Spectra made no choice");
  op.execute(world);
  return to_run(choice, world.spectra().end_fidelity_op());
}

template class AppExperiment<SpeechConfig>;
template class AppExperiment<LatexConfig>;
template class AppExperiment<PanglossConfig>;

// ------------------------------------------------------------------ speech

SpeechExperiment::SpeechExperiment(Config config)
    : AppExperiment(std::move(config), App::kSpeech, Testbed::kItsy) {}

std::vector<solver::Alternative> SpeechExperiment::alternatives() {
  std::vector<solver::Alternative> out;
  for (int plan :
       {JanusApp::kPlanLocal, JanusApp::kPlanHybrid, JanusApp::kPlanRemote}) {
    for (double vocab : {JanusApp::kVocabReduced, JanusApp::kVocabFull}) {
      out.push_back(JanusApp::alternative(plan, vocab, kServerT20));
    }
  }
  return out;
}

std::string SpeechExperiment::label(const solver::Alternative& alt) {
  static const char* kPlans[] = {"local", "hybrid", "remote"};
  std::string s = kPlans[alt.plan];
  s += alt.fidelity.at("vocab") >= JanusApp::kVocabFull ? "-full" : "-reduced";
  return s;
}

void SpeechExperiment::train(World& world) const {
  util::Rng rng(config_.seed * 77 + 13);
  const auto alts = alternatives();
  for (int i = 0; i < config_.training_runs; ++i) {
    const double len = rng.uniform(1.0, 3.5);
    world.janus().run_forced(world.spectra(), len,
                             alts[static_cast<std::size_t>(i) % alts.size()]);
  }
}

core::ServiceBeginRequest SpeechExperiment::request() const {
  return {"", {{"utt_len", config_.test_utterance_s}}, ""};
}

// ------------------------------------------------------------------- latex

LatexExperiment::LatexExperiment(Config config)
    : AppExperiment(std::move(config), App::kLatex, Testbed::kThinkpad) {}

std::vector<solver::Alternative> LatexExperiment::alternatives() {
  return {LatexApp::alternative(LatexApp::kPlanLocal),
          LatexApp::alternative(LatexApp::kPlanRemote, kServerA),
          LatexApp::alternative(LatexApp::kPlanRemote, kServerB)};
}

std::string LatexExperiment::label(const solver::Alternative& alt) {
  if (alt.plan == LatexApp::kPlanLocal) return "local";
  return alt.server == kServerA ? "serverA" : "serverB";
}

void LatexExperiment::train(World& world) const {
  const auto alts = alternatives();
  for (int i = 0; i < config_.training_runs; ++i) {
    const std::string doc = (i % 2 == 0) ? "small" : "large";
    world.latex().run_forced(
        world.spectra(), doc,
        alts[static_cast<std::size_t>(i / 2) % alts.size()]);
  }
}

core::ServiceBeginRequest LatexExperiment::request() const {
  return {"", {}, config_.doc};
}

// ---------------------------------------------------------------- pangloss

PanglossExperiment::PanglossExperiment(Config config)
    : AppExperiment(std::move(config), App::kPangloss, Testbed::kThinkpad) {}

std::vector<solver::Alternative> PanglossExperiment::alternatives() {
  std::vector<solver::Alternative> out;
  std::set<std::string> seen;
  for (int mask = 0; mask < PanglossApp::kPlanCount; ++mask) {
    for (int fid = 1; fid < 8; ++fid) {
      const bool ebmt = (fid & 1) != 0;
      const bool gloss = (fid & 2) != 0;
      const bool dict = (fid & 4) != 0;
      for (MachineId server : {kServerA, kServerB}) {
        const auto alt =
            PanglossApp::alternative(mask, ebmt, gloss, dict, server);
        if (seen.insert(alt.describe()).second) out.push_back(alt);
      }
    }
  }
  return out;
}

std::string PanglossExperiment::label(const solver::Alternative& alt) {
  std::ostringstream os;
  static const char* kNames[] = {"ebmt", "gloss", "dict", "lm"};
  bool any = false;
  for (int c = 0; c <= PanglossApp::kLm; ++c) {
    const bool enabled =
        c == PanglossApp::kLm || alt.fidelity.at(kNames[c]) > 0.5;
    if (!enabled) continue;
    if (any) os << '+';
    any = true;
    os << kNames[c];
    os << ((alt.plan & (1 << c)) != 0
               ? (alt.server == kServerA ? "@A" : "@B")
               : "@L");
  }
  return os.str();
}

void PanglossExperiment::train(World& world) const {
  util::Rng rng(config_.seed * 91 + 7);
  for (int i = 0; i < config_.training_runs; ++i) {
    const int words = static_cast<int>(rng.uniform_int(4, 44));
    const int fid = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const int mask = static_cast<int>(rng.uniform_int(0, 15));
    const MachineId server = (i % 2 == 0) ? kServerA : kServerB;
    const auto alt = PanglossApp::alternative(mask, (fid & 1) != 0,
                                              (fid & 2) != 0, (fid & 4) != 0,
                                              server);
    world.pangloss().run_forced(world.spectra(), words, alt);
  }
}

core::ServiceBeginRequest PanglossExperiment::request() const {
  return {"", {{"words", static_cast<double>(config_.test_words)}}, ""};
}

solver::Alternative PanglossExperiment::recorded(
    const solver::Alternative& alt) const {
  return PanglossApp::canonical(alt);
}

double PanglossExperiment::achieved_utility(const MeasuredRun& run,
                                            const solver::Alternative& alt) {
  if (!run.feasible) return 0.0;
  const apps::PanglossConfig cfg;
  const auto latency =
      solver::deadline_latency(cfg.deadline_lo, cfg.deadline_hi);
  double fidelity = 0.0;
  static const char* kNames[] = {"ebmt", "gloss", "dict"};
  for (int c = 0; c <= PanglossApp::kDict; ++c) {
    auto it = alt.fidelity.find(kNames[c]);
    if (it != alt.fidelity.end() && it->second > 0.5) {
      fidelity += cfg.components[c].fidelity;
    }
  }
  return latency(run.time) * fidelity;
}

PanglossExperiment::Score PanglossExperiment::score(const Trial& trial) {
  const auto alts = alternatives();
  std::vector<double> utilities;
  utilities.reserve(alts.size());
  double best = 0.0;
  for (std::size_t a = 0; a < alts.size(); ++a) {
    utilities.push_back(achieved_utility(trial.runs[a], alts[a]));
    best = std::max(best, utilities.back());
  }
  const double spectra =
      achieved_utility(trial.spectra, trial.spectra.choice.alternative);
  Score s;
  s.percentile = util::percentile_rank(utilities, spectra);
  s.relative_utility = best > 0.0 ? spectra / best : 0.0;
  return s;
}

// --------------------------------------------------------------- overhead

std::unique_ptr<World> overhead_world(std::size_t servers, std::uint64_t seed,
                                      obs::Observability* obs) {
  WorldConfig wc;
  wc.testbed = Testbed::kOverhead;
  wc.seed = seed;
  wc.overhead_servers = servers;
  wc.spectra.obs = obs;
  return std::make_unique<World>(wc);
}

void install_null_service(World& world) {
  const auto install = [](core::SpectraServer& server) {
    server.register_service(kNullOp, [](const rpc::Request&) {
      rpc::Response r;
      r.ok = true;
      r.payload = 64.0;
      return r;
    });
  };
  for (MachineId id : world.server_ids()) install(world.server(id));
  install(world.spectra().local_server());
}

core::OperationDesc null_op_desc() {
  core::OperationDesc desc;
  desc.name = kNullOp;
  desc.plans = {{"local", false}, {"remote", true}};
  desc.fidelities = {{"level", {0.0, 1.0}}};
  desc.latency_fn = solver::inverse_latency();
  desc.fidelity_fn = [](const std::map<std::string, double>&) { return 1.0; };
  return desc;
}

void prepare_null_op(World& world) {
  install_null_service(world);
  world.spectra().register_fidelity(null_op_desc());
}

rpc::Request null_request() {
  rpc::Request req;
  req.op_type = kNullOp;
  req.payload = 64.0;
  return req;
}

void train_null_op(World& world, const std::vector<solver::Alternative>& alts,
                   int runs) {
  const AppOp op(App::kNullop, {});
  for (int i = 0; i < runs; ++i) {
    op.begin_forced(world, alts[static_cast<std::size_t>(i) % alts.size()]);
    op.execute(world);
    world.spectra().end_fidelity_op();
  }
}

OverheadReport OverheadExperiment::run() const {
  const auto world_ptr = overhead_world(config_.servers, config_.seed,
                                        config_.obs);
  World& world = *world_ptr;
  install_null_service(world);

  OverheadReport report;
  report.servers = config_.servers;
  auto desc = null_op_desc();  // built outside the timed call
  const double t0 = wall_ms();
  world.spectra().register_fidelity(std::move(desc));
  report.register_ms = wall_ms() - t0;
  world.settle(6.0);

  // Train so the measured begin_fidelity_op runs the full decision path.
  // The null operation always executes locally regardless of the chosen
  // plan; only the decision cost is being measured.
  train_null_op(world, {{0, -1, {{"level", 1.0}}}}, 16);

  // Measured runs.
  const AppOp op(App::kNullop, {});
  double begin_sum = 0, cache_sum = 0, choose_sum = 0, other_sum = 0;
  double local_sum = 0, end_sum = 0, total_sum = 0, virtual_sum = 0;
  for (int i = 0; i < config_.measured_runs; ++i) {
    const double t0 = wall_ms();
    const auto choice = op.begin(world);
    const double t1 = wall_ms();
    op.execute(world);
    const double t2 = wall_ms();
    world.spectra().end_fidelity_op();
    const double t3 = wall_ms();

    begin_sum += t1 - t0;
    cache_sum += choice.wall_cache_prediction * 1000.0;
    choose_sum += choice.wall_choosing * 1000.0;
    other_sum += (t1 - t0) - choice.wall_cache_prediction * 1000.0 -
                 choice.wall_choosing * 1000.0;
    local_sum += t2 - t1;
    end_sum += t3 - t2;
    total_sum += t3 - t0;
    virtual_sum += choice.virtual_decision_time * 1000.0;
  }
  const double n = config_.measured_runs;
  report.begin_ms = begin_sum / n;
  report.cache_prediction_ms = cache_sum / n;
  report.choosing_ms = choose_sum / n;
  report.begin_other_ms = other_sum / n;
  report.do_local_ms = local_sum / n;
  report.end_ms = end_sum / n;
  report.total_ms = total_sum / n;
  report.virtual_decision_ms = virtual_sum / n;

  // Pathological full-cache cache prediction (the paper's 359.6 ms case).
  for (std::size_t i = 0; i < config_.full_cache_files; ++i) {
    const std::string path = "full/f" + std::to_string(i);
    world.file_server().create({path, 4096.0, "full"});
    world.coda(kClient).warm(path);
  }
  double full_sum = 0;
  const int full_runs = 32;
  for (int i = 0; i < full_runs; ++i) {
    const auto choice = op.begin(world);
    op.execute(world);
    world.spectra().end_fidelity_op();
    full_sum += choice.wall_cache_prediction * 1000.0;
  }
  report.cache_prediction_full_ms = full_sum / full_runs;
  return report;
}

}  // namespace spectra::scenario
