// micro_decision: decision hot-path microbenchmark.
//
// Measures the real wall-clock cost of begin_fidelity_op — the snapshot →
// demand prediction → solver search → utility evaluation pipeline — on
// three trained worlds of increasing decision-space size:
//
//   * nullop_1srv — the fig10 overhead testbed with one candidate server
//     (2 plans x 2 fidelity levels); this is the number scripts/check.sh's
//     perf smoke guards against regression.
//   * speech     — the trained Janus world (6 alternatives, 1 server).
//   * pangloss   — the trained Pangloss world (~97 alternatives, 2
//     servers), the space that dominates the fig08/fig09 benches.
//
// Per scenario: decisions/sec, p50/p95/mean decision latency, and the
// per-stage breakdown the client reports (file-cache prediction, choosing
// the alternative, remaining snapshot/bookkeeping time). Means are
// best-of-`reps` to shed scheduler noise, which only ever adds time;
// latency percentiles come from the best rep's samples.
//
// A second section times the model and solver steps a decision is built
// from, each in isolation: numeric-predictor add and query, operation-model
// observe, and an exhaustive solve over a Pangloss-sized space (16 plans x
// 2 servers x 3 binary fidelities). Each kernel runs 10 x --decisions
// calls per rep; the JSON "kernels" array reports best-of-reps ns/call.
//
// Usage: micro_decision [--json=FILE] [--decisions=N] [--reps=N]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/flags.h"
#include "predict/numeric.h"
#include "predict/operation_model.h"
#include "scenario/app_op.h"
#include "scenario/experiment.h"
#include "scenario/world.h"
#include "solver/solver.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

namespace {

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One measured decision cycle: time begin_fidelity_op, then run the
// operation and close it so the world stays in a valid steady state.
struct DecisionSample {
  double begin_ms = 0.0;
  double cache_ms = 0.0;
  double choose_ms = 0.0;
  std::size_t evaluations = 0;
  std::size_t memo_hits = 0;
  std::size_t candidate_servers = 0;
};

struct RepResult {
  std::vector<double> latencies_ms;  // one per decision
  double mean_ms = 0.0;
  double cache_ms = 0.0;   // mean per decision
  double choose_ms = 0.0;  // mean per decision
  double other_ms = 0.0;
  double evaluations = 0.0;  // mean per decision
  double memo_hits = 0.0;
  std::size_t candidate_servers = 0;
};

struct ScenarioResult {
  std::string name;
  std::size_t decisions = 0;
  RepResult best;  // rep with the smallest mean latency
  double decisions_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

template <typename DecideFn>
ScenarioResult run_scenario(const std::string& name, int decisions, int reps,
                            DecideFn&& decide) {
  ScenarioResult out;
  out.name = name;
  out.decisions = static_cast<std::size_t>(decisions);
  // Warm-up: fault in lazily-built state (allocator arenas, model bins).
  for (int i = 0; i < 8; ++i) decide();
  for (int rep = 0; rep < reps; ++rep) {
    RepResult r;
    r.latencies_ms.reserve(decisions);
    double cache = 0, choose = 0, evals = 0, hits = 0;
    for (int i = 0; i < decisions; ++i) {
      const DecisionSample s = decide();
      r.latencies_ms.push_back(s.begin_ms);
      cache += s.cache_ms;
      choose += s.choose_ms;
      evals += static_cast<double>(s.evaluations);
      hits += static_cast<double>(s.memo_hits);
      r.candidate_servers = s.candidate_servers;
    }
    const double n = static_cast<double>(decisions);
    r.mean_ms = std::accumulate(r.latencies_ms.begin(), r.latencies_ms.end(),
                                0.0) /
                n;
    r.cache_ms = cache / n;
    r.choose_ms = choose / n;
    r.other_ms = r.mean_ms - r.cache_ms - r.choose_ms;
    r.evaluations = evals / n;
    r.memo_hits = hits / n;
    if (rep == 0 || r.mean_ms < out.best.mean_ms) out.best = std::move(r);
  }
  out.decisions_per_sec =
      out.best.mean_ms > 0.0 ? 1000.0 / out.best.mean_ms : 0.0;
  out.p50_ms = util::percentile_value(out.best.latencies_ms, 50.0);
  out.p95_ms = util::percentile_value(out.best.latencies_ms, 95.0);
  return out;
}

// ---------------------------------------------------------------- nullop

std::unique_ptr<World> nullop_world(std::size_t servers) {
  auto world = overhead_world(servers, 1);
  prepare_null_op(*world);
  world->settle(6.0);
  // Train past the exploration phase so measured decisions run the full
  // model + solver path.
  train_null_op(*world, {{0, -1, {{"level", 1.0}}}}, 16);
  return world;
}

// One decision cycle through the app table: the timed begin, then the
// operation and end_fidelity_op.
DecisionSample decide(World& world, const AppOp& op) {
  const double t0 = wall_ms();
  const core::OperationChoice choice = op.begin(world);
  const double t1 = wall_ms();
  op.execute(world);
  world.spectra().end_fidelity_op();
  DecisionSample s;
  s.begin_ms = t1 - t0;
  s.cache_ms = choice.wall_cache_prediction * 1000.0;
  s.choose_ms = choice.wall_choosing * 1000.0;
  s.evaluations = choice.evaluations;
  s.memo_hits = choice.memo_hits;
  s.candidate_servers = choice.candidate_servers;
  return s;
}

// -------------------------------------------------------------- kernels

struct KernelResult {
  std::string name;
  int calls = 0;
  double ns_per_call = 0.0;  // best rep
};

// Kernel results land here so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;

template <typename Fn>
KernelResult time_kernel(const std::string& name, int calls, int reps,
                         Fn&& call) {
  KernelResult out;
  out.name = name;
  out.calls = calls;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = wall_ms();
    for (int i = 0; i < calls; ++i) call(i);
    const double ns = (wall_ms() - t0) * 1e6 / calls;
    if (rep == 0 || ns < out.ns_per_call) out.ns_per_call = ns;
  }
  return out;
}

predict::FeatureVector kernel_features(int plan, double len) {
  predict::FeatureVector f;
  f.discrete["plan"] = plan;
  f.discrete["vocab"] = plan % 2;
  f.continuous["len"] = len;
  return f;
}

std::vector<KernelResult> run_kernels(int calls, int reps) {
  // Inputs are built up front so only the kernel itself is timed.
  util::Rng rng(1);
  std::vector<predict::FeatureVector> features;
  std::vector<double> demands;
  for (int i = 0; i < 64; ++i) {
    features.push_back(kernel_features(i % 3, rng.uniform(1.0, 4.0)));
    demands.push_back(rng.uniform(0.0, 1e9));
  }
  const auto pick = [](int i) { return static_cast<std::size_t>(i % 64); };

  std::vector<KernelResult> out;
  predict::NumericPredictor trained;
  out.push_back(time_kernel("predictor_add", calls, reps, [&](int i) {
    trained.add(features[pick(i)], demands[pick(i)]);
  }));
  const predict::FeatureVector query = kernel_features(1, 2.0);
  out.push_back(time_kernel("predictor_query", calls, reps, [&](int) {
    g_sink = trained.predict(query);
  }));

  predict::OperationModel model;
  monitor::OperationUsage usage;
  usage.local_cycles = 1e8;
  usage.remote_cycles = 2e8;
  usage.bytes_sent = 4096;
  usage.energy = 3.0;
  usage.local_file_accesses.push_back({"f1", 1000.0, false, false});
  out.push_back(time_kernel(
      "operation_model_observe", calls, reps,
      [&](int i) { model.observe(features[pick(i)], usage); }));

  solver::AlternativeSpace space;
  for (int i = 0; i < 16; ++i) space.plans.push_back({"p", i != 0});
  space.servers = {1, 2};
  space.fidelities = {{"a", {0.0, 1.0}}, {"b", {0.0, 1.0}}, {"c", {0.0, 1.0}}};
  const auto eval = [](const solver::Alternative& a) {
    return -std::abs(a.plan - 9.0) + a.fidelity.at("a");
  };
  out.push_back(time_kernel("exhaustive_solve", calls, reps, [&](int) {
    solver::ExhaustiveSolver exhaustive;
    g_sink = exhaustive.solve(space, eval).log_utility;
  }));
  return out;
}

// ----------------------------------------------------------------- main

const cli::FlagList kFlags = {
    {"json", "FILE"}, {"decisions", "N"}, {"reps", "N"}};

int usage() {
  std::cerr << cli::synopsis("usage: micro_decision", "", kFlags) << "\n";
  return 2;
}

std::string json_scenario(const ScenarioResult& r) {
  std::ostringstream os;
  os.precision(6);
  os << "    {\"name\": \"" << r.name << "\", "
     << "\"decisions\": " << r.decisions << ", "
     << "\"decisions_per_sec\": " << r.decisions_per_sec << ", "
     << "\"mean_ms\": " << r.best.mean_ms << ", "
     << "\"p50_ms\": " << r.p50_ms << ", "
     << "\"p95_ms\": " << r.p95_ms << ", "
     << "\"stages_ms\": {\"cache_prediction\": " << r.best.cache_ms
     << ", \"choosing\": " << r.best.choose_ms
     << ", \"snapshot_other\": " << r.best.other_ms << "}, "
     << "\"solver\": {\"evaluations\": " << r.best.evaluations
     << ", \"memo_hits\": " << r.best.memo_hits
     << ", \"candidate_servers\": " << r.best.candidate_servers << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int decisions = 0;
  int reps = 0;
  try {
    const cli::Args args = cli::Args::parse(argc, argv);
    SPECTRA_REQUIRE(args.command().empty(),
                    "unexpected argument: " + args.command());
    if (const auto bad = cli::unknown_flag(kFlags, args)) {
      std::cerr << "micro_decision: unknown option --" << *bad << "\n";
      return usage();
    }
    if (const auto bad = cli::misused_flag(kFlags, args)) {
      std::cerr << "micro_decision: " << *bad << "\n";
      return usage();
    }
    json_path = args.get("json", "");
    decisions = static_cast<int>(args.get_count("decisions", 300, 100'000));
    reps = static_cast<int>(args.get_count("reps", 5, 1'000));
  } catch (const util::ContractError& err) {
    std::cerr << "micro_decision: " << err.what() << "\n";
    return usage();
  }
  std::vector<ScenarioResult> results;

  {
    auto world = nullop_world(1);
    const AppOp op(App::kNullop, {});
    results.push_back(run_scenario("nullop_1srv", decisions, reps,
                                   [&] { return decide(*world, op); }));
  }

  {
    SpeechExperiment::Config cfg;
    cfg.seed = 1;
    auto world = SpeechExperiment(cfg).trained_world();
    const AppOp op(App::kSpeech, {"", {{"utt_len", 2.0}}, ""});
    results.push_back(run_scenario("speech", decisions, reps,
                                   [&] { return decide(*world, op); }));
  }

  {
    PanglossExperiment::Config cfg;
    cfg.seed = 1;
    auto world = PanglossExperiment(cfg).trained_world();
    const AppOp op(App::kPangloss, {"", {{"words", 12.0}}, ""});
    results.push_back(run_scenario("pangloss", decisions, reps,
                                   [&] { return decide(*world, op); }));
  }

  util::Table table("micro_decision: begin_fidelity_op hot path (wall-clock)");
  table.set_header({"scenario", "decisions/s", "mean ms", "p50 ms", "p95 ms",
                    "cache ms", "choose ms", "other ms", "evals", "memo"});
  for (const auto& r : results) {
    table.add_row({r.name, util::Table::num(r.decisions_per_sec, 0),
                   util::Table::num(r.best.mean_ms, 4),
                   util::Table::num(r.p50_ms, 4),
                   util::Table::num(r.p95_ms, 4),
                   util::Table::num(r.best.cache_ms, 4),
                   util::Table::num(r.best.choose_ms, 4),
                   util::Table::num(r.best.other_ms, 4),
                   util::Table::num(r.best.evaluations, 1),
                   util::Table::num(r.best.memo_hits, 1)});
  }
  std::cout << table.to_string();

  const std::vector<KernelResult> kernels = run_kernels(10 * decisions, reps);
  util::Table ktable("micro_decision: model and solver kernels (wall-clock)");
  ktable.set_header({"kernel", "calls", "ns/call"});
  for (const auto& k : kernels) {
    ktable.add_row({k.name, std::to_string(k.calls),
                    util::Table::num(k.ns_per_call, 1)});
  }
  std::cout << ktable.to_string();

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n  \"harness\": \"bench/micro_decision\",\n"
        << "  \"decisions\": " << decisions << ",\n  \"reps\": " << reps
        << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << json_scenario(results[i]) << (i + 1 < results.size() ? "," : "")
          << "\n";
    }
    out << "  ],\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      out << "    {\"name\": \"" << kernels[i].name << "\", \"calls\": "
          << kernels[i].calls << ", \"ns_per_call\": "
          << kernels[i].ns_per_call << "}"
          << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
