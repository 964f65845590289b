// Chaos soak harness (ISSUE 4): many seeded fault plans, each run against a
// cloned trained world, with liveness and consistency invariants asserted
// after every operation and at plan end.
//
// One soak = N plans. For plan i the harness derives a chaos seed from the
// base seed, generates a fault plan (fault::make_chaos_plan), clones the
// experiment's trained template world, arms the plan, and drives
// ops_per_plan full Spectra operations with seeded inputs through the app
// table, spaced across the chaos horizon (speech, latex or pangloss; not
// nullop). Operations that die to a mid-run contract
// violation (e.g. the file server partitions during a cache miss) are
// recorded as aborted — an expected outcome under chaos, not an invariant
// violation — and the harness finalizes the client's op state so the next
// operation starts clean.
//
// Invariants checked per plan (violations are collected, not thrown):
//   * virtual time is monotone and advances across the plan;
//   * no operation is left in progress after its completion or abort;
//   * every Coda cache satisfies fs::CodaClient::check_invariants()
//     (accounting, LRU structure, dirty/version rules, journal state);
//   * when replay_check is set, re-running the identical plan on a second
//     clone produces a bit-identical outcome fingerprint.
//
// Plans fan out through BatchRunner::map_runs, so a soak's report is
// bit-identical for any --jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/chaos.h"
#include "obs/obs.h"
#include "scenario/app_op.h"
#include "scenario/batch.h"

namespace spectra::scenario {

struct SoakConfig {
  App app = App::kLatex;
  // Number of independent seeded fault plans.
  int plans = 25;
  // Base seed; plan i uses base_seed + i * 7919.
  std::uint64_t base_seed = 1;
  // Full Spectra operations driven per plan.
  int ops_per_plan = 4;
  // Chaos shape (horizon, intensity, durations).
  fault::ChaosConfig chaos;
  // Re-run every plan on a second clone and require bit-identical
  // fingerprints.
  bool replay_check = true;
  // World seed for the trained template (shared across plans).
  std::uint64_t world_seed = 1;
};

// Outcome of one operation inside a soak plan.
enum class SoakOpOutcome { kCompleted, kNoChoice, kAborted };

struct SoakPlanResult {
  std::uint64_t chaos_seed = 0;
  int completed = 0;
  int no_choice = 0;
  int aborted = 0;
  // FNV-1a over per-op outcomes, the fault injector trace, and the final
  // virtual time. Equal fingerprints mean bit-identical plan execution.
  std::uint64_t fingerprint = 0;
  bool replay_identical = true;
  util::Seconds virtual_end = 0.0;
  std::vector<std::string> violations;
};

struct SoakReport {
  SoakConfig config;
  std::vector<SoakPlanResult> plans;

  int total_completed() const;
  int total_aborted() const;
  int total_no_choice() const;
  std::vector<std::string> all_violations() const;
  bool clean() const { return all_violations().empty(); }

  std::string to_json() const;
  std::string summary() const;
};

// Topology chaos may break for `app`'s testbed (links, compute servers).
fault::ChaosTopology soak_topology(App app);

// Run the soak, fanning plans across `runner`. `session` (nullable)
// receives merged per-plan metrics/traces in plan order.
SoakReport run_soak(const SoakConfig& config, BatchRunner& runner,
                    obs::Observability* session = nullptr);

}  // namespace spectra::scenario
