// Chaos soak harness: generator determinism, plan well-formedness, and
// scaled-down soaks per application asserting the harness's invariants —
// zero violations, bit-identical replay, and --jobs-independent reports.
// The full-size soak runs in scripts/check.sh via `spectra chaos`.
#include <gtest/gtest.h>

#include "fault/chaos.h"
#include "scenario/soak.h"

namespace spectra::scenario {
namespace {

using fault::ChaosConfig;
using fault::ChaosTopology;
using fault::FaultKind;
using fault::make_chaos_plan;

ChaosTopology thinkpad_topo() { return soak_topology(App::kLatex); }

TEST(ChaosPlanTest, SameSeedSamePlan) {
  const auto a = make_chaos_plan(7, thinkpad_topo());
  const auto b = make_chaos_plan(7, thinkpad_topo());
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.seed, b.seed);
}

TEST(ChaosPlanTest, DifferentSeedsDiffer) {
  const auto a = make_chaos_plan(7, thinkpad_topo());
  const auto b = make_chaos_plan(8, thinkpad_topo());
  EXPECT_NE(a.to_string(), b.to_string());
  EXPECT_NE(a.seed, b.seed);
}

TEST(ChaosPlanTest, PlansAreSelfHealing) {
  // Every generated fault either carries a bounded duration or an even flap
  // count, so the world converges before the horizon ends. Battery cliffs
  // are excluded unless explicitly allowed.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto plan = make_chaos_plan(seed, thinkpad_topo());
    for (const auto& ev : plan.scheduled) {
      EXPECT_LE(ev.at, 0.85 * plan.horizon) << "seed " << seed;
      EXPECT_NE(ev.kind, FaultKind::kBatteryCliff) << "seed " << seed;
      if (ev.kind == FaultKind::kLinkFlap) {
        EXPECT_EQ(ev.count % 2, 0) << "seed " << seed;
        EXPECT_GT(ev.period, 0.0) << "seed " << seed;
      } else {
        EXPECT_GT(ev.duration, 0.0) << "seed " << seed;
      }
    }
    for (const auto& pf : plan.probabilistic) {
      EXPECT_GT(pf.rate_per_s, 0.0) << "seed " << seed;
      EXPECT_GT(pf.duration, 0.0) << "seed " << seed;
    }
  }
}

TEST(ChaosPlanTest, IntensityScalesEventCount) {
  ChaosConfig calm;
  calm.intensity = 1.0;
  ChaosConfig violent;
  violent.intensity = 4.0;
  std::size_t calm_total = 0;
  std::size_t violent_total = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    calm_total += make_chaos_plan(seed, thinkpad_topo(), calm).scheduled.size();
    violent_total +=
        make_chaos_plan(seed, thinkpad_topo(), violent).scheduled.size();
  }
  EXPECT_GT(violent_total, 2 * calm_total);
}

// Scaled-down soak shared by the per-app tests: 3 plans, 2 ops each, with
// the replay check on.
SoakConfig small_soak(App app) {
  SoakConfig cfg;
  cfg.app = app;
  cfg.plans = 3;
  cfg.ops_per_plan = 2;
  cfg.chaos.horizon = 30.0;
  cfg.replay_check = true;
  return cfg;
}

void expect_clean(const SoakReport& report) {
  EXPECT_TRUE(report.clean()) << report.to_json();
  for (const auto& p : report.plans) {
    EXPECT_TRUE(p.replay_identical) << "seed " << p.chaos_seed;
    EXPECT_GT(p.completed + p.aborted + p.no_choice, 0);
    EXPECT_GT(p.virtual_end, 0.0);
  }
}

TEST(ChaosSoakTest, SpeechSoakHoldsInvariants) {
  BatchRunner runner(1);
  expect_clean(run_soak(small_soak(App::kSpeech), runner));
}

TEST(ChaosSoakTest, LatexSoakHoldsInvariants) {
  BatchRunner runner(1);
  expect_clean(run_soak(small_soak(App::kLatex), runner));
}

TEST(ChaosSoakTest, PanglossSoakHoldsInvariants) {
  BatchRunner runner(1);
  expect_clean(run_soak(small_soak(App::kPangloss), runner));
}

TEST(ChaosSoakTest, ReportIdenticalForAnyJobs) {
  SoakConfig cfg = small_soak(App::kLatex);
  cfg.plans = 4;
  BatchRunner seq(1);
  BatchRunner par(4);
  const SoakReport a = run_soak(cfg, seq);
  const SoakReport b = run_soak(cfg, par);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ChaosSoakTest, HighIntensitySoakStillClean) {
  SoakConfig cfg = small_soak(App::kLatex);
  cfg.chaos.intensity = 3.0;
  cfg.base_seed = 77;
  BatchRunner runner(2);
  expect_clean(run_soak(cfg, runner));
}

}  // namespace
}  // namespace spectra::scenario
