// Fleet workloads: fleet_wide_pool and fleet_narrow_pool.
//
// One iteration builds a FleetScenario, a FleetWorld and a thread pool
// (set-up), advances the world one lookahead window at a time with
// run_until, and calls finish. Iterations repeat until --seconds have
// passed (at least three). From the second iteration on, the world is
// cloned at a quarter, half and three quarters of the horizon and the run
// continues on each clone (the restore metric); every iteration must reach
// the same fingerprint.
#include <malloc.h>

#include <algorithm>
#include <iterator>
#include <memory>

#include "common.h"
#include "exec/thread_pool.h"
#include "obs/memaudit.h"
#include "scenario/fleet.h"

namespace perfbench {
namespace {

namespace sc = spectra::scenario;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kFlashCrowds = 8;
// Restore points, as fractions of the horizon (iterations after the first).
constexpr double kClonePoints[] = {0.25, 0.5, 0.75};

struct Iteration {
  bool traced = false;
  double generate_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;     // host time inside run_until
  double finish_s = 0.0;  // host time inside finish
  std::vector<double> restore_s;  // one per mid-run clone
  std::vector<double> window_ms;
  sc::FleetReport report;

  double setup_s() const { return generate_s + build_s; }
  double events_per_s() const {
    return static_cast<double>(report.decisions + report.ops_completed) /
           (run_s + finish_s);
  }
};

sc::FleetConfig config_for(const Options& opt) {
  sc::FleetConfig cfg;
  const bool wide = opt.workload == "fleet_wide_pool";
  cfg.clients = opt.tiny() ? 2000 : 100'000;
  cfg.servers = wide ? (opt.tiny() ? 16 : 800) : (opt.tiny() ? 4 : 8);
  cfg.seed = opt.seed;
  cfg.horizon = opt.tiny() ? 60.0 : 120.0;
  cfg.admission.policy = spectra::core::AdmissionPolicy::kWeightedFair;
  // The default single 6x flash crowd lands anywhere in the run, so the
  // total load swings by about a third from seed to seed. Several smaller
  // crowds add the same expected load with far less spread across seeds.
  cfg.flash_crowds = kFlashCrowds;
  cfg.flash_multiplier = 1.0 + 5.0 / kFlashCrowds;
  return cfg;
}

Iteration run_iteration(const sc::FleetConfig& cfg, bool clone,
                        Tracer::Buffer* buf, std::uint64_t index) {
  Iteration it;
  it.traced = buf != nullptr;
  Scope whole(buf, "fleet.iteration", index);

  double t0 = now_s();
  std::shared_ptr<const sc::FleetScenario> scenario;
  {
    Scope s(buf, "scenario.generate", index);
    scenario = std::make_shared<const sc::FleetScenario>(cfg);
  }
  const double t1 = now_s();
  std::unique_ptr<sc::FleetWorld> world;
  std::unique_ptr<spectra::exec::ThreadPool> pool;
  {
    Scope s(buf, "scenario.build", index);
    world = std::make_unique<sc::FleetWorld>(scenario, nullptr);
    // The thread that calls run_until helps run islands while it waits,
    // so nproc - 1 workers keep exactly nproc threads busy.
    pool = std::make_unique<spectra::exec::ThreadPool>(
        std::max<std::size_t>(1, nproc() - 1));
  }
  const double t2 = now_s();
  it.generate_s = t1 - t0;
  it.build_s = t2 - t1;

  const double window = world->plan().lookahead;
  std::size_t next_clone = 0;
  std::uint64_t k = 0;
  while (world->now() < cfg.horizon) {
    const double target =
        std::min(cfg.horizon, window * static_cast<double>(k + 1));
    if (clone && next_clone < std::size(kClonePoints) &&
        target > kClonePoints[next_clone] * cfg.horizon) {
      Scope s(buf, "fleet.clone", index);
      const double c0 = now_s();
      std::unique_ptr<sc::FleetWorld> copy = world->clone(nullptr);
      it.restore_s.push_back(now_s() - c0);
      world = std::move(copy);
      ++next_clone;
    }
    const double w0 = now_s();
    {
      Scope s(buf, "sim.window", k);
      world->run_until(target, pool.get());
    }
    const double w = now_s() - w0;
    it.run_s += w;
    it.window_ms.push_back(w * 1e3);
    ++k;
  }
  const double f0 = now_s();
  {
    Scope s(buf, "fleet.finish", index);
    it.report = world->finish(pool.get());
  }
  it.finish_s = now_s() - f0;
  return it;
}

template <typename Fn>
std::vector<double> collect(const std::vector<Iteration>& its, bool traced,
                            Fn fn) {
  std::vector<double> out;
  for (const Iteration& it : its) {
    if (it.traced == traced) out.push_back(fn(it));
  }
  return out;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void run_fleet(const Options& opt, Tracer& tracer, Result& result) {
  // A fixed mmap threshold (glibc otherwise raises it as large blocks are
  // freed) returns each freed world to the OS, so peak RSS measures live
  // worlds rather than allocator retention across iterations.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const sc::FleetConfig cfg = config_for(opt);
  const std::size_t min_iterations = opt.trace ? 4 : 3;

  std::vector<Iteration> its;
  // Peak RSS and peak live heap of the first iteration: one world, no
  // clone. Later iterations add a clone and allocator timing, which made
  // the process peak vary by 8% between runs of one seed.
  double peak_rss = 0.0;
  double peak_live = 0.0;
  const double start = now_s();
  while (its.size() < min_iterations || now_s() - start < opt.seconds) {
    const std::size_t i = its.size();
    // Traced runs alternate untraced and traced iterations, so the tracing
    // overhead is measured within one run.
    Tracer::Buffer* buf = opt.trace && i % 2 == 1 ? tracer.buffer() : nullptr;
    its.push_back(run_iteration(cfg, i > 0, buf, i));
    if (i == 0) {
      peak_rss = static_cast<double>(spectra::obs::peak_rss_bytes());
      peak_live =
          static_cast<double>(spectra::obs::memaudit_peak_live_bytes());
    }
  }

  // ---- correctness -------------------------------------------------------
  Expectations expect(opt);
  const sc::FleetReport& first = its.front().report;
  for (const Iteration& it : its) {
    const sc::FleetReport& r = it.report;
    result.attempted += r.decisions;
    result.check(r.ops_completed == r.ops_local + r.ops_remote,
                 "fleet: ops_completed != ops_local + ops_remote");
    result.check(r.fingerprint == first.fingerprint &&
                     r.decisions == first.decisions &&
                     r.ops_completed == first.ops_completed &&
                     r.ops_rejected == first.ops_rejected &&
                     r.ops_aborted == first.ops_aborted &&
                     r.ops_cross_island == first.ops_cross_island,
                 "fleet: iterations of one run disagree (a cloned world "
                 "diverged or the simulation is not deterministic)");
  }
  expect.expect(result, "fingerprint", hex(first.fingerprint));
  expect.expect(result, "decisions", std::to_string(first.decisions));
  expect.expect(result, "ops_completed", std::to_string(first.ops_completed));
  expect.expect(result, "ops_rejected", std::to_string(first.ops_rejected));
  expect.expect(result, "ops_aborted", std::to_string(first.ops_aborted));
  expect.expect(result, "ops_cross_island",
                std::to_string(first.ops_cross_island));
  expect.save(result);

  result.accounting["ops_attempted"] = static_cast<double>(result.attempted);
  result.accounting["ops_completed"] =
      static_cast<double>(first.ops_completed * its.size());
  result.accounting["ops_failed"] = 0;
  // Rejected and aborted ops fall back to local execution; they are
  // reported, not failed.
  result.accounting["ops_rejected"] =
      static_cast<double>(first.ops_rejected * its.size());
  result.accounting["ops_aborted"] =
      static_cast<double>(first.ops_aborted * its.size());
  result.accounting["iterations"] = static_cast<double>(its.size());

  if (!opt.trace) {
    result.set("setup_s", median(collect(its, false, [](auto& it) {
                 return it.setup_s();
               })),
               "s");
    result.set("peak_rss_mb", peak_rss / kMiB, "MiB");
    result.set("throughput_per_s", median(collect(its, false, [](auto& it) {
                 return it.events_per_s();
               })),
               "1/s");
    // Operation latency as the simulated clients see it (virtual time,
    // deterministic for a seed).
    result.set("op_p50_ms", 1e3 * first.latency_p50_s, "ms");
    result.set("op_p99_ms", 1e3 * first.latency_p99_s, "ms");
    std::vector<double> restores;
    for (const Iteration& it : its) {
      restores.insert(restores.end(), it.restore_s.begin(), it.restore_s.end());
    }
    result.set("restore_s", median(restores), "s");
    result.set("quality", first.jain_fairness, "score");
    return;
  }

  const double untraced = median(collect(its, false, [](auto& it) {
    return it.events_per_s();
  }));
  const double traced = median(collect(its, true, [](auto& it) {
    return it.events_per_s();
  }));
  result.tracing_overhead = 1.0 - traced / untraced;

  result.set("scenario.fleet_generate_s",
             median(tracer.durations("scenario.generate")), "s");
  result.set("scenario.fleet_build_s",
             median(tracer.durations("scenario.build")), "s");
  std::vector<double> windows_ms;
  for (double d : tracer.durations("sim.window")) windows_ms.push_back(d * 1e3);
  result.set("sim.window_ms_p50", percentile(windows_ms, 50), "ms");
  result.set("sim.window_ms_p99", percentile(windows_ms, 99), "ms");
  result.set("sim.windows", static_cast<double>(its.front().window_ms.size()),
             "count");
  result.set("fleet.finish_s", median(tracer.durations("fleet.finish")), "s");
  result.set("fleet.decision_us_p50", 1e3 * median(collect(its, true, [](auto& it) {
               return it.report.decision_wall_p50_ms;
             })),
             "us");
  result.set("fleet.decision_us_p99", 1e3 * median(collect(its, true, [](auto& it) {
               return it.report.decision_wall_p99_ms;
             })),
             "us");
  const sc::FleetReport& r = first;
  const std::uint64_t submitted = r.ops_remote + r.ops_rejected + r.ops_aborted;
  result.set("fleet.decisions", static_cast<double>(r.decisions), "count");
  result.set("fleet.completions", static_cast<double>(r.ops_completed),
             "count");
  result.set("fleet.rejected", static_cast<double>(r.ops_rejected), "count");
  result.set("fleet.aborted", static_cast<double>(r.ops_aborted), "count");
  result.set("fleet.remote_share", share(r.ops_remote, r.ops_completed),
             "ratio");
  result.set("fleet.rejected_share",
             share(r.ops_rejected + r.ops_aborted, submitted), "ratio");
  result.set("fleet.cross_island_share", share(r.ops_cross_island, submitted),
             "ratio");
  result.set("fleet.server_util_mean", r.server_utilization_mean, "ratio");
  result.set("fleet.islands", static_cast<double>(r.islands), "count");
  result.set("obs.peak_live_mb", peak_live / kMiB, "MiB");
  result.set("fleet.bytes_per_client",
             peak_rss / static_cast<double>(cfg.clients), "B");
}

}  // namespace perfbench
