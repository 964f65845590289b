#include "scenario/batch.h"

#include <cstdlib>
#include <cstring>

#include "util/table.h"

namespace spectra::scenario {

bool default_reuse_trained_world() {
  const char* env = std::getenv("SPECTRA_REUSE");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "false") != 0;
}

std::string most_chosen(const std::vector<Trial>& trials,
                        std::string (*label)(const solver::Alternative&)) {
  std::map<std::string, int> count;
  for (const Trial& t : trials) ++count[label(t.spectra.choice.alternative)];
  std::string best;
  int best_count = 0;
  for (const auto& [name, n] : count) {
    if (n > best_count) {
      best = name;
      best_count = n;
    }
  }
  return best;
}

std::string Aggregate::cell(int precision) const {
  if (!available()) return "unavailable";
  return util::Table::num_ci(stats.mean(), stats.confidence_halfwidth(0.90),
                             precision);
}

Aggregate aggregate(const std::vector<Trial>& trials, std::size_t a,
                    RunMetric metric) {
  Aggregate out;
  for (const Trial& t : trials) {
    if (t.runs[a].feasible) {
      out.stats.add(metric(t.runs[a]));
    } else {
      out.any_infeasible = true;
    }
  }
  return out;
}

Aggregate aggregate_spectra(const std::vector<Trial>& trials,
                            RunMetric metric) {
  Aggregate out;
  for (const Trial& t : trials) out.stats.add(metric(t.spectra));
  return out;
}

BatchRunner::BatchRunner(std::size_t jobs) : jobs_(jobs < 1 ? 1 : jobs) {
  if (jobs_ > 1) pool_ = std::make_unique<exec::ThreadPool>(jobs_);
}

TrainedWorldCache& TrainedWorldCache::instance() {
  static TrainedWorldCache cache;
  return cache;
}

std::shared_ptr<const World> TrainedWorldCache::get(
    const std::string& key,
    const std::function<std::unique_ptr<World>()>& build) {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = slots_[key];
    if (entry == nullptr) entry = std::make_shared<Slot>();
    slot = entry;
  }
  std::call_once(slot->once, [&] { slot->world = build(); });
  return slot->world;
}

void TrainedWorldCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
}

std::size_t TrainedWorldCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace spectra::scenario
