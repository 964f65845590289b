#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/fnv.h"

namespace perfbench {

// ---- spans -------------------------------------------------------------------

Tracer::Buffer* Tracer::buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->spans.reserve(1 << 12);
  return buffers_.back().get();
}

std::vector<const Tracer::Buffer*> Tracer::buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Buffer*> out;
  for (const auto& b : buffers_) out.push_back(b.get());
  return out;
}

std::vector<double> Tracer::durations(std::string_view name,
                                      std::optional<std::uint64_t> id) const {
  std::vector<double> out;
  for (const Buffer* b : buffers()) {
    for (const Span& s : b->spans) {
      if (name == s.name && (!id || *id == s.id)) out.push_back(s.dur());
    }
  }
  return out;
}

std::vector<double> Tracer::self_times(std::string_view name) const {
  std::vector<double> out;
  for (const Buffer* b : buffers()) {
    // Children always follow their parent in a buffer, so one pass that
    // subtracts each span from its parent's running self time suffices.
    std::vector<double> self(b->spans.size());
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      self[i] += s.dur();
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur();
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      if (name == b->spans[i].name) out.push_back(self[i]);
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  std::map<std::string, std::pair<std::size_t, double>> totals;
  std::size_t thread = 0;
  for (const Buffer* b : buffers()) {
    for (const Span& s : b->spans) {
      out << "{\"span\":\"" << s.name << "\",\"thread\":" << thread
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"start\":" << json_number(s.start)
          << ",\"end\":" << json_number(s.end) << "}\n";
      totals[s.name].first += 1;
    }
    ++thread;
  }
  for (auto& [name, t] : totals) {
    double self = 0.0;
    for (double v : self_times(name)) self += v;
    out << "{\"summary\":\"" << name << "\",\"count\":" << t.first
        << ",\"self_s\":" << json_number(self) << "}\n";
  }
}

Scope::Scope(Tracer::Buffer* buf, const char* name, std::uint64_t id)
    : buf_(buf) {
  if (buf_ == nullptr) return;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = buf_->open.empty() ? -1 : buf_->open.back();
  index_ = static_cast<std::int32_t>(buf_->spans.size());
  buf_->open.push_back(index_);
  s.start = now_s();
  buf_->spans.push_back(s);
}

Scope::~Scope() {
  if (buf_ == nullptr) return;
  buf_->spans[static_cast<std::size_t>(index_)].end = now_s();
  buf_->open.pop_back();
}

// ---- statistics --------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- expectations ------------------------------------------------------------------

Expectations::Expectations(const Options& opt) {
  std::filesystem::create_directories(opt.state_dir + "/expect");
  path_ = opt.state_dir + "/expect/" + opt.workload + "-" + opt.size + "-" +
          std::to_string(opt.seed) + "-" + opt.source + ".txt";
  std::ifstream in(path_);
  std::string key, value;
  while (in >> key >> value) known_[key] = value;
}

void Expectations::expect(Result& result, const std::string& key,
                          const std::string& value) {
  const auto it = known_.find(key);
  if (it == known_.end()) {
    known_[key] = value;
    dirty_ = true;
    return;
  }
  result.check(it->second == value, "expected " + key + " = " + it->second +
                                        " (from an earlier run), got " +
                                        value);
}

void Expectations::save(const Result& result) const {
  if (!dirty_ || !result.violations.empty()) return;
  std::ofstream out(path_);
  for (const auto& [k, v] : known_) out << k << ' ' << v << '\n';
}

// ---- digests -----------------------------------------------------------------

std::uint64_t fold(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= spectra::util::kFnvPrime;
  }
  return spectra::util::fnv_mix(h, static_cast<std::uint64_t>(s.size()));
}

std::uint64_t fold(std::uint64_t h, const core::ServiceDecision& d) {
  using spectra::util::fnv_mix;
  h = fnv_mix(h, static_cast<std::uint64_t>(d.ok));
  h = fnv_mix(h, static_cast<std::uint64_t>(d.from_model));
  h = fold(h, d.plan);
  h = fold(h, d.placement);
  for (const auto& [k, v] : d.fidelity) h = fnv_mix(fold(h, k), v);
  h = fnv_mix(h, d.predicted_time_s);
  h = fnv_mix(h, d.predicted_energy_j);
  h = fnv_mix(h, d.log_utility);
  return fnv_mix(h, d.t);
}

std::uint64_t fold(std::uint64_t h, const core::ServiceOpResult& r) {
  using spectra::util::fnv_mix;
  h = fnv_mix(h, static_cast<std::uint64_t>(r.ok));
  h = fnv_mix(h, r.seq);
  h = fnv_mix(h, r.time_s);
  h = fnv_mix(h, r.energy_j);
  return fnv_mix(h, r.t);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- host ---------------------------------------------------------------------

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string overhead_path(const Options& opt, const std::string& workload) {
  return opt.state_dir + "/overhead-" + workload + "-" + opt.size + ".txt";
}

}  // namespace

void save_overhead(const Options& opt, double share) {
  std::filesystem::create_directories(opt.state_dir);
  std::ofstream(overhead_path(opt, opt.workload)) << json_number(share)
                                                  << "\n";
}

std::string host_json(const Options& opt) {
  std::ostringstream out;
  out << "{\"host\":{\"nproc\":" << nproc()
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << json_string(std::string("g++ ") + __VERSION__)
      << ",\"revision\":" << json_string(opt.revision)
      << ",\"source\":" << json_string(opt.source)
      << ",\"workload\":" << json_string(opt.workload)
      << ",\"seed\":" << opt.seed << ",\"size\":" << json_string(opt.size)
      << ",\"tracing_overhead\":{";
  bool first = true;
  for (const char* wl : {"fleet_wide_pool", "fleet_narrow_pool",
                         "serve_nullop", "serve_apps"}) {
    std::ifstream in(overhead_path(opt, wl));
    std::string v;
    if (!(in >> v)) v = "null";
    out << (first ? "" : ",") << "\"" << wl << "\":" << v;
    first = false;
  }
  out << "}}}";
  return out.str();
}

}  // namespace perfbench
