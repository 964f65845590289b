// Shared pieces of the perfbench harness: options, span tracing, sample
// statistics, the result record, cross-run expectations and the host block.
//
// Spans are recorded only by the harness's own code, around each call it
// makes into a spectra layer. A span has a name, a start, an end, the span
// that was open on the same thread when it began (its parent), and an id
// naming the request or window it belongs to. Spans stay in per-thread
// memory and are written out once, when the run ends. A layer's self time
// is its duration minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/decision_service.h"

namespace perfbench {

namespace core = spectra::core;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // "full" is the benchmark; "tiny" shrinks every workload for self-tests.
  std::string size = "full";
  // Scratch directory inside the checkout (WALs, expectations, traces).
  std::string state_dir = ".bench_build/perfbench-state";
  std::string spectra_bin;
  // Source revision of the program under test (commit or content digest).
  std::string revision = "unknown";
  // Content digest of the program's sources; keys the expectations.
  std::string source = "unknown";
  bool tiny() const { return size == "tiny"; }
};

// ---- clocks ----------------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;  // index into the same thread's buffer
  std::uint64_t id = 0;      // request or window id
  double dur() const { return end - start; }
};

// Per-thread span buffers. Each recording thread owns one buffer, so
// recording never takes a lock; buffers are merged after threads join.
class Tracer {
 public:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  // stack of open span indexes
  };

  // A fresh buffer for the calling thread; the Tracer keeps it alive.
  Buffer* buffer();

  // Durations (seconds) of every span called `name` (and carrying `id`,
  // when given).
  std::vector<double> durations(std::string_view name,
                                std::optional<std::uint64_t> id = {}) const;
  // Self time (duration minus child-covered time) of every `name` span.
  std::vector<double> self_times(std::string_view name) const;

  // One JSON line per span, then one summary line per span name.
  void write(const std::string& path) const;

 private:
  // Every span recorded so far, buffer by buffer.
  std::vector<const Buffer*> buffers() const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; a no-op when `buf` is null (tracing off).
class Scope {
 public:
  Scope(Tracer::Buffer* buf, const char* name, std::uint64_t id = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::Buffer* buf_;
  std::int32_t index_ = -1;
};

// ---- statistics --------------------------------------------------------------

// Nearest-rank percentile (p in 0..100) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// ---- the result ----------------------------------------------------------------

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;
  // Failed correctness checks; any entry makes the run incorrect.
  std::vector<std::string> violations;
  // Free-form accounting printed before the result line.
  std::map<std::string, double> accounting;
  // 1 - (traced throughput / untraced throughput), traced runs only.
  double tracing_overhead = -1.0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

// ---- cross-run expectations ------------------------------------------------------

// Deterministic outputs (fingerprints, digests, counts) of one
// (workload, size, seed, source digest), stored in the state directory by
// the first run that sees them. Every later run of the same inputs on the
// same sources must reproduce them; a change to the program starts afresh.
class Expectations {
 public:
  Expectations(const Options& opt);
  // Records `value` under `key` when unseen; otherwise checks it matches.
  void expect(Result& result, const std::string& key, const std::string& value);
  // Writes the file back when the run added keys and every check passed.
  void save(const Result& result) const;

 private:
  std::string path_;
  std::map<std::string, std::string> known_;
  bool dirty_ = false;
};

// ---- decision digests ----------------------------------------------------------

std::uint64_t fold(std::uint64_t h, std::string_view s);
std::uint64_t fold(std::uint64_t h, const core::ServiceDecision& d);
std::uint64_t fold(std::uint64_t h, const core::ServiceOpResult& r);
std::string hex(std::uint64_t v);

// ---- host provenance -------------------------------------------------------------

// The {"host": {...}} line: nproc, hardware_concurrency, CPU model, build
// type, compiler, source revision and digest, and the latest measured tracing overhead
// of every workload.
std::string host_json(const Options& opt);

// Remember this workload's tracing overhead for later host blocks.
void save_overhead(const Options& opt, double share);

std::size_t nproc();
std::string json_number(double v);

// Runs one workload and fills `result`.
void run_fleet(const Options& opt, Tracer& tracer, Result& result);
void run_serve(const Options& opt, Tracer& tracer, Result& result);

}  // namespace perfbench
