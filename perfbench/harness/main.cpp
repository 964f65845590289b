// perfbench: the repository benchmark harness.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--size=full|tiny] [--state-dir=DIR] [--revision=STR]
//             [--source=DIGEST]
//
// Workloads: fleet_wide_pool, fleet_narrow_pool, serve_nullop, serve_apps.
// Prints a {"host": ...} provenance line and an {"accounting": ...} line,
// then, only when every correctness check passed, the result line
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// With --trace=0 the metrics are the end-to-end ones; with --trace=1 the
// per-layer ones, and the spans are written to DIR/trace-NAME.jsonl.
// A failed check prints the violations on stderr and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

using namespace perfbench;  // NOLINT

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--size=full|tiny] [--state-dir=DIR] "
               "[--revision=STR] [--source=DIGEST]\n";
  return 2;
}

bool take(const std::string& arg, const char* name, std::string& out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.spectra_bin = PERFBENCH_SPECTRA_BIN;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      std::string v;
      if (take(a, "workload", v)) {
        opt.workload = v;
      } else if (take(a, "seed", v)) {
        opt.seed = std::stoull(v);
      } else if (take(a, "seconds", v)) {
        opt.seconds = std::stod(v);
      } else if (take(a, "trace", v)) {
        if (v != "0" && v != "1") return usage();
        opt.trace = v == "1";
      } else if (take(a, "size", v)) {
        if (v != "full" && v != "tiny") return usage();
        opt.size = v;
      } else if (take(a, "state-dir", v)) {
        opt.state_dir = v;
      } else if (take(a, "revision", v)) {
        opt.revision = v;
      } else if (take(a, "source", v)) {
        opt.source = v;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const bool fleet =
      opt.workload == "fleet_wide_pool" || opt.workload == "fleet_narrow_pool";
  const bool serve =
      opt.workload == "serve_nullop" || opt.workload == "serve_apps";
  if ((!fleet && !serve) || !(opt.seconds > 0.0)) return usage();

  std::cout << host_json(opt) << std::endl;
  Tracer tracer;
  Result result;
  try {
    if (fleet) {
      run_fleet(opt, tracer, result);
    } else {
      run_serve(opt, tracer, result);
    }
  } catch (const std::exception& e) {
    result.violations.push_back(std::string("aborted: ") + e.what());
  }
  if (opt.trace) {
    std::filesystem::create_directories(opt.state_dir);
    tracer.write(opt.state_dir + "/trace-" + opt.workload + ".jsonl");
    if (result.violations.empty()) {
      save_overhead(opt, result.tracing_overhead);
      result.set("trace.overhead_share", result.tracing_overhead, "ratio");
    }
  }

  std::cout << "{\"accounting\":{";
  bool first = true;
  for (const auto& [k, v] : result.accounting) {
    std::cout << (first ? "" : ",") << "\"" << k << "\":" << json_number(v);
    first = false;
  }
  std::cout << "}}" << std::endl;

  if (!result.violations.empty() || result.attempted == 0) {
    for (const std::string& v : result.violations) {
      std::cerr << "perfbench: check failed: " << v << "\n";
    }
    if (result.attempted == 0) std::cerr << "perfbench: nothing attempted\n";
    return 1;
  }
  std::cout << "{\"correct\":true,\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  first = true;
  for (const auto& [name, m] : result.metrics) {
    std::cout << (first ? "" : ",") << "\"" << name
              << "\":{\"value\":" << json_number(m.first) << ",\"unit\":\""
              << m.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
