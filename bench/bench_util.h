// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/flags.h"
#include "scenario/batch.h"
#include "util/assert.h"
#include "util/stats.h"
#include "util/table.h"

namespace spectra::bench {

struct Options {
  cli::Args args;
  // Worker count (cli::jobs_arg): --jobs=N, else SPECTRA_JOBS, else 1; 0
  // means one worker per hardware thread. Table output is bit-identical
  // for any N — runs are scheduled across workers but aggregated in a
  // fixed order.
  std::size_t jobs = 1;
};

// Parse a bench's command line: --jobs=N plus the bench's own `flags`. A
// stray argument, an unknown option or one in the wrong form prints usage
// and exits 2; a malformed or out-of-range --jobs exits 1.
inline Options parse_options(int argc, char** argv, cli::FlagList flags = {}) {
  flags.push_back({"jobs", "N"});
  std::string program = argv[0];
  program.erase(0, program.find_last_of('/') + 1);
  const auto usage = [&](const std::string& why) {
    std::cerr << program << ": " << why << "\n"
              << cli::synopsis("usage: " + program, "", flags) << "\n";
    std::exit(2);
  };
  Options out;
  try {
    out.args = cli::Args::parse(argc, argv);
  } catch (const util::ContractError& err) {
    usage(err.what());
  }
  if (!out.args.command().empty()) {
    usage("unexpected argument: " + out.args.command());
  }
  if (const auto bad = cli::unknown_flag(flags, out.args)) {
    usage("unknown option --" + *bad);
  }
  if (const auto bad = cli::misused_flag(flags, out.args)) usage(*bad);
  try {
    out.jobs = cli::jobs_arg(out.args);
  } catch (const util::ContractError& err) {
    std::cerr << program << ": " << err.what() << "\n";
    std::exit(1);
  }
  return out;
}

// parse_options for a bench whose only option is --jobs.
inline std::size_t jobs_from_args(int argc, char** argv) {
  return parse_options(argc, argv).jobs;
}

// Number of trials per data point (the paper uses 5 with 90% confidence
// intervals). Override with SPECTRA_TRIALS for quick runs.
inline int trial_count() {
  if (const char* env = std::getenv("SPECTRA_TRIALS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}

// Seed of a bench's first trial (scenario::trial_seed gives the rest).
constexpr std::uint64_t kFirstSeed = 1000;

inline std::vector<std::uint64_t> trial_seeds() {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < trial_count(); ++i) {
    seeds.push_back(scenario::trial_seed(kFirstSeed, i));
  }
  return seeds;
}

}  // namespace spectra::bench
