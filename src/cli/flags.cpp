#include "cli/flags.h"

namespace spectra::cli {
namespace {

constexpr std::size_t kWidth = 79;

// Options several commands share.
const Flag kSeed{"seed", "N"};
const Flag kJobs{"jobs", "N"};
const Flag kFaultPlan{"fault-plan", "FILE"};
const Flag kHealth{"health", "on|off"};
const Flag kFailover{"failover", "resolve|ladder"};
const Flag kJson{"json", "FILE"};
const Flag kTrace{"trace", "FILE"};
const Flag kMetrics{"metrics", "FILE"};

// Accepted by every command.
const FlagList kGlobal = {{"verbose", ""}};

// The declaration of `name` in `list` or kGlobal, or nullptr.
const Flag* declared(const FlagList& list, const std::string& name) {
  for (const FlagList* l : {&list, &kGlobal}) {
    for (const Flag& f : *l) {
      if (f.name == name) return &f;
    }
  }
  return nullptr;
}

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"speech", "",
       {{"scenario", "S"}, {"utterance", "SECS"}, {"trials", "N"}, kSeed,
        kJobs, kFaultPlan, kHealth, kFailover, kTrace, kMetrics}},
      {"latex", "",
       {{"scenario", "S"}, {"doc", "small|large"}, {"trials", "N"}, kSeed,
        kJobs, kFaultPlan, kHealth, kFailover, kTrace, kMetrics}},
      {"pangloss", "",
       {{"scenario", "S"}, {"words", "N"}, {"trials", "N"}, kSeed, kJobs,
        kFaultPlan, kHealth, kFailover, kTrace, kMetrics}},
      {"overhead", "", {{"servers", "N"}, {"runs", "N"}, kTrace, kMetrics}},
      {"chaos", "",
       {{"app", "speech|latex|pangloss|all"}, {"plans", "N"}, {"ops", "N"},
        kSeed, {"intensity", "X"}, {"horizon", "SECS"}, kJobs,
        {"no-replay", ""}, kJson, kTrace, kMetrics}},
      {"explain", "(speech|latex|pangloss)",
       {{"scenario", "S"}, {"utterance", "SECS"}, {"doc", "small|large"},
        {"words", "N"}, kSeed, kTrace, kMetrics}},
      {"fleet", "",
       {{"clients", "N"}, {"servers", "N"}, kSeed, {"horizon", "SECS"},
        {"policy", "fifo|wfq"}, {"queue-bound", "N"}, {"slots", "N"},
        {"islands", "N"}, {"lookahead", "SECS"}, {"workload", "mixed|speech"},
        kJobs, kFaultPlan, kJson, kTrace, kMetrics}},
      {"faults", "", {{"plan", "FILE", true}}},
      {"serve", "",
       {{"port", "N"}, {"host", "ADDR"}, {"record", "FILE"},
        {"resume", "FILE"}, {"max-conns", "N"}, {"max-sessions", "N"},
        {"idle-timeout", "SECS"}, {"frame-timeout", "SECS"},
        {"stats-json", "FILE"}}},
      {"replay", "<record>", {{"host", "ADDR"}, {"port", "N"}}},
      {"loadgen", "",
       {{"port", "N", true}, {"host", "ADDR"}, {"clients", "N"}, {"ops", "N"},
        {"app", "nullop|speech|latex|pangloss"}, {"scenario", "S"}, kSeed,
        {"chaos", "X"}, {"chaos-seed", "N"}, {"resilient", ""}, kJson}},
      {"scenarios", "", {}},
      {"help", "", {}},
  };
  return table;
}

const FlagList* allowed_flags(const std::string& command) {
  for (const Command& c : commands()) {
    if (c.name == command) return &c.flags;
  }
  return nullptr;
}

std::optional<std::string> unknown_flag(const std::string& command,
                                        const Args& args) {
  const FlagList* allowed = allowed_flags(command);
  if (allowed == nullptr) return std::nullopt;
  return unknown_flag(*allowed, args);
}

std::optional<std::string> unknown_flag(const FlagList& allowed,
                                        const Args& args) {
  for (const std::string& name : args.given()) {
    if (!declared(allowed, name)) return name;
  }
  return std::nullopt;
}

std::optional<std::string> misused_flag(const std::string& command,
                                        const Args& args) {
  const FlagList* allowed = allowed_flags(command);
  if (allowed == nullptr) return std::nullopt;
  return misused_flag(*allowed, args);
}

std::optional<std::string> misused_flag(const FlagList& allowed,
                                        const Args& args) {
  for (const std::string& name : args.given()) {
    const Flag* f = declared(allowed, name);
    if (f == nullptr) continue;
    if (f->hint.empty() && args.option(name)) {
      return "option --" + name + " takes no value";
    }
    if (!f->hint.empty() && args.has_flag(name)) {
      return "option --" + name + " needs a value: --" + name + "=" + f->hint;
    }
  }
  return std::nullopt;
}

std::string synopsis(const std::string& program, const std::string& operand,
                     const FlagList& flags, std::size_t pad) {
  std::vector<std::string> words;
  if (!operand.empty()) words.push_back(operand);
  for (const Flag& f : flags) {
    const std::string w = "--" + f.name + (f.hint.empty() ? "" : "=" + f.hint);
    words.push_back(f.required ? w : "[" + w + "]");
  }
  std::string line = program;
  if (line.size() < pad && !words.empty()) line.resize(pad, ' ');
  const std::size_t indent = line.size();
  std::string out;
  for (const std::string& w : words) {
    if (line.size() + 1 + w.size() > kWidth && line.size() > indent) {
      out += line + "\n";
      line.assign(indent, ' ');
    }
    line += " " + w;
  }
  return out + line;
}

std::string usage_synopsis() {
  std::string out;
  for (const Command& c : commands()) {
    out += synopsis("  spectra " + c.name, c.operand, c.flags, 18) + "\n";
  }
  return out;
}

}  // namespace spectra::cli
