#include <gtest/gtest.h>

#include "cli/args.h"
#include "cli/flags.h"
#include "exec/thread_pool.h"
#include "util/assert.h"
#include "util/log.h"

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

namespace spectra::cli {
namespace {

TEST(ArgsTest, ParsesCommandPositionalsOptionsFlags) {
  const auto args = Args::parse(
      {"explain", "speech", "--scenario=energy", "--verbose",
       "--trials=5"});
  EXPECT_EQ(args.command(), "explain");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "speech");
  EXPECT_EQ(args.get("scenario", "baseline"), "energy");
  EXPECT_TRUE(args.has_flag("verbose"));
  EXPECT_EQ(args.get_int("trials", 1), 5);
}

TEST(ArgsTest, EmptyArgvGivesEmptyCommand) {
  const auto args = Args::parse(std::vector<std::string>{});
  EXPECT_TRUE(args.command().empty());
  EXPECT_TRUE(args.positionals().empty());
}

TEST(ArgsTest, DefaultsWhenAbsent) {
  const auto args = Args::parse({"speech"});
  EXPECT_EQ(args.get("scenario", "baseline"), "baseline");
  EXPECT_EQ(args.get_int("trials", 3), 3);
  EXPECT_DOUBLE_EQ(args.get_double("utterance", 2.0), 2.0);
  EXPECT_FALSE(args.has_flag("verbose"));
}

TEST(ArgsTest, TypedAccessorsValidate) {
  const auto args = Args::parse({"x", "--n=abc", "--f=1.5"});
  EXPECT_THROW(args.get_int("n", 0), util::ContractError);
  EXPECT_DOUBLE_EQ(args.get_double("f", 0.0), 1.5);
  EXPECT_THROW(args.get_double("n", 0.0), util::ContractError);
}

TEST(ArgsTest, CountsRejectNegativeZeroAndOversized) {
  // Regression: --clients=-1 etc. used to wrap to ~2^64 through a size_t
  // cast before any >= 1 check could fire.
  const auto args = Args::parse(
      {"loadgen", "--clients=-1", "--ops=0", "--max-conns=100000"});
  EXPECT_THROW(args.get_count("clients", 8, 4096), util::ContractError);
  EXPECT_THROW(args.get_count("ops", 16, 1'000'000), util::ContractError);
  EXPECT_THROW(args.get_count("max-conns", 256, 65536), util::ContractError);
  EXPECT_EQ(args.get_count("absent", 8, 4096), 8u);     // default passes
  EXPECT_EQ(args.get_count("max-conns", 1, 100000), 100000u);  // at cap

  // A lower bound of 0 admits zero ("auto"/"none") but still no negatives.
  const auto fleet = Args::parse(
      {"fleet", "--islands=0", "--queue-bound=-1", "--slots=0"});
  EXPECT_EQ(fleet.get_count("islands", 0, 4096, 0), 0u);
  EXPECT_THROW(fleet.get_count("slots", 4, 4096), util::ContractError);
  try {
    fleet.get_count("queue-bound", 64, 1'000'000, 0);
    ADD_FAILURE() << "--queue-bound=-1 accepted";
  } catch (const util::ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--queue-bound must be in [0, "),
              std::string::npos)
        << e.what();
  }
}

TEST(ArgsTest, JobsArgValidatesTheFlag) {
  EXPECT_EQ(jobs_arg(Args::parse({"speech", "--jobs=3"})), 3u);
  EXPECT_EQ(jobs_arg(Args::parse({"speech", "--jobs=0"})),
            exec::ThreadPool::hardware_concurrency());
  EXPECT_THROW(jobs_arg(Args::parse({"speech", "--jobs=abc"})),
               util::ContractError);
  EXPECT_THROW(jobs_arg(Args::parse({"speech", "--jobs=-1"})),
               util::ContractError);
  EXPECT_THROW(jobs_arg(Args::parse({"speech", "--jobs=1025"})),
               util::ContractError);

  // SPECTRA_JOBS is the fallback, checked the same way; the flag wins.
  const char* saved = std::getenv("SPECTRA_JOBS");
  const std::string restore = saved != nullptr ? saved : "";
  const auto none = Args::parse({"speech"});
  ::setenv("SPECTRA_JOBS", "6", 1);
  EXPECT_EQ(jobs_arg(none), 6u);
  EXPECT_EQ(jobs_arg(Args::parse({"speech", "--jobs=2"})), 2u);
  for (const char* bad : {"abc", "-5", "4x", "100000"}) {
    ::setenv("SPECTRA_JOBS", bad, 1);
    EXPECT_THROW(jobs_arg(none), util::ContractError) << bad;
  }
  ::setenv("SPECTRA_JOBS", "", 1);
  EXPECT_EQ(jobs_arg(none), 1u);
  ::unsetenv("SPECTRA_JOBS");
  EXPECT_EQ(jobs_arg(none), 1u);
  if (saved != nullptr) ::setenv("SPECTRA_JOBS", restore.c_str(), 1);
}

TEST(ArgsTest, MalformedOptionsRejected) {
  EXPECT_THROW(Args::parse({"cmd", "--"}), util::ContractError);
  EXPECT_THROW(Args::parse({"cmd", "--=v"}), util::ContractError);
}

TEST(ArgsTest, EmptyOptionValueAllowed) {
  const auto args = Args::parse({"cmd", "--key="});
  EXPECT_EQ(args.get("key", "def"), "");
}

TEST(ArgsTest, GivenListsEverything) {
  const auto args = Args::parse({"cmd", "--a=1", "--b"});
  const auto names = args.given();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(names.count("a"));
  EXPECT_TRUE(names.count("b"));
}

TEST(ArgsTest, LastOptionWins) {
  const auto args = Args::parse({"cmd", "--k=1", "--k=2"});
  EXPECT_EQ(args.get("k", ""), "2");
}

// ---------------------------------------------------------- flag validation

TEST(FlagsTest, EveryCommandDeclaresItsFlags) {
  for (const char* cmd :
       {"speech", "latex", "pangloss", "overhead", "explain", "chaos",
        "fleet", "faults", "scenarios", "serve", "replay", "loadgen",
        "help"}) {
    EXPECT_NE(allowed_flags(cmd), nullptr) << cmd;
  }
  EXPECT_EQ(allowed_flags("no-such-command"), nullptr);
}

TEST(FlagsTest, MisspelledOptionDetected) {
  // The historical failure mode: `--polcy=wfq` silently ran the default
  // policy. It must now be caught before any work starts.
  const auto args = Args::parse({"fleet", "--clients=4", "--polcy=wfq"});
  const auto bad = unknown_flag("fleet", args);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, "polcy");
}

TEST(FlagsTest, ValidOptionsAccepted) {
  const auto args =
      Args::parse({"speech", "--scenario=energy", "--trials=2", "--verbose"});
  EXPECT_FALSE(unknown_flag("speech", args).has_value());
}

TEST(FlagsTest, UnknownCommandIsNotAFlagError) {
  // Unknown commands are reported separately by the driver; the flag
  // validator stays quiet so the message names the command, not a flag.
  const auto args = Args::parse({"bogus", "--whatever=1"});
  EXPECT_FALSE(unknown_flag("bogus", args).has_value());
}

TEST(FlagsTest, VerboseIsAcceptedByEveryCommand) {
  for (const Command& c : commands()) {
    const auto args = Args::parse({c.name, "--verbose"});
    EXPECT_FALSE(unknown_flag(c.name, args).has_value()) << c.name;
  }
}

TEST(FlagsTest, FaultPlanAliasRemovedFromFaults) {
  EXPECT_FALSE(unknown_flag("faults", Args::parse({"faults", "--plan=p"})));
  const auto bad =
      unknown_flag("faults", Args::parse({"faults", "--fault-plan=p"}));
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, "fault-plan");
}

TEST(FlagsTest, StandaloneListChecksOnlyItsOwnFlags) {
  const FlagList tool = {{"json", "FILE"}, {"reps", "N"}};
  EXPECT_FALSE(unknown_flag(tool, Args::parse({"--reps=3", "--verbose"})));
  const auto bad = unknown_flag(tool, Args::parse({"--decison=5"}));
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, "decison");
}

TEST(FlagsTest, ValueFormFollowsTheHint) {
  // An option with a value hint needs =VALUE; `--json` alone used to be
  // taken as a switch and the report silently not written.
  const auto bare = misused_flag(
      "fleet", Args::parse({"fleet", "--clients=64", "--json"}));
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(*bare, "option --json needs a value: --json=FILE");
  // A switch takes no value.
  const auto valued =
      misused_flag("chaos", Args::parse({"chaos", "--no-replay=1"}));
  ASSERT_TRUE(valued.has_value());
  EXPECT_EQ(*valued, "option --no-replay takes no value");
  EXPECT_TRUE(misused_flag("speech", Args::parse({"speech", "--verbose=2"})));
  // Right forms, an empty value, and undeclared names pass this check.
  EXPECT_FALSE(misused_flag(
      "chaos", Args::parse({"chaos", "--no-replay", "--json=r.json"})));
  EXPECT_FALSE(misused_flag("fleet", Args::parse({"fleet", "--json="})));
  EXPECT_FALSE(misused_flag("fleet", Args::parse({"fleet", "--polcy"})));
  EXPECT_FALSE(misused_flag("bogus", Args::parse({"bogus", "--x"})));
}

TEST(FlagsTest, EveryDeclaredFormIsAccepted) {
  for (const Command& c : commands()) {
    std::vector<std::string> tokens = {c.name};
    for (const Flag& f : c.flags) {
      tokens.push_back("--" + f.name + (f.hint.empty() ? "" : "=1"));
    }
    const auto args = Args::parse(tokens);
    EXPECT_FALSE(unknown_flag(c.name, args)) << c.name;
    EXPECT_FALSE(misused_flag(c.name, args)) << c.name;
  }
  const FlagList tool = {{"json", "FILE"}, {"jobs", "N"}};
  EXPECT_FALSE(misused_flag(tool, Args::parse({"--jobs=2", "--json=x"})));
  EXPECT_TRUE(misused_flag(tool, Args::parse({"--jobs"})));
}

// Option names per command, read back from the rendered usage synopsis.
std::map<std::string, std::set<std::string>> synopsis_flags() {
  std::map<std::string, std::set<std::string>> out;
  std::istringstream in(usage_synopsis());
  std::string line, current;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string w;
    words >> w;
    if (w == "spectra") {
      words >> current;
      out[current];  // commands without options still get an entry
    }
    for (std::size_t at = line.find("--"); at != std::string::npos;
         at = line.find("--", at + 2)) {
      const std::size_t end = line.find_first_of("=] ", at);
      out[current].insert(line.substr(at + 2, end - at - 2));
    }
  }
  return out;
}

TEST(FlagsTest, SynopsisListsExactlyTheAcceptedFlags) {
  const auto printed = synopsis_flags();
  ASSERT_EQ(printed.size(), commands().size());
  for (const Command& c : commands()) {
    std::set<std::string> accepted;
    for (const Flag& f : *allowed_flags(c.name)) accepted.insert(f.name);
    ASSERT_TRUE(printed.count(c.name)) << c.name;
    EXPECT_EQ(printed.at(c.name), accepted) << c.name;
  }
  EXPECT_TRUE(printed.at("overhead").count("trace"));
}

TEST(FlagsTest, SynopsisWrapsBeforeEightyColumns) {
  std::istringstream in(usage_synopsis());
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_LE(line.size(), 79u) << line;
    EXPECT_NE(line.back(), ' ') << line;
  }
  EXPECT_EQ(synopsis("tool", "<in>", {{"out", "FILE", true}, {"quiet", ""}}),
            "tool <in> --out=FILE [--quiet]");
}

TEST(FlagsTest, FirstUnknownAlphabetically) {
  const auto args = Args::parse({"serve", "--zzz", "--aaa=1", "--port=9"});
  const auto bad = unknown_flag("serve", args);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, "aaa");
}

// ------------------------------------------------------------------ logger

TEST(LoggerTest, LevelsGateOutput) {
  auto& logger = util::Logger::instance();
  std::ostringstream sink;
  logger.set_sink(&sink);
  const auto old = logger.level();
  logger.set_level(util::LogLevel::kWarn);
  SPECTRA_LOG_INFO("test") << "hidden";
  SPECTRA_LOG_WARN("test") << "visible";
  logger.set_level(old);
  logger.set_sink(nullptr);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible"), std::string::npos);
  EXPECT_NE(sink.str().find("[spectra:test WARN]"), std::string::npos);
}

TEST(LoggerTest, ParseLevel) {
  EXPECT_EQ(util::Logger::parse_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::Logger::parse_level("off"), util::LogLevel::kOff);
  EXPECT_EQ(util::Logger::parse_level("nonsense"), util::LogLevel::kWarn);
}

TEST(LoggerTest, StreamingFormatsArbitraryTypes) {
  auto& logger = util::Logger::instance();
  std::ostringstream sink;
  logger.set_sink(&sink);
  const auto old = logger.level();
  logger.set_level(util::LogLevel::kDebug);
  SPECTRA_LOG_DEBUG("fmt") << "x=" << 42 << " y=" << 1.5;
  logger.set_level(old);
  logger.set_sink(nullptr);
  EXPECT_NE(sink.str().find("x=42 y=1.5"), std::string::npos);
}

}  // namespace
}  // namespace spectra::cli
