// Per-command flag declarations for the spectra CLI.
//
// Historically the CLI looked options up by name and silently ignored
// anything else, so `spectra fleet --polcy=wfq` ran a default-policy fleet
// without a word. Every command now declares its accepted options once,
// here, with a value hint per option. `spectra` rejects the first unknown
// one with usage and a non-zero exit before any work starts, and the usage
// synopsis is rendered from the same declaration, so the two cannot drift.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cli/args.h"

namespace spectra::cli {

struct Flag {
  std::string name;
  // Value placeholder shown in the synopsis ("N", "FILE", "fifo|wfq");
  // empty for a switch (--no-replay).
  std::string hint;
  // Printed without brackets; the command itself enforces presence.
  bool required = false;
};

using FlagList = std::vector<Flag>;

struct Command {
  std::string name;
  std::string operand;  // positional part of the synopsis, e.g. "<record>"
  FlagList flags;       // command-specific; --verbose is global
};

// Every spectra command, in the order the usage text lists them.
const std::vector<Command>& commands();

// The options `command` declares (global --verbose excluded), or nullptr
// for an unknown command (main.cpp reports those separately).
const FlagList* allowed_flags(const std::string& command);

// The first (alphabetically) option/flag in `args` that `command` does not
// accept; nullopt when all are valid or the command itself is unknown.
std::optional<std::string> unknown_flag(const std::string& command,
                                        const Args& args);

// The same check against a standalone tool's own list.
std::optional<std::string> unknown_flag(const FlagList& allowed,
                                        const Args& args);

// The first (alphabetically) declared option in `args` given in the wrong
// form, as a message: an option with a value hint needs --name=VALUE, and
// a switch takes no value. nullopt when every form is right or the command
// is unknown; undeclared options are unknown_flag's to report.
std::optional<std::string> misused_flag(const std::string& command,
                                        const Args& args);
std::optional<std::string> misused_flag(const FlagList& allowed,
                                        const Args& args);

// "<program> [operand] [--name=HINT] ...", wrapped before 80 columns with
// continuation lines aligned under the first option. `program` is padded
// to `pad` columns so a block of entries lines up.
std::string synopsis(const std::string& program, const std::string& operand,
                     const FlagList& flags, std::size_t pad = 0);

// One synopsis entry per command, each line indented two spaces.
std::string usage_synopsis();

}  // namespace spectra::cli
