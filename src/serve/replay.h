// Replay a recorded daemon session and check decision identity.
//
// `spectra replay <record>` re-issues every recorded request — per
// session, in sequence order — and re-renders the record lines from the
// replies it gets back. Because sessions are a pure function of (app,
// scenario, seed, request sequence), the re-rendered record must match the
// original byte-for-byte in canonical form (serve/record.h); any
// divergence is a determinism regression in the decision path.
//
// Two execution modes:
//   * in-process (port < 0): requests run through a SessionCore over
//     sessions built by the supplied factory (the path --resume takes) —
//     no sockets, used by the golden test and the default CLI path;
//   * against a live daemon (port >= 0): requests go over the wire; the
//     replies carry enough (virtual times, decisions, results) to render
//     identical lines client-side. Session ids are taken from the record,
//     so replay does not depend on the daemon's accept order.
#pragma once

#include <cstdint>
#include <string>

#include "core/decision_service.h"

namespace spectra::serve {

struct ReplayConfig {
  std::string record_path;
  std::string host = "127.0.0.1";
  int port = -1;  // < 0 = in-process replay via the factory
};

struct ReplayResult {
  bool identical = false;
  std::uint64_t sessions = 0;
  std::uint64_t ops = 0;
  // First divergence in canonical line order (1-based; 0 when identical).
  std::size_t mismatch_line = 0;
  std::string expected_line;
  std::string actual_line;
};

// Throws util::ContractError on unreadable or malformed records, and in
// process when an end's outcome (ok or failed) does not reproduce.
// `factory` is only used for in-process replay.
ReplayResult run_replay(const ReplayConfig& config,
                        const core::ServiceFactory& factory);

}  // namespace spectra::serve
