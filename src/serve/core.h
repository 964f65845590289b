// The serve daemon's session state machine, with no I/O.
//
// SessionCore holds every registered session and decides everything the
// protocol says about them. serve::Server (server.h) is a thin poll()
// shell around it: the shell moves bytes and feeds the core three inputs,
// a connection opened (open), a decoded frame arrived on connection C
// (on_frame) and connection C closed (close). It acts on what comes back:
// reply frames queued on the connection's OutBuffer, WAL lines written to
// the attached sink, "close connection X" when a resume takes X's session,
// and "stop" (Stats::shutdown_frame) after a kShutdown frame. The core
// includes no socket header, owns no fd and reads no clock, so tests drive
// it directly, and WAL replay (--resume) and in-process `spectra replay`
// feed recorded requests through the same begin/end path that live frames
// take.
//
// Sessions survive their connections. One table keyed by sid holds each
// session, attached to a live connection or parked. A closing connection
// parks its session (bounded by max_parked; past it the session parked
// longest ago is evicted), and a later connection re-attaches with
// kResume, continuing at the same (sid, seq). A resume of a session still
// attached to another connection takes it over, and that connection is
// closed. Sessions beyond max_sessions are shed with a retryable
// kOverloaded error.
//
// Begin/end requests are idempotent on their seq key: a re-issued request
// whose reply was lost is answered from the per-session reply cache
// without re-executing or re-recording, which is what makes client-side
// retry safe. An end whose DecisionService::end_op throws still ends the
// op: the reply and the serve.end line carry ok=false, time and energy 0
// and the session's virtual time, the seq advances and the reply is
// cached, so the session goes on at the next seq. Every end reply and line
// carries the daemon's seq.
//
// With a sink attached, every registration, decision and result is written
// as a deterministic JSONL line (serve/record.h) and flushed before its
// reply is queued, so the record is a write-ahead log. Sessions are pure
// functions of (app, scenario, seed, request sequence), so restore() of a
// recorded session rebuilds byte-identical state, cached replies included.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/decision_service.h"
#include "obs/trace.h"
#include "serve/outbuf.h"
#include "serve/protocol.h"
#include "serve/record.h"
#include "serve/server.h"

namespace spectra::serve {

class SessionCore {
  struct Session;

 public:
  // Uses config.max_sessions and config.max_parked.
  SessionCore(const ServeConfig& config, core::ServiceFactory factory);

  // Where lines are recorded; null (the default) renders none. Not owned.
  void set_sink(obs::TraceSink* sink) { sink_ = sink; }
  // Append one line to the sink, if any, and flush it.
  void record(const std::string& line);

  // Rebuild a recorded session through the begin/end path and park it.
  // Throws util::ContractError when an end succeeds where the record says
  // it failed, or the other way round.
  void restore(const ReplaySession& recorded);

  // What the core keeps for one connection; the shell owns one per
  // accepted connection, at a stable address, until it calls close().
  struct Conn {
    std::uint64_t sid = 0;  // offered by hello; the resumed one after kResume
    bool greeted = false;
    Session* session = nullptr;
  };

  // A connection was accepted: it gets the session id hello offers.
  void open(Conn& conn);

  // One frame from `conn`; its reply is queued on `out`. Returns the
  // connection whose session a resume took, which the shell is to close,
  // or null. After a kShutdown frame stats().shutdown_frame is set. Throws
  // ProtocolError when the frame violates the protocol: the shell answers
  // that as it answers bad framing, and closes the connection.
  Conn* on_frame(Conn& conn, const Frame& frame, OutBuffer& out);

  // `conn` is gone; its session is parked.
  void close(Conn& conn);

  Server::Stats& stats() { return stats_; }

 private:
  // `conn` is the connection the session is attached to, null while parked.
  struct Session {
    std::uint64_t sid = 0;
    std::string op;  // the registered operation
    std::unique_ptr<core::DecisionService> service;
    Conn* conn = nullptr;
    std::uint64_t seq_begun = 0;
    std::uint64_t seq_completed = 0;
    std::string begin_reply;  // encoded kBeginOk for seq_begun
    std::string end_reply;    // encoded kEndOk for seq_completed
    bool end_ok = true;       // the outcome end_reply carries
  };

  Conn* dispatch(Conn& c, const Frame& frame, OutBuffer& out);
  Session& create(std::uint64_t sid, const std::string& app,
                  const std::string& scenario, std::uint64_t seed);
  // The one begin and end path; the reply is left in the session's cache.
  // end() returns false when it answered from that cache.
  void begin(Session& s, std::uint64_t requested,
             const core::ServiceBeginRequest& request);
  bool end(Session& s, std::uint64_t requested);

  std::size_t max_sessions_;
  std::size_t max_parked_;
  core::ServiceFactory factory_;
  obs::TraceSink* sink_ = nullptr;
  Server::Stats stats_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::deque<std::uint64_t> park_order_;  // FIFO eviction past max_parked
  std::size_t parked_ = 0;                // sessions with no connection
  std::size_t active_ = 0;                // sessions attached to a connection
  std::uint64_t next_sid_ = 0;
};

}  // namespace spectra::serve
