// The spectra serve daemon's I/O shell: a single-threaded, non-blocking
// socket server around the session state machine in serve/core.h.
//
// One poll() loop multiplexes the listening socket, every client
// connection, and the process shutdown pipe (util::shutdown_fd). Each
// connection owns a FrameReader accumulating partial reads and an
// OutBuffer drained on POLLOUT (partial writes resume where they left
// off). Complete frames go to the SessionCore, which queues the replies
// and holds every session; no thread is ever blocked on a slow client.
//
// The shell protects the daemon from misbehaving peers:
//   * idle deadline — a connection that sends nothing for idle_timeout_s
//     is closed (a stalled reader cannot hold a slot forever);
//   * half-frame deadline — a frame whose header arrived but whose bytes
//     stall for frame_timeout_s is treated as a slowloris and closed;
//   * bounded outbuf — a consumer whose undelivered replies exceed
//     max_outbuf_bytes is disconnected instead of ballooning memory;
//   * connection shedding — connections beyond max_connections are
//     refused with a retryable in-band kOverloaded error rather than
//     silently dropped (sessions beyond max_sessions: see serve/core.h).
// Every shed, timeout, and forced close increments Stats and, when a
// record log is open, appends a lifecycle trace line.
//
// Shutdown is cooperative and responsive from three directions:
//   * a kShutdown frame from any client (acknowledged, then drained),
//   * SIGINT/SIGTERM via the self-pipe (util::install_signal_handlers),
//   * request_stop() from a controlling thread (tests).
// All three end the loop the same way: stop accepting, flush pending
// replies briefly, close everything, and return — so sinks flush through
// normal unwind. Replies still undelivered when the drain window closes
// are counted into Stats (dropped_frames/dropped_bytes) and recorded.
//
// When `record_path` is set, the shell opens it as the core's write-ahead
// log (serve/record.h has the line format). A daemon killed outright can
// be restarted with `resume_path` pointing at the same file: the core
// replays every recorded session before the shell accepts traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/decision_service.h"

namespace spectra::serve {

struct ServeConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;       // 0 = ephemeral; bind() returns the choice
  std::string record_path;      // empty = no operation-trace record
  // Replay this write-ahead log into parked sessions before accepting
  // traffic. May equal record_path, in which case the log is continued
  // in place (opened append, partial tail truncated).
  std::string resume_path;
  std::size_t max_connections = 256;
  std::size_t max_sessions = 256;   // registered sessions on live connections
  std::size_t max_parked = 256;     // disconnected sessions kept resumable
  double idle_timeout_s = 30.0;     // no bytes read for this long → close (0 = off)
  double frame_timeout_s = 5.0;     // half-read frame stalled → close (0 = off)
  std::size_t max_outbuf_bytes = 4u << 20;  // undelivered replies cap (0 = off)
  // Test hooks: cap bytes moved per syscall to force partial reads/writes
  // through the state machines (0 = unlimited).
  std::size_t max_read_chunk = 0;
  std::size_t max_write_chunk = 0;
};

class Server {
 public:
  Server(ServeConfig config, core::ServiceFactory factory);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Create, bind, and listen on the configured address; replay
  // resume_path (when set) into parked sessions. Returns the bound port
  // (the kernel's pick when config.port == 0). Throws util::ContractError
  // on socket errors or an unparseable resume log.
  std::uint16_t bind();

  struct Stats {
    std::uint64_t connections = 0;  // total accepted
    std::uint64_t ops = 0;          // completed operations
    bool shutdown_frame = false;    // a client asked us to stop
    // Self-protection counters; each increment has a matching lifecycle
    // trace line when a record log is open.
    std::uint64_t sheds = 0;             // overload refusals (conn + session)
    std::uint64_t idle_timeouts = 0;     // closes for silence
    std::uint64_t frame_timeouts = 0;    // closes for a stalled half-frame
    std::uint64_t slow_consumer_closes = 0;  // closes for outbuf overflow
    std::uint64_t protocol_errors = 0;   // framing violations (conn dropped)
    // Shutdown-drain data loss (satellite: observable, not silent).
    std::uint64_t dropped_frames = 0;
    std::uint64_t dropped_bytes = 0;
    // Recovery counters.
    std::uint64_t parked = 0;            // sessions parked at disconnect
    std::uint64_t resumed = 0;           // kResume re-attachments served
    std::uint64_t replayed_cached = 0;   // idempotent replies from cache
    std::uint64_t wal_sessions = 0;      // sessions rebuilt from resume_path
    std::uint64_t wal_ops = 0;           // operations replayed from the WAL
    std::uint64_t wal_truncated_bytes = 0;  // partial tail cut from the WAL

    // The exit-time views, rendered from one field list (server.cpp): the
    // --stats-json object, and the ledger lines, each after `prefix`.
    std::string to_json() const;
    std::string ledger(const std::string& prefix) const;
  };

  // The poll loop; blocks until shutdown. bind() must have been called.
  Stats run();

  // Counters so far. Valid between bind() and run() (WAL recovery
  // counters) and after run() returns; not thread-safe against a
  // concurrently running loop.
  const Stats& stats() const;

  // Thread-safe: wake the loop and make it wind down (same path as a
  // kShutdown frame). Usable from another thread while run() is blocked.
  void request_stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace spectra::serve
