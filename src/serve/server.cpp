#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <list>
#include <optional>
#include <sstream>
#include <vector>

#include "obs/trace.h"
#include "serve/core.h"
#include "serve/outbuf.h"
#include "serve/protocol.h"
#include "serve/record.h"
#include "util/assert.h"
#include "util/shutdown.h"

namespace spectra::serve {
namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SPECTRA_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl(O_NONBLOCK) failed: " +
                      std::string(std::strerror(errno)));
}

// One client connection's transport state, and what the core keeps for it
// (left unopened, sid 0, for a connection shed at accept).
struct Connection {
  int fd = -1;
  SessionCore::Conn conn;
  bool closing = false;  // close once outbuf drains
  FrameReader reader;
  OutBuffer out;
  Clock::time_point last_activity;  // last byte moved either direction
  // When the pending half-frame began; empty while no frame is partial.
  std::optional<Clock::time_point> partial_since;
};

// Accepts past max_connections get an in-band kOverloaded refusal; only a
// flood this far past the limit is dropped without the courtesy reply.
constexpr std::size_t kShedHeadroom = 64;

}  // namespace

struct Server::Impl {
  ServeConfig config;
  SessionCore core;
  int listen_fd = -1;
  int wake_read = -1;   // request_stop() self-pipe
  int wake_write = -1;
  std::list<Connection> connections;
  std::unique_ptr<obs::TraceSink> record;
  std::atomic<bool> stopping{false};  // request_stop() writes cross-thread

  Impl(ServeConfig c, core::ServiceFactory factory)
      : config(std::move(c)), core(config, std::move(factory)) {}

  ~Impl() {
    for (Connection& c : connections) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  Stats& stats() { return core.stats(); }

  // Count undelivered replies before the socket closes under this
  // connection; shutdown-drain and forced closes both go through here so
  // data loss is observable instead of silent.
  void account_drops(const Connection& c) {
    const std::size_t frames = c.out.pending_frames();
    if (frames == 0) return;
    const std::size_t bytes = c.out.pending_bytes();
    stats().dropped_frames += frames;
    stats().dropped_bytes += bytes;
    core.record(obs::TraceEvent("serve.drop", 0.0)
                    .field("sid", static_cast<std::size_t>(c.conn.sid))
                    .field("frames", frames)
                    .field("bytes", bytes)
                    .to_json());
  }

  // Close and erase one connection; the core parks its session.
  std::list<Connection>::iterator destroy(
      std::list<Connection>::iterator it) {
    account_drops(*it);
    core.close(it->conn);
    ::close(it->fd);
    return connections.erase(it);
  }

  // Returns false when the connection should be torn down immediately.
  bool on_readable(Connection& c) {
    // Only a hangup wakes a shed connection; it has nothing to dispatch to.
    if (c.conn.sid == 0) return false;
    char buf[65536];
    std::size_t cap = sizeof(buf);
    if (config.max_read_chunk > 0 && config.max_read_chunk < cap) {
      cap = config.max_read_chunk;
    }
    const ssize_t n = ::read(c.fd, buf, cap);
    if (n == 0) return false;  // orderly or abrupt disconnect
    if (n < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    c.last_activity = Clock::now();
    try {
      c.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto frame = c.reader.next()) {
        if (SessionCore::Conn* taken = core.on_frame(c.conn, *frame, c.out)) {
          // That connection drains what it has queued, then closes.
          for (Connection& other : connections) {
            if (&other.conn == taken) other.closing = true;
          }
        }
        if (stats().shutdown_frame) stopping = true;
        if (c.closing || stopping) break;
      }
    } catch (const ProtocolError& e) {
      // Malformed framing or a protocol violation in a frame: the byte
      // stream is unrecoverable.
      ++stats().protocol_errors;
      c.out.enqueue(encode_error(ErrorMsg{ErrorCode::kProtocol, e.what()}));
      c.closing = true;
    }
    // Half-frame deadline bookkeeping: remember when the oldest byte of
    // an incomplete frame arrived.
    if (c.reader.pending_bytes() == 0) {
      c.partial_since.reset();
    } else if (!c.partial_since) {
      c.partial_since = c.last_activity;
    }
    // A consumer that lets replies pile past the cap is disconnected:
    // unread replies are its own loss, unbounded memory would be ours.
    if (config.max_outbuf_bytes > 0 &&
        c.out.pending_bytes() > config.max_outbuf_bytes) {
      ++stats().slow_consumer_closes;
      core.record(obs::TraceEvent("serve.close", 0.0)
                      .field("sid", static_cast<std::size_t>(c.conn.sid))
                      .field("reason", "slow_consumer")
                      .field("bytes", c.out.pending_bytes())
                      .to_json());
      return false;
    }
    return true;
  }

  bool on_writable(Connection& c) {
    while (!c.out.drained()) {
      std::size_t len = c.out.pending_bytes();
      if (config.max_write_chunk > 0 && config.max_write_chunk < len) {
        len = config.max_write_chunk;
      }
      // MSG_NOSIGNAL: a client that vanished with unread data (RST) makes
      // this fail with EPIPE instead of raising SIGPIPE and killing the
      // whole daemon; the error path below tears the connection down.
      const ssize_t n = ::send(c.fd, c.out.data(), len, MSG_NOSIGNAL);
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
      if (n > 0) c.last_activity = Clock::now();
      c.out.advance(static_cast<std::size_t>(n));
      if (config.max_write_chunk > 0) break;  // one capped chunk per wakeup
    }
    if (c.out.drained() && c.closing) return false;
    return true;
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN, or transient accept failure
      if (connections.size() >= config.max_connections + kShedHeadroom) {
        // Far past the limit: drop without the courtesy error so a flood
        // cannot make us allocate per-victim state.
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      Connection& c = connections.emplace_back();
      c.fd = fd;
      c.last_activity = Clock::now();
      if (connections.size() <= config.max_connections) {
        core.open(c.conn);
        continue;
      }
      // Shed with an in-band retryable refusal instead of a silent close,
      // so well-behaved clients back off instead of guessing.
      c.closing = true;
      c.out.enqueue(encode_error(
          ErrorMsg{ErrorCode::kOverloaded,
                   "connection limit reached (" +
                       std::to_string(config.max_connections) +
                       "); retry later"}));
      ++stats().sheds;
      core.record(obs::TraceEvent("serve.shed", 0.0)
                      .field("sid", std::size_t{0})
                      .field("scope", "connections")
                      .to_json());
    }
  }

  // Close connections that blew an idle or half-frame deadline.
  void sweep_deadlines() {
    if (config.idle_timeout_s <= 0.0 && config.frame_timeout_s <= 0.0) {
      return;
    }
    const Clock::time_point now = Clock::now();
    for (auto it = connections.begin(); it != connections.end();) {
      Connection& c = *it;
      const double idle_s =
          std::chrono::duration<double>(now - c.last_activity).count();
      const double partial_s =
          c.partial_since
              ? std::chrono::duration<double>(now - *c.partial_since).count()
              : 0.0;
      const bool stalled =
          config.frame_timeout_s > 0.0 && partial_s > config.frame_timeout_s;
      if (stalled ||
          (config.idle_timeout_s > 0.0 && idle_s > config.idle_timeout_s)) {
        ++(stalled ? stats().frame_timeouts : stats().idle_timeouts);
        core.record(obs::TraceEvent("serve.timeout", 0.0)
                        .field("sid", static_cast<std::size_t>(c.conn.sid))
                        .field("kind", stalled ? "frame" : "idle")
                        .field(stalled ? "stalled_s" : "idle_s",
                               stalled ? partial_s : idle_s)
                        .to_json());
        it = destroy(it);
        continue;
      }
      ++it;
    }
  }

  // Rebuild every session recorded in the write-ahead log as a parked
  // session, through the core's own begin/end path.
  void replay_wal() {
    std::string text = read_file(config.resume_path, "resume log");
    // A SIGKILL mid-line leaves a partial tail; parse the intact prefix
    // and cut the file so appended lines glue onto a clean boundary.
    stats().wal_truncated_bytes = strip_partial_tail(text);
    if (stats().wal_truncated_bytes > 0) {
      std::filesystem::resize_file(config.resume_path, text.size());
    }
    for (const ReplaySession& sess : parse_record(text)) core.restore(sess);
  }
};

Server::Server(ServeConfig config, core::ServiceFactory factory)
    : impl_(std::make_unique<Impl>(std::move(config), std::move(factory))) {
  int pipefd[2];
  SPECTRA_REQUIRE(::pipe(pipefd) == 0, "pipe() failed: " +
                                           std::string(std::strerror(errno)));
  impl_->wake_read = pipefd[0];
  impl_->wake_write = pipefd[1];
  set_nonblocking(impl_->wake_read);
  set_nonblocking(impl_->wake_write);
}

Server::~Server() = default;

std::uint16_t Server::bind() {
  Impl& s = *impl_;
  SPECTRA_REQUIRE(s.listen_fd < 0, "bind() called twice");
  s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SPECTRA_REQUIRE(s.listen_fd >= 0, "socket() failed: " +
                                        std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  set_nonblocking(s.listen_fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(s.config.port);
  SPECTRA_REQUIRE(
      ::inet_pton(AF_INET, s.config.host.c_str(), &addr.sin_addr) == 1,
      "bad listen address: " + s.config.host);
  SPECTRA_REQUIRE(::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "bind(" + s.config.host + ":" +
                      std::to_string(s.config.port) +
                      ") failed: " + std::string(std::strerror(errno)));
  SPECTRA_REQUIRE(::listen(s.listen_fd, 128) == 0,
                  "listen() failed: " + std::string(std::strerror(errno)));

  socklen_t len = sizeof(addr);
  SPECTRA_REQUIRE(::getsockname(s.listen_fd,
                                reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                  "getsockname() failed");
  if (!s.config.resume_path.empty()) s.replay_wal();
  if (!s.config.record_path.empty()) {
    // When continuing the log we replayed from, append; a fresh record
    // path truncates as before.
    const bool append = s.config.record_path == s.config.resume_path;
    s.record = obs::TraceSink::open(s.config.record_path, append);
    s.core.set_sink(s.record.get());
  }
  if (!s.config.resume_path.empty()) {
    const Stats& st = s.stats();
    s.core.record(
        obs::TraceEvent("serve.recovered", 0.0)
            .field("sessions", static_cast<std::size_t>(st.wal_sessions))
            .field("ops", static_cast<std::size_t>(st.wal_ops))
            .field("truncated_bytes",
                   static_cast<std::size_t>(st.wal_truncated_bytes))
            .to_json());
  }
  return ntohs(addr.sin_port);
}

Server::Stats Server::run() {
  Impl& s = *impl_;
  SPECTRA_REQUIRE(s.listen_fd >= 0, "run() before bind()");

  // Once stopping, give pending replies a bounded number of flush rounds
  // instead of waiting on slow clients forever.
  int drain_rounds = 0;
  constexpr int kMaxDrainRounds = 20;  // x 50 ms poll timeout = ~1 s

  for (;;) {
    if (util::shutdown_requested()) s.stopping = true;
    if (s.stopping) {
      bool pending = false;
      for (const Connection& c : s.connections) {
        if (!c.out.drained()) pending = true;
      }
      if (!pending || ++drain_rounds > kMaxDrainRounds) break;
    } else {
      s.sweep_deadlines();
    }

    // A connection that finished draining after being marked closing (or
    // was marked with nothing pending, e.g. its session was stolen by a
    // resume) would otherwise poll no events and linger forever.
    for (auto it = s.connections.begin(); it != s.connections.end();) {
      if (it->closing && it->out.drained()) {
        it = s.destroy(it);
      } else {
        ++it;
      }
    }

    // The wake pipe, shutdown self-pipe, and listener matter only until a
    // stop is requested. Once stopping they stay out of the poll set: the
    // shutdown self-pipe is never drained (by contract — every poller must
    // see it), so polling it here would fire POLLIN forever and collapse
    // the 50 ms drain timeout to a busy spin.
    std::vector<pollfd> fds;
    fds.reserve(s.connections.size() + 3);
    std::size_t wake_idx = SIZE_MAX;
    std::size_t listen_idx = SIZE_MAX;
    if (!s.stopping) {
      wake_idx = fds.size();
      fds.push_back({s.wake_read, POLLIN, 0});
      const int shutdown_fd = util::shutdown_fd();
      if (shutdown_fd >= 0) fds.push_back({shutdown_fd, POLLIN, 0});
      listen_idx = fds.size();
      fds.push_back({s.listen_fd, POLLIN, 0});
    }
    const std::size_t first_conn = fds.size();
    for (const Connection& c : s.connections) {
      short events = 0;
      if (!s.stopping && !c.closing) events |= POLLIN;
      if (!c.out.drained()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }

    int timeout_ms = s.stopping ? 50 : 500;
    // Deadline sweeps need the loop to tick while connections sit idle;
    // 50 ms granularity bounds how late a timeout can fire.
    if (!s.stopping && !s.connections.empty() &&
        (s.config.idle_timeout_s > 0.0 || s.config.frame_timeout_s > 0.0)) {
      timeout_ms = 50;
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      SPECTRA_REQUIRE(false,
                      "poll() failed: " + std::string(std::strerror(errno)));
    }

    if (wake_idx != SIZE_MAX && (fds[wake_idx].revents & POLLIN)) {
      // Drain our own wake pipe (private to this server, unlike the
      // shutdown self-pipe) so stale bytes never re-wake a later poll.
      char buf[64];
      while (::read(s.wake_read, buf, sizeof(buf)) > 0) {
      }
    }
    if (listen_idx != SIZE_MAX && (fds[listen_idx].revents & POLLIN)) {
      s.accept_new();
    }

    // accept_new() may have appended connections that have no pollfd entry
    // this round; stop at fds.size() so they are not judged on garbage
    // revents (they get polled next iteration).
    std::size_t i = first_conn;
    for (auto it = s.connections.begin();
         it != s.connections.end() && i < fds.size(); ++i) {
      Connection& c = *it;
      const short rev = fds[i].revents;
      bool alive = true;
      if (rev & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (rev & (POLLIN | POLLHUP))) alive = s.on_readable(c);
      if (alive && (rev & POLLOUT)) alive = s.on_writable(c);
      // A connection whose entire reply fit the socket buffer at enqueue
      // time never polls POLLOUT; try an eager flush instead of waiting.
      if (alive && !c.out.drained() && !(rev & POLLOUT)) {
        alive = s.on_writable(c);
      }
      if (!alive) {
        it = s.destroy(it);
      } else {
        ++it;
      }
    }
  }

  for (auto it = s.connections.begin(); it != s.connections.end();) {
    it = s.destroy(it);
  }
  ::close(s.listen_fd);
  s.listen_fd = -1;
  s.core.set_sink(nullptr);
  s.record.reset();  // flush the operation-trace record
  return s.stats();
}

const Server::Stats& Server::stats() const { return impl_->core.stats(); }

namespace {

// Every Stats counter in the order both exit-time views list it, with the
// ledger line it goes on (0: JSON only; the shutdown and recovery lines
// state those in prose).
struct StatsField {
  const char* name;
  std::uint64_t Server::Stats::*value;
  int ledger_line;
};
constexpr StatsField kStatsFields[] = {
    {"connections", &Server::Stats::connections, 0},
    {"ops", &Server::Stats::ops, 0},
    {"sheds", &Server::Stats::sheds, 1},
    {"idle_timeouts", &Server::Stats::idle_timeouts, 1},
    {"frame_timeouts", &Server::Stats::frame_timeouts, 1},
    {"slow_consumer_closes", &Server::Stats::slow_consumer_closes, 1},
    {"protocol_errors", &Server::Stats::protocol_errors, 1},
    {"dropped_frames", &Server::Stats::dropped_frames, 1},
    {"dropped_bytes", &Server::Stats::dropped_bytes, 1},
    {"parked", &Server::Stats::parked, 2},
    {"resumed", &Server::Stats::resumed, 2},
    {"replayed_cached", &Server::Stats::replayed_cached, 2},
    {"wal_sessions", &Server::Stats::wal_sessions, 2},
    {"wal_ops", &Server::Stats::wal_ops, 2},
    {"wal_truncated_bytes", &Server::Stats::wal_truncated_bytes, 0}};

}  // namespace

std::string Server::Stats::to_json() const {
  std::ostringstream os;
  for (const StatsField& f : kStatsFields) {
    os << (&f == kStatsFields ? "{\n" : ",\n") << "  \"" << f.name
       << "\": " << this->*f.value;
  }
  os << "\n}\n";
  return os.str();
}

std::string Server::Stats::ledger(const std::string& prefix) const {
  std::ostringstream os;
  for (int line = 1; line <= 2; ++line) {
    const char* sep = prefix.c_str();
    for (const StatsField& f : kStatsFields) {
      if (f.ledger_line != line) continue;
      os << sep << f.name << '=' << this->*f.value;
      sep = " ";
    }
    os << "\n";
  }
  return os.str();
}

void Server::request_stop() {
  impl_->stopping = true;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(impl_->wake_write, &byte, 1);
}

}  // namespace spectra::serve
