#include "serve/core.h"

#include <exception>
#include <utility>

#include "util/assert.h"

namespace spectra::serve {
namespace {

ServerError bad_seq(const char* what, std::uint64_t seq, std::uint64_t cached) {
  return ServerError(ErrorCode::kBadSeq,
                     std::string(what) + " seq " + std::to_string(seq) +
                         " is neither cached (" + std::to_string(cached) +
                         ") nor next (" + std::to_string(cached + 1) + ")");
}

}  // namespace

SessionCore::SessionCore(const ServeConfig& config,
                         core::ServiceFactory factory)
    : max_sessions_(config.max_sessions),
      max_parked_(config.max_parked),
      factory_(std::move(factory)) {}

// The record doubles as a write-ahead log, so a line must be durable in
// the kernel before the reply that acknowledges it can reach the client.
void SessionCore::record(const std::string& line) {
  if (!sink_) return;
  sink_->write_raw(line + "\n");
  sink_->flush();
}

SessionCore::Session& SessionCore::create(std::uint64_t sid,
                                          const std::string& app,
                                          const std::string& scenario,
                                          std::uint64_t seed) {
  std::unique_ptr<core::DecisionService> service =
      factory_(app, scenario, seed);
  core::ServiceStatus status = service->status();
  // A connection whose session a resume took still speaks for its sid.
  auto [it, fresh] = sessions_.try_emplace(sid);
  SPECTRA_REQUIRE(fresh, "session " + std::to_string(sid) + " exists");
  if (sink_) record(render_session_line(sid, status.virtual_now, status));
  Session& s = it->second;
  s.sid = sid;
  s.op = std::move(status.op);
  s.service = std::move(service);
  return s;
}

void SessionCore::begin(Session& s, std::uint64_t requested,
                        const core::ServiceBeginRequest& request) {
  const std::uint64_t seq = requested == 0 ? s.seq_begun + 1 : requested;
  if (seq == s.seq_begun && seq > 0) {
    // Idempotent re-issue of the op already begun: answer from the cache,
    // do not re-execute or re-record.
    ++stats_.replayed_cached;
    return;
  }
  if (seq != s.seq_begun + 1) throw bad_seq("begin", seq, s.seq_begun);
  const core::ServiceDecision d = s.service->begin_op(request);
  s.seq_begun = seq;
  if (sink_) record(render_begin_line(s.sid, seq, request, d));
  s.begin_reply = encode_begin_ok(d);
}

bool SessionCore::end(Session& s, std::uint64_t requested) {
  const std::uint64_t seq = requested == 0 ? s.seq_begun : requested;
  if (seq == s.seq_completed && seq > 0) {
    ++stats_.replayed_cached;
    return false;
  }
  if (seq != s.seq_completed + 1) throw bad_seq("end", seq, s.seq_completed);
  SPECTRA_REQUIRE(seq == s.seq_begun,
                  "no operation in progress in this session");
  core::ServiceOpResult r;
  try {
    r = s.service->end_op();
  } catch (const std::exception&) {
    // The op failed while it ran. End it anyway, so the session, the WAL
    // and a replay of it stay in step, and tell the client it failed.
    r = core::ServiceOpResult{};
    r.t = s.service->status().virtual_now;
  }
  r.seq = seq;
  s.seq_completed = seq;
  if (sink_) record(render_end_line(s.sid, seq, r));
  s.end_ok = r.ok;
  s.end_reply = encode_end_ok(r);
  return true;
}

void SessionCore::restore(const ReplaySession& recorded) {
  Session& s =
      create(recorded.sid, recorded.app, recorded.scenario, recorded.seed);
  for (const ReplayOp& op : recorded.ops) {
    begin(s, op.seq, op.request);
    ++stats_.wal_ops;
    if (!op.has_end) continue;
    end(s, op.seq);
    SPECTRA_REQUIRE(s.end_ok == op.end_ok,
                    "session " + std::to_string(s.sid) + " op " +
                        std::to_string(op.seq) + " was recorded " +
                        (op.end_ok ? "ok" : "failed") + " but replayed " +
                        (s.end_ok ? "ok" : "failed"));
  }
  if (recorded.sid > next_sid_) next_sid_ = recorded.sid;
  park_order_.push_back(recorded.sid);
  ++parked_;
  ++stats_.wal_sessions;
}

void SessionCore::open(Conn& conn) {
  conn.sid = ++next_sid_;
  ++stats_.connections;
}

void SessionCore::close(Conn& conn) {
  Session* s = conn.session;
  conn.session = nullptr;
  if (!s) return;
  --active_;
  if (max_parked_ == 0) {
    sessions_.erase(s->sid);
    return;
  }
  s->conn = nullptr;
  ++parked_;
  park_order_.push_back(s->sid);
  ++stats_.parked;
  // Evicted history stays in the WAL, so a daemon restarted with --resume
  // can still rebuild it.
  while (parked_ > max_parked_ && !park_order_.empty()) {
    const std::uint64_t victim = park_order_.front();
    park_order_.pop_front();
    auto v = sessions_.find(victim);
    if (v == sessions_.end() || v->second.conn) continue;  // resumed
    sessions_.erase(v);
    --parked_;
    record(obs::TraceEvent("serve.close", 0.0)
               .field("sid", static_cast<std::size_t>(victim))
               .field("reason", "park_evicted")
               .to_json());
  }
}

// ServerError → coded error reply; ContractError and other std::exception
// → generic error reply. The connection stays usable after either.
SessionCore::Conn* SessionCore::on_frame(Conn& conn, const Frame& frame,
                                         OutBuffer& out) {
  try {
    return dispatch(conn, frame, out);
  } catch (const ServerError& e) {
    out.enqueue(encode_error(ErrorMsg{e.code(), e.what()}));
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    out.enqueue(encode_error(ErrorMsg{ErrorCode::kGeneric, e.what()}));
  }
  return nullptr;
}

SessionCore::Conn* SessionCore::dispatch(Conn& c, const Frame& frame,
                                         OutBuffer& out) {
  Conn* taken_from = nullptr;
  switch (frame.type) {
    case MsgType::kHello: {
      const HelloMsg m = decode_hello(frame.payload);
      if (m.version != kProtocolVersion) {
        throw ProtocolError("protocol version mismatch: daemon speaks " +
                            std::to_string(kProtocolVersion) + ", client " +
                            std::to_string(m.version));
      }
      c.greeted = true;
      HelloOkMsg ok;
      ok.session_id = c.sid;
      out.enqueue(encode_hello_ok(ok));
      return nullptr;
    }
    case MsgType::kRegisterApp: {
      const RegisterAppMsg m = decode_register_app(frame.payload);
      SPECTRA_REQUIRE(c.greeted, "register_app before hello");
      SPECTRA_REQUIRE(!c.session, "session already registered");
      if (active_ >= max_sessions_) {
        ++stats_.sheds;
        record(obs::TraceEvent("serve.shed", 0.0)
                   .field("sid", static_cast<std::size_t>(c.sid))
                   .field("scope", "sessions")
                   .to_json());
        throw ServerError(ErrorCode::kOverloaded,
                          "session limit reached (" +
                              std::to_string(max_sessions_) + "); retry later");
      }
      Session& s = create(c.sid, m.app, m.scenario, m.seed);
      s.conn = &c;
      c.session = &s;
      ++active_;
      RegisterOkMsg ok;
      ok.op = s.op;
      out.enqueue(encode_register_ok(ok));
      return nullptr;
    }
    case MsgType::kResume: {
      const ResumeMsg m = decode_resume(frame.payload);
      SPECTRA_REQUIRE(c.greeted, "resume before hello");
      SPECTRA_REQUIRE(!c.session, "session already registered");
      auto it = sessions_.find(m.session_id);
      if (it == sessions_.end()) {
        throw ServerError(ErrorCode::kUnknownSession,
                          "no session " + std::to_string(m.session_id) +
                              " to resume");
      }
      Session& s = it->second;
      if (!s.conn) {
        --parked_;
        ++active_;
      } else {
        // The previous connection may still look alive to us (the client
        // saw a failure we have not noticed yet). Take the session over;
        // the shell closes that connection once it drains.
        s.conn->session = nullptr;
        taken_from = s.conn;
      }
      s.conn = &c;
      c.session = &s;
      c.sid = s.sid;
      ++stats_.resumed;
      record(obs::TraceEvent("serve.resume", 0.0)
                 .field("sid", static_cast<std::size_t>(s.sid))
                 .field("seq_begun", static_cast<std::size_t>(s.seq_begun))
                 .field("seq_completed",
                        static_cast<std::size_t>(s.seq_completed))
                 .to_json());
      ResumeOkMsg ok;
      ok.op = s.op;
      ok.seq_begun = s.seq_begun;
      ok.seq_completed = s.seq_completed;
      out.enqueue(encode_resume_ok(ok));
      return taken_from;
    }
    case MsgType::kBeginOp: {
      BeginOpMsg m = decode_begin_op(frame.payload);
      SPECTRA_REQUIRE(c.session, "begin_op before register_app");
      // Name the operation, so the recorded request replays as it ran.
      core::ServiceBeginRequest req;
      req.op = m.op.empty() ? c.session->op : std::move(m.op);
      req.data_tag = std::move(m.data_tag);
      req.params = std::move(m.params);
      begin(*c.session, m.seq, req);
      out.enqueue(c.session->begin_reply);
      return nullptr;
    }
    case MsgType::kEndOp: {
      const std::uint64_t requested = decode_end_op(frame.payload);
      SPECTRA_REQUIRE(c.session, "end_op before register_app");
      // Stats count the ops this process served, not the ones replayed.
      if (end(*c.session, requested) && c.session->end_ok) ++stats_.ops;
      out.enqueue(c.session->end_reply);
      return nullptr;
    }
    case MsgType::kStatus: {
      decode_empty(frame.payload, frame.type);
      StatusOkMsg ok;
      if (c.session) ok.session = c.session->service->status();
      ok.sessions_active = active_;
      ok.ops_served = stats_.ops;
      out.enqueue(encode_status_ok(ok));
      return nullptr;
    }
    case MsgType::kShutdown: {
      decode_empty(frame.payload, frame.type);
      stats_.shutdown_frame = true;
      out.enqueue(encode_shutdown_ok());
      return nullptr;
    }
    default:
      // Response types arriving at the server are a protocol violation.
      throw ProtocolError(std::string("unexpected message: ") +
                          to_token(frame.type));
  }
}

}  // namespace spectra::serve
