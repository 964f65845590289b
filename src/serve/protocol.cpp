#include "serve/protocol.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

namespace spectra::serve {

namespace {

// Every message type with its token.
constexpr std::pair<MsgType, const char*> kTypes[] = {
    {MsgType::kHello, "hello"},
    {MsgType::kRegisterApp, "register_app"},
    {MsgType::kBeginOp, "begin_op"},
    {MsgType::kEndOp, "end_op"},
    {MsgType::kStatus, "status"},
    {MsgType::kShutdown, "shutdown"},
    {MsgType::kResume, "resume"},
    {MsgType::kHelloOk, "hello_ok"},
    {MsgType::kRegisterOk, "register_ok"},
    {MsgType::kBeginOk, "begin_ok"},
    {MsgType::kEndOk, "end_ok"},
    {MsgType::kStatusOk, "status_ok"},
    {MsgType::kShutdownOk, "shutdown_ok"},
    {MsgType::kResumeOk, "resume_ok"},
    {MsgType::kError, "error"},
};

// Every error code with its token and whether it is retryable.
struct CodeInfo {
  ErrorCode code;
  const char* token;
  bool retryable;
};
constexpr CodeInfo kCodes[] = {
    {ErrorCode::kGeneric, "generic", false},
    {ErrorCode::kProtocol, "protocol", false},
    {ErrorCode::kOverloaded, "overloaded", true},
    {ErrorCode::kShuttingDown, "shutting_down", true},
    {ErrorCode::kUnknownSession, "unknown_session", false},
    {ErrorCode::kBadSeq, "bad_seq", false},
};

}  // namespace

const char* to_token(MsgType type) {
  for (const auto& [t, token] : kTypes) {
    if (t == type) return token;
  }
  return "unknown";
}

bool is_known_type(std::uint8_t type) {
  for (const auto& [t, token] : kTypes) {
    if (static_cast<std::uint8_t>(t) == type) return true;
  }
  return false;
}

const char* to_token(ErrorCode code) {
  for (const CodeInfo& c : kCodes) {
    if (c.code == code) return c.token;
  }
  return "unknown";
}

bool retryable(ErrorCode code) {
  for (const CodeInfo& c : kCodes) {
    if (c.code == code) return c.retryable;
  }
  return false;
}

namespace {

void append_u32(std::string* out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(b, 4);
}

std::uint32_t read_u32(const char* p) {
  const auto b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

std::string encode_frame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw ProtocolError("payload too large: " +
                        std::to_string(payload.size()));
  }
  std::string out;
  out.reserve(kFrameHeader + payload.size());
  append_u32(&out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  out.append(payload);
  return out;
}

// ---- FrameReader ---------------------------------------------------------

void FrameReader::check_header() {
  if (buffer_.size() < kFrameHeader) return;
  const std::uint32_t len = read_u32(buffer_.data());
  if (len > kMaxPayload) {
    throw ProtocolError("frame payload " + std::to_string(len) +
                        " exceeds the " + std::to_string(kMaxPayload) +
                        "-byte limit");
  }
  const auto type = static_cast<std::uint8_t>(buffer_[4]);
  if (!is_known_type(type)) {
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02x", type);
    throw ProtocolError(std::string("unknown message type 0x") + hex);
  }
}

void FrameReader::feed(std::string_view bytes) {
  buffer_.append(bytes);
  // Validate the header as soon as it is complete, so a hostile length
  // or type byte is rejected before its payload is buffered.
  check_header();
}

std::optional<Frame> FrameReader::next() {
  if (buffer_.size() < kFrameHeader) return std::nullopt;
  const std::uint32_t len = read_u32(buffer_.data());
  if (buffer_.size() < kFrameHeader + len) return std::nullopt;
  Frame f;
  f.type = static_cast<MsgType>(static_cast<std::uint8_t>(buffer_[4]));
  f.payload = buffer_.substr(kFrameHeader, len);
  buffer_.erase(0, kFrameHeader + len);
  check_header();  // the next frame's header may already be buffered
  return f;
}

// ---- PayloadWriter -------------------------------------------------------

void PayloadWriter::put_u8(std::uint8_t v) {
  out_.push_back(static_cast<char>(v));
}

void PayloadWriter::put_u32(std::uint32_t v) { append_u32(&out_, v); }

void PayloadWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void PayloadWriter::put_string(std::string_view s) {
  if (s.size() > kMaxString) {
    throw ProtocolError("string too large: " + std::to_string(s.size()));
  }
  put_u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void PayloadWriter::put_map(const std::map<std::string, double>& m) {
  put_u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [k, v] : m) {  // std::map iterates key-sorted
    put_string(k);
    put_f64(v);
  }
}

// ---- PayloadReader -------------------------------------------------------

void PayloadReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw ProtocolError("truncated payload: wanted " + std::to_string(n) +
                        " more byte(s) at offset " + std::to_string(pos_) +
                        " of " + std::to_string(data_.size()));
  }
}

std::uint8_t PayloadReader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t PayloadReader::get_u32() {
  need(4);
  const std::uint32_t v = read_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::get_u64() {
  const std::uint64_t lo = get_u32();
  const std::uint64_t hi = get_u32();
  return lo | (hi << 32);
}

double PayloadReader::get_f64() {
  return std::bit_cast<double>(get_u64());
}

std::string PayloadReader::get_string() {
  const std::uint32_t len = get_u32();
  if (len > kMaxString) {
    throw ProtocolError("string length " + std::to_string(len) +
                        " exceeds the " + std::to_string(kMaxString) +
                        "-byte limit");
  }
  need(len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

std::map<std::string, double> PayloadReader::get_map() {
  const std::uint32_t n = get_u32();
  // Each entry needs at least a string header and a double.
  if (static_cast<std::size_t>(n) * 12 > data_.size()) {
    throw ProtocolError("map count " + std::to_string(n) +
                        " cannot fit the payload");
  }
  std::map<std::string, double> m;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = get_string();
    const double v = get_f64();
    m.emplace(std::move(k), v);
  }
  return m;
}

void PayloadReader::expect_done() const {
  if (pos_ != data_.size()) {
    throw ProtocolError("payload has " + std::to_string(data_.size() - pos_) +
                        " trailing byte(s)");
  }
}

// ---- messages ------------------------------------------------------------

std::string encode_hello(const HelloMsg& m) {
  PayloadWriter w;
  w.put_u32(m.version);
  w.put_string(m.client_name);
  return encode_frame(MsgType::kHello, w.str());
}

HelloMsg decode_hello(std::string_view payload) {
  PayloadReader r(payload);
  HelloMsg m;
  m.version = r.get_u32();
  m.client_name = r.get_string();
  r.expect_done();
  return m;
}

std::string encode_hello_ok(const HelloOkMsg& m) {
  PayloadWriter w;
  w.put_u32(m.version);
  w.put_u64(m.session_id);
  return encode_frame(MsgType::kHelloOk, w.str());
}

HelloOkMsg decode_hello_ok(std::string_view payload) {
  PayloadReader r(payload);
  HelloOkMsg m;
  m.version = r.get_u32();
  m.session_id = r.get_u64();
  r.expect_done();
  return m;
}

std::string encode_register_app(const RegisterAppMsg& m) {
  PayloadWriter w;
  w.put_string(m.app);
  w.put_string(m.scenario);
  w.put_u64(m.seed);
  return encode_frame(MsgType::kRegisterApp, w.str());
}

RegisterAppMsg decode_register_app(std::string_view payload) {
  PayloadReader r(payload);
  RegisterAppMsg m;
  m.app = r.get_string();
  m.scenario = r.get_string();
  m.seed = r.get_u64();
  r.expect_done();
  return m;
}

std::string encode_register_ok(const RegisterOkMsg& m) {
  PayloadWriter w;
  w.put_string(m.op);
  return encode_frame(MsgType::kRegisterOk, w.str());
}

RegisterOkMsg decode_register_ok(std::string_view payload) {
  PayloadReader r(payload);
  RegisterOkMsg m;
  m.op = r.get_string();
  r.expect_done();
  return m;
}

std::string encode_begin_op(const BeginOpMsg& m) {
  PayloadWriter w;
  w.put_string(m.op);
  w.put_string(m.data_tag);
  w.put_map(m.params);
  w.put_u64(m.seq);
  return encode_frame(MsgType::kBeginOp, w.str());
}

BeginOpMsg decode_begin_op(std::string_view payload) {
  PayloadReader r(payload);
  BeginOpMsg m;
  m.op = r.get_string();
  m.data_tag = r.get_string();
  m.params = r.get_map();
  m.seq = r.get_u64();
  r.expect_done();
  return m;
}

std::string encode_begin_ok(const core::ServiceDecision& m) {
  PayloadWriter w;
  w.put_u8(m.ok ? 1 : 0);
  w.put_u8(m.from_model ? 1 : 0);
  w.put_string(m.plan);
  w.put_string(m.placement);
  w.put_map(m.fidelity);
  w.put_f64(m.predicted_time_s);
  w.put_f64(m.predicted_energy_j);
  w.put_f64(m.log_utility);
  w.put_f64(m.t);
  return encode_frame(MsgType::kBeginOk, w.str());
}

core::ServiceDecision decode_begin_ok(std::string_view payload) {
  PayloadReader r(payload);
  core::ServiceDecision m;
  m.ok = r.get_u8() != 0;
  m.from_model = r.get_u8() != 0;
  m.plan = r.get_string();
  m.placement = r.get_string();
  m.fidelity = r.get_map();
  m.predicted_time_s = r.get_f64();
  m.predicted_energy_j = r.get_f64();
  m.log_utility = r.get_f64();
  m.t = r.get_f64();
  r.expect_done();
  return m;
}

std::string encode_end_op(std::uint64_t seq) {
  PayloadWriter w;
  w.put_u64(seq);
  return encode_frame(MsgType::kEndOp, w.str());
}

std::uint64_t decode_end_op(std::string_view payload) {
  // An empty payload is the version-1 form, kept decodable so hand-rolled
  // clients (and the tests' minimal frames) still mean "end the pending op".
  if (payload.empty()) return 0;
  PayloadReader r(payload);
  const std::uint64_t seq = r.get_u64();
  r.expect_done();
  return seq;
}

std::string encode_end_ok(const core::ServiceOpResult& m) {
  PayloadWriter w;
  w.put_u8(m.ok ? 1 : 0);
  w.put_u64(m.seq);
  w.put_f64(m.time_s);
  w.put_f64(m.energy_j);
  w.put_f64(m.t);
  return encode_frame(MsgType::kEndOk, w.str());
}

core::ServiceOpResult decode_end_ok(std::string_view payload) {
  PayloadReader r(payload);
  core::ServiceOpResult m;
  m.ok = r.get_u8() != 0;
  m.seq = r.get_u64();
  m.time_s = r.get_f64();
  m.energy_j = r.get_f64();
  m.t = r.get_f64();
  r.expect_done();
  return m;
}

std::string encode_status() { return encode_frame(MsgType::kStatus, ""); }

std::string encode_status_ok(const StatusOkMsg& m) {
  PayloadWriter w;
  w.put_string(m.session.app);
  w.put_string(m.session.scenario);
  w.put_u64(m.session.seed);
  w.put_string(m.session.op);
  w.put_u64(m.session.ops_begun);
  w.put_u64(m.session.ops_completed);
  w.put_u8(m.session.op_in_progress ? 1 : 0);
  w.put_f64(m.session.virtual_now);
  w.put_u64(m.sessions_active);
  w.put_u64(m.ops_served);
  return encode_frame(MsgType::kStatusOk, w.str());
}

StatusOkMsg decode_status_ok(std::string_view payload) {
  PayloadReader r(payload);
  StatusOkMsg m;
  m.session.app = r.get_string();
  m.session.scenario = r.get_string();
  m.session.seed = r.get_u64();
  m.session.op = r.get_string();
  m.session.ops_begun = r.get_u64();
  m.session.ops_completed = r.get_u64();
  m.session.op_in_progress = r.get_u8() != 0;
  m.session.virtual_now = r.get_f64();
  m.sessions_active = r.get_u64();
  m.ops_served = r.get_u64();
  r.expect_done();
  return m;
}

std::string encode_shutdown() { return encode_frame(MsgType::kShutdown, ""); }

std::string encode_shutdown_ok() {
  return encode_frame(MsgType::kShutdownOk, "");
}

std::string encode_resume(const ResumeMsg& m) {
  PayloadWriter w;
  w.put_u64(m.session_id);
  return encode_frame(MsgType::kResume, w.str());
}

ResumeMsg decode_resume(std::string_view payload) {
  PayloadReader r(payload);
  ResumeMsg m;
  m.session_id = r.get_u64();
  r.expect_done();
  return m;
}

std::string encode_resume_ok(const ResumeOkMsg& m) {
  PayloadWriter w;
  w.put_string(m.op);
  w.put_u64(m.seq_begun);
  w.put_u64(m.seq_completed);
  return encode_frame(MsgType::kResumeOk, w.str());
}

ResumeOkMsg decode_resume_ok(std::string_view payload) {
  PayloadReader r(payload);
  ResumeOkMsg m;
  m.op = r.get_string();
  m.seq_begun = r.get_u64();
  m.seq_completed = r.get_u64();
  r.expect_done();
  return m;
}

std::string encode_error(const ErrorMsg& m) {
  PayloadWriter w;
  w.put_u8(static_cast<std::uint8_t>(m.code));
  w.put_string(m.message);
  return encode_frame(MsgType::kError, w.str());
}

ErrorMsg decode_error(std::string_view payload) {
  PayloadReader r(payload);
  ErrorMsg m;
  m.code = static_cast<ErrorCode>(r.get_u8());
  m.message = r.get_string();
  r.expect_done();
  return m;
}

void decode_empty(std::string_view payload, MsgType type) {
  if (!payload.empty()) {
    throw ProtocolError(std::string(to_token(type)) +
                        " must carry an empty payload");
  }
}

}  // namespace spectra::serve
