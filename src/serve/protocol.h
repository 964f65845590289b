// Binary wire protocol for the spectra serve daemon.
//
// Framing: every message is a length-prefixed frame
//
//     u32  payload length N (little-endian, ≤ kMaxPayload)
//     u8   message type (MsgType)
//     u8[N] payload
//
// Payload encoding is fixed little-endian primitives:
//     u8 / u32 / u64      — unsigned integers
//     f64                 — IEEE-754 bits as u64
//     string              — u32 length + bytes (≤ kMaxString)
//     map<string,double>  — u32 count + (string, f64) pairs, key-sorted
//
// The request/response pairs mirror the Spectra API (§3.1) at operation
// granularity: hello → register_app → (begin_fidelity_op →
// end_fidelity_op)* → shutdown/close. Responses set the high bit of the
// request's type; kError may answer anything and carries an ErrorCode so
// clients can tell retryable conditions (overload, shutdown in progress)
// from fatal ones (protocol violation, bad sequence).
//
// Version 2 adds crash-recovery support: begin/end carry an explicit
// operation sequence number so a client can re-issue a request whose
// reply was lost and the server can answer idempotently from its cache,
// and kResume re-attaches a new connection to a session that survived a
// disconnect (parked in memory or reconstructed from the write-ahead
// record log).
//
// FrameReader is an incremental parser: feed() accepts any byte-sized
// slice (one byte at a time in the tests), next() yields complete frames,
// and malformed input (oversized length, oversized string, truncated or
// over-long payload at decode time) raises ProtocolError — the server
// answers with kError and drops the connection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/decision_service.h"

namespace spectra::serve {

inline constexpr std::uint32_t kProtocolVersion = 2;
inline constexpr std::uint32_t kMaxPayload = 1u << 20;  // 1 MiB
inline constexpr std::uint32_t kMaxString = 1u << 16;   // 64 KiB
inline constexpr std::size_t kFrameHeader = 5;          // u32 len + u8 type

class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class MsgType : std::uint8_t {
  kHello = 0x01,
  kRegisterApp = 0x02,
  kBeginOp = 0x03,
  kEndOp = 0x04,
  kStatus = 0x05,
  kShutdown = 0x06,
  kResume = 0x07,
  kHelloOk = 0x81,
  kRegisterOk = 0x82,
  kBeginOk = 0x83,
  kEndOk = 0x84,
  kStatusOk = 0x85,
  kShutdownOk = 0x86,
  kResumeOk = 0x87,
  kError = 0xFF,
};

// Token for logs and error messages ("hello", "begin_op", ...).
const char* to_token(MsgType type);
bool is_known_type(std::uint8_t type);

// Why the server answered kError. Retryable codes describe a transient
// server-side condition; the others mean the request (or the connection)
// is at fault and re-issuing the same bytes would fail the same way.
enum class ErrorCode : std::uint8_t {
  kGeneric = 0,         // handler-level failure (in-band; connection usable)
  kProtocol = 1,        // framing/encoding violation; connection is dropped
  kOverloaded = 2,      // shed: session or connection limit reached (retryable)
  kShuttingDown = 3,    // daemon is draining; try again elsewhere (retryable)
  kUnknownSession = 4,  // resume target does not exist on this daemon
  kBadSeq = 5,          // idempotency key is neither cached nor next
};

const char* to_token(ErrorCode code);
// True when backing off and re-issuing the identical request may succeed.
bool retryable(ErrorCode code);

// A kError answer with `code`. The session core throws it to answer a
// request in-band, keeping the connection usable (unlike a bare
// ProtocolError, which drops the connection after the error reply);
// clients throw it when the daemon answered kError.
class ServerError : public ProtocolError {
 public:
  ServerError(ErrorCode code, const std::string& what)
      : ProtocolError(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

// One complete frame, ready for the socket.
std::string encode_frame(MsgType type, std::string_view payload);

// ---- incremental frame parsing -------------------------------------------

class FrameReader {
 public:
  // Append raw bytes from the socket. Throws ProtocolError when the frame
  // header announces a payload over kMaxPayload or an unknown type byte;
  // the reader is unusable afterwards.
  void feed(std::string_view bytes);

  // The next complete frame, if any arrived.
  std::optional<Frame> next();

  // Bytes buffered but not yet consumed as complete frames.
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  void check_header();
  std::string buffer_;
};

// ---- payload primitives --------------------------------------------------

class PayloadWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_string(std::string_view s);
  void put_map(const std::map<std::string, double>& m);
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}
  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64();
  std::string get_string();
  std::map<std::string, double> get_map();
  // Throws ProtocolError unless every payload byte was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- messages ------------------------------------------------------------

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::string client_name;
};

struct HelloOkMsg {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t session_id = 0;
};

struct RegisterAppMsg {
  std::string app;
  std::string scenario;
  std::uint64_t seed = 1;
};

struct RegisterOkMsg {
  std::string op;  // the operation this session serves
};

struct BeginOpMsg {
  std::string op;  // empty = the session's registered operation
  std::string data_tag;
  std::map<std::string, double> params;
  // Idempotency key: the 1-based sequence number this begin claims.
  // 0 means "next" (seq_begun + 1). A re-issued begin carries the seq of
  // the lost attempt; the server answers from its decision cache when the
  // op was already begun, so retries never double-execute.
  std::uint64_t seq = 0;
};

// BeginOk carries core::ServiceDecision verbatim.
// EndOk carries core::ServiceOpResult verbatim.

struct StatusOkMsg {
  core::ServiceStatus session;
  std::uint64_t sessions_active = 0;  // daemon-wide
  std::uint64_t ops_served = 0;       // daemon-wide completed ops
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kGeneric;
  std::string message;
};

// Re-attach a connection to an existing session after a disconnect.
struct ResumeMsg {
  std::uint64_t session_id = 0;
};

struct ResumeOkMsg {
  std::string op;                    // the session's registered operation
  std::uint64_t seq_begun = 0;       // ops begun so far
  std::uint64_t seq_completed = 0;   // ops completed so far
};

std::string encode_hello(const HelloMsg& m);
std::string encode_hello_ok(const HelloOkMsg& m);
std::string encode_register_app(const RegisterAppMsg& m);
std::string encode_register_ok(const RegisterOkMsg& m);
std::string encode_begin_op(const BeginOpMsg& m);
std::string encode_begin_ok(const core::ServiceDecision& m);
// `seq` is the idempotency key of the op being ended; 0 = the pending op.
std::string encode_end_op(std::uint64_t seq = 0);
std::string encode_end_ok(const core::ServiceOpResult& m);
std::string encode_status();
std::string encode_status_ok(const StatusOkMsg& m);
std::string encode_shutdown();
std::string encode_shutdown_ok();
std::string encode_resume(const ResumeMsg& m);
std::string encode_resume_ok(const ResumeOkMsg& m);
std::string encode_error(const ErrorMsg& m);

// Decoders throw ProtocolError on truncated or over-long payloads.
HelloMsg decode_hello(std::string_view payload);
HelloOkMsg decode_hello_ok(std::string_view payload);
RegisterAppMsg decode_register_app(std::string_view payload);
RegisterOkMsg decode_register_ok(std::string_view payload);
BeginOpMsg decode_begin_op(std::string_view payload);
core::ServiceDecision decode_begin_ok(std::string_view payload);
std::uint64_t decode_end_op(std::string_view payload);
core::ServiceOpResult decode_end_ok(std::string_view payload);
StatusOkMsg decode_status_ok(std::string_view payload);
ResumeMsg decode_resume(std::string_view payload);
ResumeOkMsg decode_resume_ok(std::string_view payload);
ErrorMsg decode_error(std::string_view payload);
// kStatus / kShutdown / their Ok twins with empty payloads decode by
// checking emptiness:
void decode_empty(std::string_view payload, MsgType type);

}  // namespace spectra::serve
