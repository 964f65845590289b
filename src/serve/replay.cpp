#include "serve/replay.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "obs/trace.h"
#include "serve/client.h"
#include "serve/core.h"
#include "serve/protocol.h"
#include "serve/record.h"
#include "util/assert.h"

namespace spectra::serve {
namespace {

// Each session through its own SessionCore, so its service is freed as
// soon as it has replayed.
std::string replay_in_process(const std::vector<ReplaySession>& sessions,
                              const core::ServiceFactory& factory) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  for (const ReplaySession& sess : sessions) {
    SessionCore core(ServeConfig{}, factory);
    core.set_sink(&sink);
    core.restore(sess);
  }
  return out.str();
}

std::string replay_over_wire(const std::vector<ReplaySession>& sessions,
                             const std::string& host, std::uint16_t port) {
  std::string out;
  for (const ReplaySession& sess : sessions) {
    BlockingClient client(host, port);
    client.hello("replay");
    client.register_app(sess.app, sess.scenario, sess.seed);
    const StatusOkMsg st = client.status();
    out += render_session_line(sess.sid, st.session.virtual_now, st.session) +
           "\n";
    for (const ReplayOp& op : sess.ops) {
      const core::ServiceDecision d = client.begin_op(
          BeginOpMsg{op.request.op, op.request.data_tag, op.request.params});
      out += render_begin_line(sess.sid, op.seq, op.request, d) + "\n";
      if (op.has_end) {
        const core::ServiceOpResult r = client.end_op();
        out += render_end_line(sess.sid, r.seq, r) + "\n";
      }
    }
  }
  return out;
}

}  // namespace

ReplayResult run_replay(const ReplayConfig& config,
                        const core::ServiceFactory& factory) {
  const std::string expected_raw = read_file(config.record_path, "record");
  const std::vector<ReplaySession> sessions = parse_record(expected_raw);

  ReplayResult result;
  result.sessions = sessions.size();
  for (const ReplaySession& sess : sessions) result.ops += sess.ops.size();

  const std::string actual_raw =
      config.port < 0
          ? replay_in_process(sessions, factory)
          : replay_over_wire(sessions, config.host,
                             static_cast<std::uint16_t>(config.port));

  const std::string expected = canonicalize_record(expected_raw);
  const std::string actual = canonicalize_record(actual_raw);
  if (expected == actual) {
    result.identical = true;
    return result;
  }
  const std::vector<std::string> exp_lines = split_lines(expected);
  const std::vector<std::string> act_lines = split_lines(actual);
  const auto [e, a] = std::mismatch(exp_lines.begin(), exp_lines.end(),
                                    act_lines.begin(), act_lines.end());
  result.mismatch_line = static_cast<std::size_t>(e - exp_lines.begin()) + 1;
  if (e != exp_lines.end()) result.expected_line = *e;
  if (a != act_lines.end()) result.actual_line = *a;
  return result;
}

}  // namespace spectra::serve
