// The applications Spectra serves, each one's operation described once:
// daemon sessions, the chaos soak, the experiments and the benches all run
// it through AppOp. Its input is a core::ServiceBeginRequest:
//
//   app       operation           input              range          default
//   nullop    null.op             params, as given   —              —
//   speech    janus.recognize     params "utt_len"   (0, 60] s      2.0 s
//   latex     latex.run           data tag           small | large  small
//   pangloss  pangloss.translate  params "words"     [1, 1000]      10
//
// Other params and tags are ignored. The input is checked when the AppOp
// is built, before anything is begun.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/client.h"
#include "core/decision_service.h"
#include "solver/types.h"

namespace spectra::scenario {

class World;

enum class App { kNullop, kSpeech, kLatex, kPangloss };

// "nullop", "speech", "latex" or "pangloss"; nullopt for any other name.
std::optional<App> parse_app(std::string_view name);
const char* to_string(App app);
// The name the app registers its operation under.
const char* operation_name(App app);

// The most words a Pangloss sentence may have (also `--words`' cap).
constexpr int kMaxPanglossWords = 1000;

// The longest utterance Janus may recognize, in seconds. Remote
// recognition costs (30 + 120 + 500) Mcycles per second of speech at full
// vocabulary (apps/janus.h); on the speech testbed's 700 MHz server that
// is 0.93 s per second of speech, so past about 64 s no remote or hybrid
// attempt can finish within the client's 60 s RPC timeout (core/client.h)
// and every plan but local is gone. The cap is that, rounded down. It also
// bounds the simulated work one end_op can ask for, which grows linearly
// with the utterance.
constexpr double kMaxUtteranceSeconds = 60.0;

// One operation of `app` with its input checked and defaults filled in.
class AppOp {
 public:
  // Throws util::ContractError when the input is out of range.
  AppOp(App app, const core::ServiceBeginRequest& request);

  // begin_fidelity_op on the world's Spectra client.
  core::OperationChoice begin(World& world) const;
  // begin_fidelity_op_forced: runs `alt` with no decision.
  core::OperationChoice begin_forced(World& world,
                                     const solver::Alternative& alt) const;
  // The operation itself, after begin() and before end_fidelity_op.
  void execute(World& world) const;

 private:
  App app_;
  std::map<std::string, double> params_;
  std::string data_tag_;
  double utt_len_ = 0.0;
  int words_ = 0;
};

}  // namespace spectra::scenario
