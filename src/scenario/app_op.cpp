#include "scenario/app_op.h"

#include <iterator>
#include <utility>

#include "apps/janus.h"
#include "apps/latex.h"
#include "apps/pangloss.h"
#include "obs/trace.h"
#include "scenario/experiment.h"
#include "scenario/world.h"
#include "util/assert.h"

namespace spectra::scenario {
namespace {

double param_or(const core::ServiceBeginRequest& request,
                const std::string& name, double def) {
  auto it = request.params.find(name);
  return it == request.params.end() ? def : it->second;
}

// Each app's name and operation, in App order.
constexpr std::pair<const char*, const char*> kApps[] = {
    {"nullop", kNullOp},
    {"speech", apps::JanusApp::kOperation},
    {"latex", apps::LatexApp::kOperation},
    {"pangloss", apps::PanglossApp::kOperation}};

}  // namespace

std::optional<App> parse_app(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kApps); ++i) {
    if (name == kApps[i].first) return static_cast<App>(i);
  }
  return std::nullopt;
}

const char* to_string(App app) {
  return kApps[static_cast<std::size_t>(app)].first;
}

const char* operation_name(App app) {
  return kApps[static_cast<std::size_t>(app)].second;
}

AppOp::AppOp(App app, const core::ServiceBeginRequest& request) : app_(app) {
  switch (app) {
    case App::kNullop:
      params_ = request.params;
      break;
    case App::kSpeech:
      utt_len_ = param_or(request, "utt_len", 2.0);
      SPECTRA_REQUIRE(utt_len_ > 0.0 && utt_len_ <= kMaxUtteranceSeconds,
                      "speech utt_len must be in (0, " +
                          obs::format_double(kMaxUtteranceSeconds) +
                          "], got: " + obs::format_double(utt_len_));
      params_ = {{"utt_len", utt_len_}};
      break;
    case App::kLatex:
      data_tag_ = request.data_tag.empty() ? "small" : request.data_tag;
      SPECTRA_REQUIRE(data_tag_ == "small" || data_tag_ == "large",
                      "latex data tag must be small or large, got: " +
                          data_tag_);
      break;
    case App::kPangloss: {
      // Range first: casting NaN or a huge value to int is undefined.
      const double words = param_or(request, "words", 10.0);
      SPECTRA_REQUIRE(words >= 1.0 && words <= kMaxPanglossWords,
                      "pangloss words must be in [1, " +
                          std::to_string(kMaxPanglossWords) +
                          "], got: " + obs::format_double(words));
      words_ = static_cast<int>(words);
      params_ = {{"words", static_cast<double>(words_)}};
      break;
    }
  }
}

core::OperationChoice AppOp::begin(World& world) const {
  return world.spectra().begin_fidelity_op(operation_name(app_), params_,
                                           data_tag_);
}

core::OperationChoice AppOp::begin_forced(
    World& world, const solver::Alternative& alt) const {
  return world.spectra().begin_fidelity_op_forced(operation_name(app_),
                                                  params_, data_tag_, alt);
}

void AppOp::execute(World& world) const {
  core::SpectraClient& spectra = world.spectra();
  switch (app_) {
    case App::kNullop:
      spectra.do_local_op(kNullOp, null_request());
      break;
    case App::kSpeech:
      world.janus().execute(spectra, utt_len_);
      break;
    case App::kLatex:
      world.latex().execute(spectra, data_tag_);
      break;
    case App::kPangloss:
      world.pangloss().execute(spectra, words_);
      break;
  }
}

}  // namespace spectra::scenario
