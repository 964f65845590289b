#include "scenario/scenarios.h"

#include <initializer_list>
#include <stdexcept>

#include "monitor/battery_monitor.h"
#include "util/assert.h"

namespace spectra::scenario {

std::string name(SpeechScenario s) {
  switch (s) {
    case SpeechScenario::kBaseline: return "baseline";
    case SpeechScenario::kEnergy: return "energy";
    case SpeechScenario::kNetwork: return "network";
    case SpeechScenario::kCpu: return "cpu";
    case SpeechScenario::kFileCache: return "file-cache";
  }
  return "?";
}

std::string name(LatexScenario s) {
  switch (s) {
    case LatexScenario::kBaseline: return "baseline";
    case LatexScenario::kFileCache: return "file-cache";
    case LatexScenario::kReintegrate: return "reintegrate";
    case LatexScenario::kEnergy: return "energy";
  }
  return "?";
}

std::string name(PanglossScenario s) {
  switch (s) {
    case PanglossScenario::kBaseline: return "baseline";
    case PanglossScenario::kFileCache: return "file-cache";
    case PanglossScenario::kCpu: return "cpu";
  }
  return "?";
}

namespace {

template <typename S>
S parse_scenario(const std::string& text, std::initializer_list<S> all) {
  for (const S s : all) {
    if (name(s) == text) return s;
  }
  SPECTRA_REQUIRE(false, "unknown scenario: " + text);
  throw std::logic_error("unreachable");
}

}  // namespace

SpeechScenario parse_speech_scenario(const std::string& text) {
  return parse_scenario(
      text, {SpeechScenario::kBaseline, SpeechScenario::kEnergy,
             SpeechScenario::kNetwork, SpeechScenario::kCpu,
             SpeechScenario::kFileCache});
}

LatexScenario parse_latex_scenario(const std::string& text) {
  return parse_scenario(
      text, {LatexScenario::kBaseline, LatexScenario::kFileCache,
             LatexScenario::kReintegrate, LatexScenario::kEnergy});
}

PanglossScenario parse_pangloss_scenario(const std::string& text) {
  return parse_scenario(
      text, {PanglossScenario::kBaseline, PanglossScenario::kFileCache,
             PanglossScenario::kCpu});
}

void pin_energy_importance(World& world, double c) {
  auto* monitor = dynamic_cast<monitor::BatteryMonitor*>(
      world.spectra().monitors().find("battery"));
  SPECTRA_REQUIRE(monitor != nullptr, "client has no battery monitor");
  monitor->adaptation().pin_importance(c);
}

void apply(World& world, SpeechScenario s) {
  switch (s) {
    case SpeechScenario::kBaseline:
      break;
    case SpeechScenario::kEnergy:
      // Battery powered with an ambitious 10-hour lifetime goal.
      world.client_machine().set_on_battery(true);
      world.spectra().set_battery_lifetime_goal(10.0 * 3600);
      pin_energy_importance(world, kSpeechEnergyImportance);
      break;
    case SpeechScenario::kNetwork:
      // Halve the bandwidth between client and server.
      world.network().set_link_bandwidth(kClient, kServerT20, 5750.0);
      break;
    case SpeechScenario::kCpu:
      // A CPU-intensive background job on the client.
      world.client_machine().set_background_procs(1.0);
      break;
    case SpeechScenario::kFileCache:
      // Network partition: the Spectra server is unreachable, the file
      // servers stay reachable; the full vocabulary's 277 KB language
      // model is flushed from the client's cache.
      world.network().set_link_up(kClient, kServerT20, false);
      world.coda(kClient).evict(world.janus().config().lm_full_path);
      break;
  }
}

void apply(World& world, LatexScenario s) {
  const auto& small = world.latex().document("small");
  switch (s) {
    case LatexScenario::kBaseline:
      break;
    case LatexScenario::kFileCache:
      // Server B has no input files cached.
      for (const auto& doc : world.latex().config().documents) {
        for (const auto& f : doc.files) world.coda(kServerB).evict(f.path);
      }
      break;
    case LatexScenario::kReintegrate:
      // The small document's 70 KB top-level input is modified on the
      // client; remote execution must reintegrate it first.
      world.coda(kClient).write(small.files.front().path);
      break;
    case LatexScenario::kEnergy:
      // Reintegrate scenario + battery power + very aggressive goal.
      world.coda(kClient).write(small.files.front().path);
      world.client_machine().set_on_battery(true);
      world.spectra().set_battery_lifetime_goal(12.0 * 3600);
      pin_energy_importance(world, kLatexEnergyImportance);
      break;
  }
}

void apply(World& world, PanglossScenario s) {
  const auto corpus =
      world.pangloss().config().components[apps::PanglossApp::kEbmt].file_path;
  switch (s) {
    case PanglossScenario::kBaseline:
      break;
    case PanglossScenario::kCpu:
      // File-cache scenario plus two CPU-intensive processes on server A.
      world.coda(kServerB).evict(corpus);
      world.machine(kServerA).set_background_procs(2.0);
      break;
    case PanglossScenario::kFileCache:
      // The 12 MB EBMT corpus is evicted from server B's cache.
      world.coda(kServerB).evict(corpus);
      break;
  }
}

}  // namespace spectra::scenario
