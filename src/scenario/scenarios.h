// The paper's evaluation scenarios (§4).
//
// Each scenario is a mutation applied to a trained world, varying the
// availability of a single resource exactly as the paper does. Training
// always happens under baseline conditions; the scenario is applied
// afterwards, followed by a settling period during which Spectra's monitors
// observe the changed environment (status polls, passive network samples,
// run-queue smoothing, goal-directed adaptation).
#pragma once

#include <string>

#include "scenario/world.h"

namespace spectra::scenario {

enum class SpeechScenario { kBaseline, kEnergy, kNetwork, kCpu, kFileCache };
enum class LatexScenario { kBaseline, kFileCache, kReintegrate, kEnergy };
enum class PanglossScenario { kBaseline, kFileCache, kCpu };

std::string name(SpeechScenario s);
std::string name(LatexScenario s);
std::string name(PanglossScenario s);

// Inverses of name(); throw util::ContractError("unknown scenario: X").
SpeechScenario parse_speech_scenario(const std::string& text);
LatexScenario parse_latex_scenario(const std::string& text);
PanglossScenario parse_pangloss_scenario(const std::string& text);

// Energy-conservation importance pinned in the battery scenarios. The
// paper's c comes from goal-directed adaptation and is not reported; these
// values correspond to its "ambitious" (10-hour Itsy) and "very aggressive"
// (560X) lifetime goals. The adaptation loop itself is exercised by tests
// and examples.
inline constexpr double kSpeechEnergyImportance = 0.5;
inline constexpr double kLatexEnergyImportance = 0.8;

void apply(World& world, SpeechScenario s);
void apply(World& world, LatexScenario s);
void apply(World& world, PanglossScenario s);

// Pin c on the client's battery monitor (used by apply; exposed for tests).
void pin_energy_importance(World& world, double c);

}  // namespace spectra::scenario
