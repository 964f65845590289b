// Simulator-backed DecisionService sessions for the serve daemon.
//
// app_service_factory() returns the core::ServiceFactory the CLI hands to
// src/serve: each (app, scenario, seed) request becomes one trained World
// whose SpectraClient runs the real decision pipeline. Sessions reuse the
// process-wide TrainedWorldCache — the first session for a configuration
// trains a template, every later one clones it (World::clone), so a
// 64-connection load generator pays one training, not 64.
//
// Supported apps:
//   nullop    — the Fig-10 null operation on the kOverhead testbed
//               (scenario "baseline" = 1 server, or "<N>srv" for N in
//               1..8); the cheap default for load generation.
//   speech    — Janus on the Itsy testbed (scenarios as `spectra speech`).
//   latex     — Latex on the ThinkPad testbed.
//   pangloss  — Pangloss-Lite on the ThinkPad testbed.
//
// begin_op checks its input through the app table (scenario/app_op.h)
// before anything is begun, so a bad input leaves the session idle.
//
// Decisions and results are a pure function of (app, scenario, seed,
// request sequence): worlds are deterministic and sessions are
// single-operation-at-a-time, which is what makes daemon records
// replayable byte-for-byte.
#pragma once

#include "core/decision_service.h"

namespace spectra::scenario {

core::ServiceFactory app_service_factory();

}  // namespace spectra::scenario
