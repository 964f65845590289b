#!/usr/bin/env python3
"""Repository benchmark: build spectra and the perfbench harness, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

The default seed is 1; 9973 is the held-out seed (see METRICS.md).

Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR (default .bench_build)/perfbench-<key>, run state (WALs,
cross-run expectations, span traces) to .../perfbench-state-<key>, where
<key> names the source root: checkouts that share $CARGO_TARGET_DIR never
build or check each other's sources. The harness
prints a host line and an accounting line; this script checks its result
line against BENCHMARK.json and prints it as the last line of stdout. Any
build failure, failed correctness check or missing metric exits non-zero
without a result line. Metric definitions and the layer map: METRICS.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_wide_pool", "fleet_narrow_pool", "serve_nullop", "serve_apps")
HARNESS_TIMEOUT_S = 170

FLEET_LAYERS = [
    "scenario.fleet_generate_s", "scenario.fleet_build_s",
    "sim.window_ms_p50", "sim.window_ms_p99", "sim.windows", "fleet.finish_s",
    "fleet.decision_us_p50", "fleet.decision_us_p99",
    "fleet.decisions", "fleet.completions", "fleet.rejected", "fleet.aborted",
    "fleet.remote_share", "fleet.rejected_share", "fleet.cross_island_share",
    "fleet.server_util_mean", "fleet.islands",
    "obs.peak_live_mb", "fleet.bytes_per_client",
]
SERVE_LAYERS = [
    "scenario.session_train_s", "scenario.session_clone_ms",
    "serve.begin_rtt_us_p50", "serve.begin_rtt_us_p99",
    "serve.end_rtt_us_p50", "serve.end_rtt_us_p99",
    "serve.transport_share", "serve.sessions", "serve.ops",
    "protocol.encode_us", "protocol.decode_us", "protocol.bytes_per_op",
    "wal.render_us", "wal.bytes_per_op", "wal.parse_s", "wal.replay_s",
    "wal.sessions_replayed", "wal.replay_waste",
    "service.begin_op_us", "service.end_op_us",
]
APP_LAYERS = [
    f"{m}.{app}"
    for app in ("speech", "latex", "pangloss")
    for m in ("decision.begin_us", "decision.cache_prediction_us",
              "decision.choose_us", "decision.other_us", "apps.execute_us",
              "decision.end_op_us", "solver.evaluations",
              "solver.memo_hit_ratio", "core.candidate_servers")
]
# Per-layer metrics each workload's traced run must measure itself; the
# rest of BENCHMARK.json's per_layer list does not apply to it and reads 0.
# fleet_narrow_pool and serve_apps are not in BENCHMARK.json (too unsteady
# on a shared host to gate on) but stay runnable; fleet_wide_pool measures
# every fleet layer, and serve_nullop's traced run measures the per-app
# decision layers in-process on serve_apps requests.
LAYERS_OF = {
    "fleet_wide_pool": FLEET_LAYERS + ["trace.overhead_share"],
    "fleet_narrow_pool": FLEET_LAYERS + ["trace.overhead_share"],
    "serve_nullop": SERVE_LAYERS + APP_LAYERS + ["trace.overhead_share"],
    "serve_apps": SERVE_LAYERS + APP_LAYERS + ["trace.overhead_share"],
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "spectra", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def work_dirs(out_dir):
    """The build and state directories of this source root under out_dir."""
    key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return out_dir / f"perfbench-{key}", out_dir / f"perfbench-state-{key}"


def source_digest():
    """Content digest of every source the benchmarked binaries build from:
    the program's (CMakeLists.txt, src/) and the harness's."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             HERE / "CMakeLists.txt", *sorted((HERE / "harness").rglob("*"))]
    for f in files:
        if f.is_file():
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "src-sha256-" + digest.hexdigest()[:16]


def revision(source):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return source  # not a git checkout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no spectra source tree at {ROOT}")
    spec = json.loads(spec_path.read_text())

    out_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_dir.is_absolute():
        out_dir = ROOT / out_dir
    build_dir, state_dir = work_dirs(out_dir)
    build(build_dir)

    # Expected fingerprints and digests are kept per source digest: they
    # assert determinism across runs of one program, not across changes.
    source = source_digest()
    cmd = [str(build_dir / "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--size={args.size}",
           f"--state-dir={state_dir}", f"--revision={revision(source)}",
           f"--source={source}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # The harness prints no result line when a check fails.
        sys.stdout.write(proc.stdout)
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = result["metrics"]
    required = set(LAYERS_OF[args.workload]) if args.trace else set(units)
    missing = sorted(required - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        fail(f"metrics missing {missing}, unlisted {extra}")
    for name, m in metrics.items():
        if m["unit"] != units[name]:
            fail(f"{name}: unit {m['unit']} != {units[name]} in BENCHMARK.json")
    for name in units:
        metrics.setdefault(name, {"value": 0, "unit": units[name]})
    if not result.get("correct") or result.get("attempted", 0) < 1:
        fail("result is not correct")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
