#!/usr/bin/env python3
"""Benchmark self-tests, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Run from the root of a source checkout; it shares run.py's build. Checks:
  1. every end-to-end metric in BENCHMARK.json is printed, with its unit,
     by an untraced run of every workload;
  2. every per-layer metric is printed, with its unit, by a traced run of
     every workload (run.py itself fails a traced run that misses one of
     the metrics listed for its workload);
  3. a tampered fleet fingerprint and a tampered serve decision digest each
     fail the run: exit non-zero, no result line;
  4. a directory holding only BENCHMARK.json and perfbench/ fails cleanly.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import work_dirs  # noqa: E402

SEED = 424242
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
if not OUT.is_absolute():
    OUT = ROOT / OUT
EXPECT = work_dirs(OUT)[1] / "expect"
failures = []


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(OUT))
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_metrics(workload, trace):
    code, result, err = run(workload, trace)
    section = "per_layer" if trace else "end_to_end"
    expect(code == 0 and result is not None,
           f"{workload} trace={trace} runs clean" + ("" if code == 0 else ": " + err[-400:]))
    if result is None:
        return
    printed = result["metrics"]
    for m in SPEC[section]:
        got = printed.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            expect(False, f"{workload} trace={trace} prints {m['name']} [{m['unit']}]")
            return
    expect(True, f"{workload} trace={trace} prints all {len(SPEC[section])} "
                 f"{section} metrics with units")


def check_tamper(workload, key):
    # The file the run just wrote, keyed by the current source digest.
    path, = EXPECT.glob(f"{workload}-tiny-{SEED}-*.txt")
    original = path.read_text()
    tampered = []
    for line in original.splitlines():
        k, v = line.split(" ", 1)
        if k == key:
            v = ("0" if v[0] != "0" else "1") + v[1:]
        tampered.append(f"{k} {v}")
    path.write_text("\n".join(tampered) + "\n")
    try:
        code, result, err = run(workload, 0)
        expect(code != 0 and result is None and key in err,
               f"{workload}: a tampered {key} fails the run")
    finally:
        path.write_text(original)


def check_bare_directory():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "serve_nullop",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                          timeout=180, env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "a directory with only the benchmark exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    for f in EXPECT.glob(f"*-tiny-{SEED}-*.txt"):
        f.unlink()
    # fleet_narrow_pool and serve_apps are runnable though not benchmark
    # workloads; test them too.
    for workload in [w["name"] for w in SPEC["workloads"]] + [
            "fleet_narrow_pool", "serve_apps"]:
        check_metrics(workload, 0)
        check_metrics(workload, 1)
    check_tamper("fleet_wide_pool", "fingerprint")
    check_tamper("serve_nullop", "conn0.digest")
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
