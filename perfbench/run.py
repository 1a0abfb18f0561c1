#!/usr/bin/env python3
"""Pipeline benchmark driver.

Builds perfbench/ (the osss libraries plus pipeline_bench) in Release, runs
one workload and prints its result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload flow|jit|sim|nojit --seed N \\
        --seconds S --trace 0|1 [--inject ref|mutant]

With --trace 0 the metrics are the end-to-end ones, from three cold
processes that each run a third of the rounds: set-up time is the median of
their times from spawn to the end of the first round's output checks, every
other metric the median over all their samples.  With --trace 1 one traced
process gives the per-layer rows and writes a Chrome trace to .bench_work/.  --inject
plants a fault for the benchmark's own tests: "ref" corrupts the reference
area, "mutant" makes the flow workload's planted fault a no-op.

Exit codes: 0 all checks passed, 1 failed operations (result printed),
2 set-up error (no result), 3 timeout (no result).
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("flow", "jit", "sim", "nojit")
# Cold processes per --trace 0 run: setup_s is the median of their set-up
# times, the other metrics the median over all their samples.
PROCESSES = 3
# Pool contexts of every benchmark process (never more than the cpus).
MAX_CONTEXTS = 4
# Budget of one run after the build.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
    "area_ge": "GE",
    "fmax_mhz": "MHz",
    "first_cycle_s": "s",
    "lane_cycles_per_s": "1/s",
}


class SetupError(Exception):
    pass


class Timeout(Exception):
    pass


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SetupError("library sources not found next to perfbench/")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            raise SetupError("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "pipeline_bench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SetupError("build failed")
    return BUILD_DIR / "pipeline_bench"


def references():
    """Post-opt area (both flows) and fmax (lower flow) from EXPERIMENTS.md
    R1/R2, the values the flow workload must reproduce."""
    path = ROOT / "EXPERIMENTS.md"
    if not path.is_file():
        raise SetupError("EXPERIMENTS.md not found")
    text = path.read_text(encoding="utf-8")
    num = r"\*\*([0-9.]+)\*\*"
    total = re.search(r"^\| \*\*TOTAL\*\* \| " + r" \| ".join([num] * 6),
                      text, re.M)
    fmax = re.search(r"Flow fmax: OSSS \*\*[0-9.]+ → ([0-9.]+) MHz\*\* < "
                     r"VHDL \*\*[0-9.]+ → ([0-9.]+) MHz\*\*", text)
    if not total or not fmax:
        raise SetupError("R1/R2 reference values not found in EXPERIMENTS.md")
    return (float(total[2]) + float(total[5]),
            min(float(fmax[1]), float(fmax[2])))


def child_env():
    """The caller's environment without any OSSS_* override."""
    return {k: v for k, v in os.environ.items() if not k.startswith("OSSS_")}


def run_process(cmd, deadline):
    """Run one benchmark process; returns (set-up seconds, result, env)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Timeout("run budget exhausted")
    spawned = time.monotonic()
    proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise Timeout("benchmark process timed out")
    if proc.returncode != 0:
        raise SetupError(f"benchmark process exited {proc.returncode}")
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    stamp = next((l["first_verified_mono"] for l in lines
                  if "first_verified_mono" in l), None)
    result = next((l["result"] for l in lines if "result" in l), None)
    env = next((l["env"] for l in lines if "env" in l), None)
    if result is None:
        raise SetupError("benchmark process printed no result")
    return (None if stamp is None else stamp - spawned), result, env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("ref", "mutant"))
    args = ap.parse_args()

    try:
        area, fmax = references()
        if args.inject == "ref":
            area += 100.0
        exe = build()
    except SetupError as e:
        log(e)
        return 2

    contexts = min(MAX_CONTEXTS, len(os.sched_getaffinity(0)))
    WORK_DIR.mkdir(exist_ok=True)
    base = [exe, "--workload", args.workload, "--seed", args.seed,
            "--work", WORK_DIR, "--contexts", contexts,
            "--ref-area", area, "--ref-fmax", fmax]
    if args.inject == "mutant":
        base += ["--inject", "mutant"]
    trace_file = WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
    if args.trace:
        runs = [base + ["--seconds", args.seconds, "--trace", 1,
                        "--trace-out", trace_file]]
    else:
        # Each cold process runs its share of the rounds, so per-process
        # effects (code and data placement) average out over the run.
        share = args.seconds / PROCESSES
        runs = [base + ["--seconds", share, "--trace", 0]] * PROCESSES

    deadline = time.monotonic() + DEADLINE_S
    attempted = failed = 0
    notes, setups, samples, round_times = [], [], {}, []
    try:
        if args.workload == "sim":
            # Fill the persistent JIT disk cache before anything is timed;
            # after the first run in a checkout this only loads it.
            run_process(base + ["--seconds", 0, "--trace", 0, "--setup-only"],
                        deadline)
        for cmd in runs:
            setup_s, res, env = run_process(cmd, deadline)
            if setup_s is not None:  # None: the first round threw
                setups.append(setup_s)
            attempted += res["attempted"]
            failed += res["failed"]
            notes += res["notes"]
            round_times.append(res["samples"]["round_s"])
            for name, vals in res["samples"].items():
                samples.setdefault(name, []).extend(vals)
    except (SetupError, Timeout) as e:
        log(e)
        return 3 if isinstance(e, Timeout) else 2

    if args.trace:
        metrics = res["per_layer"]
    else:
        samples["setup_s"] = setups
        # Engines differ in size by orders of magnitude, so a median over
        # all of them would jump between engines; each engine contributes
        # the median of its samples and first_cycle_s is their geometric
        # mean.
        per_engine = [statistics.median(v) for k, v in samples.items()
                      if k.startswith("first_cycle_s/")]
        if per_engine:
            samples["first_cycle_s"] = [statistics.geometric_mean(per_engine)]
        missing = [n for n in E2E_UNITS if not samples.get(n)]
        if missing:
            log("no samples for", ", ".join(missing))
            return 2
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit} for name, unit in E2E_UNITS.items()}
    details = {
        "workload": args.workload,
        "env": dict(env or {}, load_end=res["load_end"]),
        "setup_samples_s": setups,
        "round_times_s": round_times,
        "traced_rounds": res["traced_rounds"],
        "trace_file": str(trace_file.relative_to(ROOT)) if args.trace else None,
        "notes": notes[:8],
    }
    print(json.dumps({"details": details}))
    for n in notes[:8]:
        log("FAILED:", n)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
