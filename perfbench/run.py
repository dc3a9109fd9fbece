#!/usr/bin/env python3
"""Repository benchmark: builds rbc_perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_d1 --seed 1 --seconds 10 --trace 0

Workloads: fleet_d1, fused_d2, hostile_d3, search_d3 (see perfbench/NOTES.md).
--trace 0 prints the end-to-end metrics of an untraced timed window;
--trace 1 runs the workload again with tracing and a probe pass and prints
the per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the host
fingerprint and run details. The exit code is non-zero when the build fails,
the repository sources are missing, or any session outcome is corrupted.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root. RBC_HASH_SIMD in the environment caps the hash
kernels' SIMD level as it does for every binary of the repository.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fleet_d1", "fused_d2", "hostile_d3", "search_d3")
BUILD_TYPE = "Release"
# setup_s is the median of this many set-ups, each in a fresh process.
SETUPS = 3
# Wall-clock budget for all measuring processes of one run, after the build.
RUN_BUDGET_S = 170
ISA_FLAGS = ("sse4_2", "avx", "avx2", "bmi2", "avx512f", "avx512bw", "avx512vl",
             "sha_ni", "aes", "vaes", "vpclmulqdq")


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build(out):
    """Configures once and rebuilds incrementally; returns the binary path."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(out / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(out), "--target", "rbc_perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=840)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(3, f"build step {step[:2]} failed: {err}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(3, f"build failed (see {log_path})")
    return out / "rbc_perfbench"


def source_digest():
    """SHA-256 over the sources the benchmark builds: a commit stand-in when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [p for p in BENCH_DIR.iterdir() if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def compiler(out):
    cache = out / "CMakeCache.txt"
    path = None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
    if not path:
        return None
    try:
        done = subprocess.run([path, "--version"], capture_output=True,
                              text=True, timeout=10)
        return done.stdout.splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return path


def fingerprint(out):
    model, flags = None, set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model is None:
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "isa_flags": [f for f in ISA_FLAGS if f in flags],
        "compiler": compiler(out),
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "rbc_hash_simd_env": os.environ.get("RBC_HASH_SIMD"),
    }


def run_binary(binary, args, deadline):
    """Runs the program and returns (exit code, parsed last stdout line)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(4, f"{args} did not finish within {timeout:.0f} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(4, f"{args} exited {done.returncode} without a result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail(2, "--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"repository sources not found under {ROOT}")

    out = build_dir()
    binary = build(out)
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    setups = []
    if args.trace == 0:
        for _ in range(SETUPS - 1):
            code, res = run_binary(binary, common + ["--setup-only"], deadline)
            if code != 0 or not res.get("correct"):
                fail(1, f"set-up run failed: {res}")
            setups.append(res["metrics"]["setup_s"]["value"])
    else:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        common += ["--trace-out",
                   str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, res = run_binary(binary, common, deadline)

    info = res.pop("info", {})
    metrics = res["metrics"]
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        info["setup_s_runs"] = setups
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({"fingerprint": fingerprint(out), "info": info}))
    print(json.dumps({"correct": bool(res["correct"]) and code == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    sys.exit(0 if code == 0 and res["correct"] else 1)


if __name__ == "__main__":
    main()
