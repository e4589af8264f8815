#!/usr/bin/env python3
"""End-to-end benchmark of the vlm_simulate -> archive -> vlm_analyze path.

Run from the repository root:

  python3 e2ebench/run.py --workload zipf-ingest --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --all            # parity self-test + every workload

The first call configures and builds the libraries, both tools and the
benchmark program into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); later calls rebuild incrementally. The program's
last stdout line is the JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("zipf-ingest", "zipf-city", "sioux-falls")
STEERING = ("VLM_KERNELS", "VLM_DECODE", "VLM_INGEST", "VLM_INGEST_PIPELINE",
            "VLM_METRICS", "VLM_TRACE")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def run_quiet(cmd, timeout):
    """Runs a build step; prints its output to stderr only if it fails."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            timeout=timeout)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-20000:])
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build():
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / required).is_file():
            fail(f"{required} not found: run from a checkout of the repository")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                  BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(out), "-j", "4", "--target",
               "e2e_bench", "vlm_simulate", "vlm_analyze"], BUILD_TIMEOUT_S)
    return out


def run_bench(out, args, capture):
    """Runs e2e_bench to completion; kills it if it overruns."""
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "e2e_bench"), *args, "--work-dir", str(work)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"e2e_bench exceeded {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, stdout


def run_all(out, seed, seconds):
    parity = subprocess.run(
        [sys.executable, str(HERE / "parity_test.py"),
         "--bench", str(out / "e2e_bench"),
         "--simulate", str(out / "vlm_tools" / "vlm_simulate"),
         "--analyze", str(out / "vlm_tools" / "vlm_analyze"),
         "--work-dir", str(out / "parity")], timeout=RUN_TIMEOUT_S * 3)
    ok = parity.returncode == 0
    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"\n== {workload} (trace {trace}) ==", flush=True)
            code, stdout = run_bench(
                out, ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)], True)
            sys.stdout.write(stdout)
            result = json.loads(stdout.strip().splitlines()[-1])
            ok = ok and code == 0 and result["correct"]
            summary.append((workload, trace, result))
    print("\n== end-to-end metrics ==")
    for workload, trace, result in summary:
        if trace:
            continue
        print(f"{workload}: failed_fraction "
              f"{result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:16.6g} {metric['unit']}")
    print(f"\ntool parity: {'ok' if parity.returncode == 0 else 'FAILED'}; "
          f"all checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="tool-parity self-test, then every workload "
                             "untraced and traced")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    steering = [name for name in STEERING if name in os.environ]
    if steering:
        fail(f"{', '.join(steering)} set: these steer the code under test")
    out = build()
    if args.all:
        return run_all(out, args.seed, args.seconds)
    code, _ = run_bench(out, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], False)
    return code


if __name__ == "__main__":
    sys.exit(main())
