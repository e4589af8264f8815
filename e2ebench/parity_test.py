#!/usr/bin/env python3
"""Tool-parity self-test for the end-to-end benchmark program.

For a small configuration of each workload shape at a fixed seed, the
benchmark's archive must be byte-identical to the one vlm_simulate writes,
and the benchmark's decoded matrix must equal vlm_analyze --matrix --csv.
This is what shows the benchmark runs the tools' path.

  python3 parity_test.py --bench B --simulate S --analyze A --work-dir W
"""

import argparse
import csv
import subprocess
import sys
from pathlib import Path

SEED = 7
WORKERS = 4  # e2e_bench's fixed worker count
# (workload preset, e2e_bench overrides, matching vlm_simulate flags)
SHAPES = [
    ("zipf-ingest", ["--rsus", "8", "--vehicles", "20000", "--periods", "2"],
     ["--network", "zipf", "--rsus", "8", "--vehicles", "20000",
      "--periods", "2"]),
    ("zipf-city", ["--rsus", "48", "--vehicles", "30000", "--periods", "1"],
     ["--network", "zipf", "--rsus", "48", "--vehicles", "30000",
      "--periods", "1"]),
    ("sioux-falls", ["--scale", "0.25", "--periods", "2"],
     ["--network", "sioux-falls", "--scale", "0.25", "--periods", "2"]),
]


def run(cmd):
    result = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, timeout=300)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        raise SystemExit(f"FAILED: {' '.join(map(str, cmd))} exited "
                         f"{result.returncode}")


def matrix_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], sorted(rows[1:])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("bench", "simulate", "analyze", "work-dir"):
        parser.add_argument(f"--{flag}", required=True)
    args = parser.parse_args()
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    failures = 0
    for workload, overrides, tool_flags in SHAPES:
        bench_archive = work / f"{workload}-bench.bin"
        tool_archive = work / f"{workload}-tool.bin"
        bench_csv = work / f"{workload}-bench.csv"
        tool_csv = work / f"{workload}-tool.csv"
        run([args.bench, "--workload", workload, "--seed", SEED,
             "--repetitions", 1, *overrides,
             "--archive-out", bench_archive, "--matrix-csv", bench_csv,
             "--work-dir", work])
        run([args.simulate, *tool_flags, "--seed", SEED, "--workers", WORKERS,
             "--out", tool_archive])
        run([args.analyze, "--in", tool_archive, "--matrix", "--top", 0,
             "--workers", WORKERS, "--csv", tool_csv])
        same_archive = bench_archive.read_bytes() == tool_archive.read_bytes()
        bench_header, bench_rows = matrix_rows(bench_csv)
        tool_header, tool_rows = matrix_rows(tool_csv)
        same_matrix = bench_header == tool_header and bench_rows == tool_rows
        archive_word = "identical" if same_archive else "DIFFERS"
        print(f"{workload}: archive {archive_word}"
              f" ({tool_archive.stat().st_size} bytes), matrix "
              f"{'identical' if same_matrix else 'DIFFERS'} "
              f"({len(tool_rows)} pairs)")
        failures += (not same_archive) + (not same_matrix)
        if len(tool_rows) == 0:
            print(f"{workload}: the tool decoded no pairs")
            failures += 1
    print("tool parity: " + ("ok" if failures == 0 else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
