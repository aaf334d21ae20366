#!/usr/bin/env python3
"""Smoke test: every workload, untraced and traced, for three items.

Checks that each run exits 0 with every output correct, that its last
stdout line has exactly the keys correct/attempted/failed/metrics, and that
the metric names are exactly the end_to_end (untraced) or per_layer
(traced) names in BENCHMARK.json, with the declared units.

  smoke_test.py PERFBENCH_BINARY BENCHMARK_JSON
"""
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 300


def main(binary, bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    workdir = os.path.join(os.path.dirname(os.path.abspath(binary)), "smoke")
    os.makedirs(workdir, exist_ok=True)
    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[section]}
            cmd = [binary, "--workload", w, "--seed", "1",
                   "--seconds", str(bench["run_seconds"]), "--items", "3",
                   "--trace", str(trace), "--workdir", workdir]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            label = f"{w} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{label}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got.items())} != "
                                f"BENCHMARK.json {sorted(want.items())}")
            print(f"ok   {label}: {result['attempted']} items")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
