#!/usr/bin/env python3
"""Self-test of the benchmark at trimmed sizes. Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * every workload runs, passes its gates and reports every metric that
    BENCHMARK.json names, with its unit, traced and untraced;
  * virtual metrics are bit-identical across two runs with one seed;
  * changing the seed changes grad-storm's call mix.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VIRTUAL = ("virtual_samples_per_s", "virtual_op_us_p50", "virtual_op_us_p99",
           "job_latency_us_p50", "job_latency_us_p99")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--trimmed", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    first = {}
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            meta, result = run(name, 1, trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace {trace}: correct, attempted {result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace], f"{name} trace {trace}: metrics and units as declared")
            if trace == 0:
                check(all(result["metrics"][k]["value"] != 0 for k in declared[0]),
                      f"{name}: no end-to-end metric reads 0")
                first[name] = (meta, result)
        _, again = run(name, 1, 0)
        same = all(again["metrics"][k]["value"] == first[name][1]["metrics"][k]["value"]
                   for k in VIRTUAL)
        check(same, f"{name}: virtual metrics bit-identical for one seed")

    meta1, r1 = first["grad-storm"]
    meta2, r2 = run("grad-storm", 2, 0)
    mix = ("broadcast_calls_per_rank", "bucketable_calls_per_rank")
    check(any(meta1["sizes"][k] != meta2["sizes"][k] for k in mix) or
          any(r1["metrics"][k]["value"] != r2["metrics"][k]["value"] for k in VIRTUAL),
          "grad-storm: another seed gives another mix")
    print("selftest passed")


if __name__ == "__main__":
    main()
