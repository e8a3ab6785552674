#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload.

    python3 gpubench/selftest.py

For each workload in BENCHMARK.json it checks that
  * a --trace 0 run prints exactly the end_to_end metrics, each with
    its declared unit, and a correct result with no failure;
  * two --trace 1 runs print exactly the per_layer metrics with their
    units, and repeat the seed-determined counts exactly (the input
    digest, model_err_*, funcsim.calls, timing.calls, store.hits,
    store.misses);
  * another seed changes the inputs but not the metric set.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED, OTHER_SEED, SECONDS = 7, 8, "2"
COUNTS = ["funcsim.calls", "timing.calls", "store.hits", "store.misses"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s" % (
            workload, seed, trace, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    facts = next(l for l in lines if l.startswith("inputs: "))
    return result, dict(re.findall(r"(\S+)=(\S+)", facts))


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def check_metrics(result, declared, what):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          what + ": result keys")
    got = result["metrics"]
    check(set(got) == set(declared), what + ": metric set " +
          str(sorted(set(got) ^ set(declared))))
    for name, unit in declared.items():
        check(got[name]["unit"] == unit, "%s: %s in %s" % (what, name, unit))
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, what + ": correct, nothing failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        plain, facts = run(w, SEED, 0)
        check_metrics(plain, e2e, w + " trace 0")
        first, facts1 = run(w, SEED, 1)
        second, facts2 = run(w, SEED, 1)
        check_metrics(first, layers, w + " trace 1")
        check(facts == facts1 == facts2,
              w + ": digest and model_err repeat for seed %d" % SEED)
        for name in COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            check(a == b, "%s: %s repeats (%g)" % (w, name, a))
        other, other_facts = run(w, OTHER_SEED, 0)
        check_metrics(other, e2e, w + " seed %d" % OTHER_SEED)
        check(other_facts["digest"] != facts["digest"],
              w + ": seed %d changes the inputs" % OTHER_SEED)
    print("gpubench self-test passed")


if __name__ == "__main__":
    main()
