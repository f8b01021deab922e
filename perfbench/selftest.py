#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every checker is fed a deliberately wrong expectation (the driver's
   --inject flag) and must report the run as failed; the same short run
   without injection must pass.
2. run.py must emit, for every workload it knows (BENCHMARK.json's and the
   list-read control), exactly the metrics BENCHMARK.json names, each with
   its unit: the end-to-end ones with --trace 0, the per-layer ones with
   --trace 1.
Exits 0 when everything holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# (inject, workload): the checker each injection targets runs on that workload.
INJECTIONS = (
    ("membership", "list-read"),
    ("size", "list-update"),
    ("size", "tree-large"),
    ("reclaim", "list-update"),
    ("reclaim", "list-update-ptp"),
    ("idle", "list-read"),
)


def check_checkers(driver, failures):
    scratch = os.path.join(run.build_dir(), "selftest")
    for workload in run.WORKLOADS:
        result = run.run_driver(driver, scratch, workload, 7, 0.3, False)
        correct, attempted, failed, reasons = run.evaluate(result)
        ok = correct and failed == 0 and attempted > 0
        print(f"{'ok  ' if ok else 'FAIL'} clean run passes the checks: {workload} {reasons}")
        if not ok:
            failures.append(f"clean {workload}")
    for inject, workload in INJECTIONS:
        result = run.run_driver(driver, scratch, workload, 7, 0.3, False,
                                ("--inject", inject))
        correct, attempted, failed, reasons = run.evaluate(result)
        ok = not correct and failed > 0 and reasons
        print(f"{'ok  ' if ok else 'FAIL'} injected {inject} fault is reported: "
              f"{workload}: {failed}/{attempted} failed, {reasons}")
        if not ok:
            failures.append(f"inject {inject} on {workload}")


def check_metrics(failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    unknown = [w["name"] for w in bench["workloads"] if w["name"] not in run.WORKLOADS]
    if unknown:
        failures.append(f"BENCHMARK.json workloads {unknown} not in run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "11", "--seconds", "1", "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            problems = []
            if p.returncode != 0:
                problems.append(f"exit {p.returncode}: {p.stderr[-300:]}")
            else:
                last = json.loads(p.stdout.strip().splitlines()[-1])
                if set(last) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(last)}")
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"metrics {got} != {expected[trace]}")
                if not all(isinstance(v["value"], (int, float)) for v in last["metrics"].values()):
                    problems.append("non-numeric value")
                if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
                    problems.append(f"run not correct: {last['failed']}/{last['attempted']}")
            print(f"{'FAIL' if problems else 'ok  '} metrics emitted with units: "
                  f"{workload} --trace {trace} {problems}")
            if problems:
                failures.append(f"metrics {workload} trace {trace}")


def main():
    driver = run.build()
    failures = []
    check_checkers(driver, failures)
    check_metrics(failures)
    print(f"selftest: {'FAILED ' + ', '.join(failures) if failures else 'all checks hold'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
