#!/usr/bin/env python3
"""The repo benchmark: builds the driver, runs one workload, checks it, and
prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver (perfbench/driver.cpp) is built
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on first use. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (perfbench/summary.py). Human-readable lines go first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Workloads, metrics and predictions: perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import summary  # noqa: E402

# Every workload the driver knows. BENCHMARK.json gates all but list-read,
# the read-only control, which is too noisy on a shared host for the
# benchmark's bounds (perfbench/README.md, "Noise"); it runs on demand.
WORKLOADS = ("list-update", "list-read", "tree-large", "list-update-ptp")
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
                        "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"library sources not found under {ROOT}/src")
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "2"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, run_dir, workload, seed, seconds, trace, extra=()):
    """Runs the driver once into run_dir and returns its result.json."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    env.pop("ORC_TRACE", None)
    env.pop("ORC_TRACE_DUMP", None)
    if trace:
        env["ORC_TRACE"] = "1"
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", run_dir, *extra]
    subprocess.run(cmd, check=True, env=env, timeout=DRIVER_TIMEOUT_S)
    with open(os.path.join(run_dir, "result.json")) as f:
        return json.load(f)


def evaluate(result):
    """Correctness of one run: (correct, attempted, failed, reasons).

    A contains that disagrees with the prefill on the read-only workload is
    one failed op. A size that does not add up, objects left after the
    structure is destroyed, or a prefill insert that failed make every op of
    the run count as failed. A run with no completed op fails.
    """
    c, ops = result["checks"], result["ops"]
    attempted = ops["insert"] + ops["remove"] + ops["contains"]
    failed = c["membership_mismatches"]
    run_level = []
    if c["final_size"] != c["expected_size"]:
        run_level.append(f"final size {c['final_size']} != prefill + inserts - removes "
                         f"= {c['expected_size']}")
    if c["objects_after"] != c["objects_before"] or c["leaked_setups"]:
        run_level.append(f"objects not reclaimed: {c['objects_after']} live after teardown, "
                         f"{c['objects_before']} before prefill, {c['leaked_setups']} leaky "
                         "earlier set-ups")
    if c["prefill_failed"]:
        run_level.append(f"{c['prefill_failed']} prefill inserts failed")
    if attempted == 0:
        run_level.append("no operation completed")
        attempted = 1
    if run_level:
        failed = attempted
    reasons = run_level
    if c["membership_mismatches"]:
        reasons = [f"{c['membership_mismatches']} contains results disagree with the prefill"]
        reasons += run_level
    return not reasons, attempted, failed, reasons


def fast_quartile(values, better):
    """The quartile of per-window values on the fast side: the 75th
    percentile of a higher-is-better value, the 25th of a lower-is-better.

    Interference from other tenants of the host only ever slows a window,
    and on a shared 4-vCPU VM it can last for most of a 35 s run: the
    membarrier-based heavy fences wait for every vCPU, so list-update's p99
    then doubles. The fast quartile holds while up to 3/4 of a run's windows
    are disturbed, the median only while under 1/2. A change to the program
    shifts every window, so it moves this quartile as it moves the median.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] if better == "higher" else q[0]


def end_to_end(result):
    tpn = result["ticks_per_ns"]
    ws = result["windows"]
    return {
        "ops_per_s": fast_quartile((w["ops"] / w["secs"] for w in ws), "higher"),
        "op_p50_us": fast_quartile((w["p50_ticks"] for w in ws), "lower") / tpn / 1e3,
        "op_p99_us": fast_quartile((w["p99_ticks"] for w in ws), "lower") / tpn / 1e3,
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def fingerprint(result):
    cfg = result["config"]
    return (f"# host: nproc={cfg['nproc']} cpu={cfg['cpu']!r} kernel={cfg['kernel']!r}\n"
            f"# config: workload={cfg['workload']} seed={cfg['seed']} threads={cfg['threads']} "
            f"asym_mode={cfg['asym_mode']} build={cfg['build_type']} "
            f"telemetry={cfg['telemetry']} trace={int(cfg['trace'])} "
            f"windows={len(result['windows'])}x{cfg['window_ms']}ms "
            f"warmup={cfg['warmup_ms']}ms latency_sample=1/{cfg['sample_every']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        driver = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    run_dir = os.path.join(build_dir(), "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        result = run_driver(driver, run_dir, args.workload, args.seed, args.seconds, args.trace)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"perfbench: driver run failed: {e}")
        return 1
    log(f"perfbench: run directory {run_dir}")

    correct, attempted, failed, reasons = evaluate(result)
    print(fingerprint(result))
    for r in reasons:
        print(f"# CHECK FAILED: {r}")
    if args.trace:
        metrics, details = summary.per_layer(run_dir)
        summary.print_summary(metrics, details)
        units = summary.PER_LAYER_UNITS
    else:
        metrics = end_to_end(result)
        units = END_TO_END_UNITS
        samples = sum(w["samples"] for w in result["windows"])
        for name, unit in units.items():
            print(f"{name:12s} {metrics[name]:14.6f} {unit}")
        print(f"failed_share {failed / attempted:14.6f} ratio ({failed} of {attempted} ops)")
        print(f"# ops_per_s, latency: fast quartile over {len(result['windows'])} windows "
              f"of per-window values, {samples} sampled ops; setup_s: median of "
              f"{len(result['setup_s'])} set-ups")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
