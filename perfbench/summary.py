#!/usr/bin/env python3
"""Per-layer summary of one traced benchmark run.

    python3 perfbench/summary.py <run-dir>

<run-dir> is what `run.py --trace 1` leaves behind (its path is printed on
stderr): result.json, the driver's span dump spans.bin and the program's
trace rings dumped after every traced window (rings.jsonl, the JSONL format
of the ORC_TRACE_DUMP exit dump). The command prints every per-layer metric
by name and unit, then each span kind's count, mean duration and self time
per op, and the tracing overhead.

How spans are joined: every traced window ends with the workers parked, and
the driver dumps the program's rings then. A ring keeps only its newest
records, so for each (window, worker thread) the join uses the stretch from
the oldest record both the program's ring and the driver's span ring still
hold to the end of the window. Within it, a span's self time is its duration
minus the part its child spans (same thread, nested in time) cover. Per-op
times are self time over the driver ops in those stretches. Counter ratios
(`*_per_op`) come from exact counter deltas over all measured windows.
"""
import bisect
import json
import os
import statistics
import struct
import sys

SPAN_KINDS = {1: "scan_generation", 2: "steal_chunk", 3: "handover_drain",
              4: "bg_cycle", 5: "heavy_fence"}
OP_NAMES = ("insert", "remove", "contains")
CORE_COUNTERS = ("retired", "freed_batch", "freed_slow", "scans", "snapshots",
                 "slots_scanned", "handovers", "cascades", "shard_pushes",
                 "items_stolen", "bg_wakes")

# name -> unit, in print order. run.py reports exactly these with --trace 1.
PER_LAYER_UNITS = {
    "ds.insert_us_p50": "us", "ds.insert_us_p99": "us",
    "ds.remove_us_p50": "us", "ds.remove_us_p99": "us",
    "ds.contains_us_p50": "us", "ds.contains_us_p99": "us",
    "ds.insert_ok_ratio": "ratio", "ds.remove_ok_ratio": "ratio",
    "ds.bytes_per_key": "bytes", "ds.teardown_s": "s",
    **{f"core.{c}_per_op": "1/op" for c in CORE_COUNTERS},
    "core.frees_per_scan": "1/scan", "core.peak_garbage": "count",
    "core.retire_free_age_p50": "ns", "core.retire_free_age_p99": "ns",
    "core.scan_generation_ns_per_op": "ns/op", "core.handover_drain_ns_per_op": "ns/op",
    "asym_fence.heavy_per_op": "1/op", "asym_fence.heavy_us_mean": "us",
    "asym_fence.heavy_ns_per_op": "ns/op",
    "reclamation.retired_per_op": "1/op", "reclamation.scans_per_op": "1/op",
    "reclamation.frees_per_scan": "1/scan", "reclamation.peak_garbage": "count",
    "reclamation.retire_free_age_p99": "ns",
    "telemetry.trace_overhead": "ratio", "telemetry.ring_drop_share": "ratio",
}


def nearest_rank(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    rank = min(len(sorted_vals), max(1, int(q * len(sorted_vals) + 0.999999)))
    return sorted_vals[rank - 1]


def bucket_bounds(b):
    if b == 0:
        return 0, 0
    return 1 << (b - 1), (1 << b) - 1


def hist_percentile(buckets, q):
    """HistogramSnapshot::percentile: linear inside the log2 bucket."""
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = q * total
    cum = 0
    for b, n in enumerate(buckets):
        if n == 0:
            continue
        before, cum = cum, cum + n
        if cum < rank:
            continue
        lo, hi = bucket_bounds(b)
        return lo + (rank - before) / n * (hi - lo)
    return float(bucket_bounds(len(buckets) - 1)[1])


def ratio(num, den):
    return num / den if den else 0.0


def scheme_source(counters, name="PTP"):
    """The manual scheme's SchemeMetrics entry in telemetry::export_json()."""
    for src in counters["telemetry"]["sources"]:
        if src["name"] == name:
            return src
    return None


def scheme_age_buckets(src):
    out = [0] * 65
    if src is not None:
        for bk in src.get("histograms", {}).get("retire_free_age", {}).get("buckets", []):
            out[max(0, int(bk["lower"]).bit_length())] += bk["count"]
    return out


def load_spans(run_dir):
    path = os.path.join(run_dir, "spans.bin")
    spans = []
    if os.path.exists(path):
        with open(path, "rb") as f:
            data = f.read()
        spans = list(struct.iter_unpack("<QIHBB", data))  # t0, dur, tid, op, ok
    return spans


def load_rings(run_dir):
    """{window: {tid: [(tsc, type, arg)]}} from the per-window dumps."""
    per_window = {}
    window = None
    path = os.path.join(run_dir, "rings.jsonl")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                if "window" in row:
                    window = row["window"]
                    per_window[window] = {}
                    continue
                per_window[window].setdefault(row["tid"], []).append(
                    (row["tsc"], row["type"], row["arg"]))
    return per_window


def self_times(intervals):
    """intervals: [(start, end, kind)] on one thread. Returns [(kind, dur, self)]."""
    intervals.sort(key=lambda iv: (iv[0], -iv[1]))
    out = []
    stack = []  # (index into out, end) of the enclosing spans
    for start, end, kind in intervals:
        while stack and stack[-1][1] <= start:
            stack.pop()
        dur = end - start
        if stack:
            parent = out[stack[-1][0]]
            parent[2] -= dur
        out.append([kind, dur, dur])
        stack.append((len(out) - 1, end))
    return out


def span_join(result, spans, rings):
    """Self time per span kind over the stretches both rings still hold."""
    cfg = result["config"]
    workers = set(cfg["worker_tids"])
    ring_cap, span_cap = cfg["trace_ring"], cfg["span_ring"]
    traced = [(i, w) for i, w in enumerate(result["windows"]) if w["traced"]]
    starts = [w["t0_tsc"] for _, w in traced]
    by_window = {}  # (window, tid) -> spans that started in that traced window
    for s in spans:
        k = bisect.bisect_right(starts, s[0]) - 1
        if k >= 0 and s[0] <= traced[k][1]["t1_tsc"]:
            by_window.setdefault((traced[k][0], s[2]), []).append(s)
    kinds = {}  # kind -> [count, total_dur, total_self]
    covered_ops = 0
    window_ticks = dropped_ticks = 0
    for i, w in traced:
        t0, t1 = w["t0_tsc"], w["t1_tsc"]
        for tid in workers:
            recs = rings.get(i, {}).get(tid, [])
            ring_start = t0
            if len(recs) >= ring_cap and min(r[0] for r in recs) >= t0:
                ring_start = min(r[0] for r in recs)
            mine = by_window.get((i, tid), [])
            span_start = min(s[0] for s in mine) if len(mine) >= span_cap else t0
            start = max(ring_start, span_start)
            window_ticks += t1 - t0
            dropped_ticks += ring_start - t0
            # Program spans: pair begin/end records (kind in arg) per thread.
            open_spans = {}
            intervals = []
            for tsc, typ, arg in sorted(recs):
                if typ == "span_begin":
                    open_spans.setdefault(arg, []).append(tsc)
                elif typ == "span_end" and open_spans.get(arg):
                    begin = open_spans[arg].pop()
                    if begin >= start and tsc <= t1:
                        intervals.append((begin, tsc, SPAN_KINDS.get(arg, f"span{arg}")))
            for s in mine:
                if s[0] >= start:
                    covered_ops += 1
                    intervals.append((s[0], s[0] + s[1], "ds." + OP_NAMES[s[3]]))
            for kind, dur, self_t in self_times(intervals):
                k = kinds.setdefault(kind, [0, 0, 0])
                k[0] += 1
                k[1] += dur
                k[2] += self_t
    return kinds, covered_ops, ratio(dropped_ticks, window_ticks)


def per_layer(run_dir):
    """(metrics {name: value}, details) for one traced run directory."""
    with open(os.path.join(run_dir, "result.json")) as f:
        result = json.load(f)
    tpn = result["ticks_per_ns"]
    spans = load_spans(run_dir)
    rings = load_rings(run_dir)
    m = {}

    lat = {op: [] for op in range(3)}
    for s in spans:
        lat[s[3]].append(s[1])
    for op, name in enumerate(OP_NAMES):
        vals = sorted(lat[op])
        m[f"ds.{name}_us_p50"] = nearest_rank(vals, 0.50) / tpn / 1e3
        m[f"ds.{name}_us_p99"] = nearest_rank(vals, 0.99) / tpn / 1e3
    ops = result["ops"]
    m["ds.insert_ok_ratio"] = ratio(ops["insert_ok"], ops["insert"])
    m["ds.remove_ok_ratio"] = ratio(ops["remove_ok"], ops["remove"])
    m["ds.bytes_per_key"] = result["bytes_per_key"]
    m["ds.teardown_s"] = statistics.median(result["teardown_s"])

    start, end = result["counters_start"], result["counters_end"]
    n = ops["measured"]
    delta = {k: end[k] - start[k] for k in CORE_COUNTERS + ("heavy_fences",)}
    delta["heavy_fences"] -= result["edge_heavy_fences"]
    for c in CORE_COUNTERS:
        m[f"core.{c}_per_op"] = ratio(delta[c], n)
    m["core.frees_per_scan"] = ratio(delta["freed_batch"] + delta["freed_slow"],
                                     delta["scans"] + delta["snapshots"])
    m["core.peak_garbage"] = end["peak_unreclaimed"]
    age = [e - s for e, s in zip(end["retire_free_age"], start["retire_free_age"])]
    m["core.retire_free_age_p50"] = hist_percentile(age, 0.50) / tpn
    m["core.retire_free_age_p99"] = hist_percentile(age, 0.99) / tpn

    kinds, covered_ops, drop_share = span_join(result, spans, rings)
    m["core.scan_generation_ns_per_op"] = ratio(kinds.get("scan_generation", [0, 0, 0])[2],
                                                covered_ops) / tpn
    m["core.handover_drain_ns_per_op"] = ratio(kinds.get("handover_drain", [0, 0, 0])[2],
                                               covered_ops) / tpn
    m["asym_fence.heavy_per_op"] = ratio(delta["heavy_fences"], n)
    heavy = kinds.get("heavy_fence", [0, 0, 0])
    m["asym_fence.heavy_us_mean"] = ratio(heavy[1], heavy[0]) / tpn / 1e3
    m["asym_fence.heavy_ns_per_op"] = (m["asym_fence.heavy_us_mean"] * 1e3 *
                                       m["asym_fence.heavy_per_op"])

    s0, s1 = scheme_source(start), scheme_source(end)
    if s1 is not None:
        c0 = s0["common"] if s0 else {"retired": 0, "freed": 0, "scans": 0}
        c1 = s1["common"]
        m["reclamation.retired_per_op"] = ratio(c1["retired"] - c0["retired"], n)
        m["reclamation.scans_per_op"] = ratio(c1["scans"] - c0["scans"], n)
        m["reclamation.frees_per_scan"] = ratio(c1["freed"] - c0["freed"],
                                                c1["scans"] - c0["scans"])
        m["reclamation.peak_garbage"] = c1["peak_unreclaimed"]
        sage = [e - s for e, s in zip(scheme_age_buckets(s1), scheme_age_buckets(s0))]
        m["reclamation.retire_free_age_p99"] = hist_percentile(sage, 0.99) / tpn
    else:
        for k in ("retired_per_op", "scans_per_op", "frees_per_scan", "peak_garbage",
                  "retire_free_age_p99"):
            m["reclamation." + k] = 0.0

    rates = {True: [], False: []}
    for w in result["windows"]:
        rates[w["traced"]].append(w["ops"] / w["secs"])
    m["telemetry.trace_overhead"] = ratio(statistics.median(rates[True]) if rates[True] else 0,
                                          statistics.median(rates[False]) if rates[False] else 0)
    m["telemetry.ring_drop_share"] = drop_share
    metrics = {k: float(m[k]) for k in PER_LAYER_UNITS}
    details = {"kinds": kinds, "covered_ops": covered_ops, "ticks_per_ns": tpn,
               "config": result["config"], "spans": len(spans)}
    return metrics, details


def print_summary(metrics, details, out=sys.stdout):
    cfg = details["config"]
    print(f"# per-layer: workload={cfg['workload']} seed={cfg['seed']} "
          f"asym_mode={cfg['asym_mode']} threads={cfg['threads']}", file=out)
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}", file=out)
    tpn, n = details["ticks_per_ns"], details["covered_ops"]
    print(f"# span kinds over {n} driver ops in ring-covered stretches "
          f"({details['spans']} driver spans kept)", file=out)
    print(f"{'span':18s} {'count':>8s} {'mean_ns':>12s} {'self_ns/op':>12s}", file=out)
    for kind, (count, dur, self_t) in sorted(details["kinds"].items()):
        print(f"{kind:18s} {count:8d} {ratio(dur, count) / tpn:12.1f} "
              f"{ratio(self_t, n) / tpn:12.1f}", file=out)
    print(f"telemetry.trace_overhead {metrics['telemetry.trace_overhead']:.4f} "
          "(traced / untraced window ops/s, paired in one run)", file=out)


def main(argv):
    if len(argv) != 2 or not os.path.isfile(os.path.join(argv[1], "result.json")):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    metrics, details = per_layer(argv[1])
    print_summary(metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
