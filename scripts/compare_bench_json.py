#!/usr/bin/env python3
"""Bench-regression gate: compare BENCH_*.json artifacts against checked-in
baselines and fail on regressions.

Baselines live in `bench-baselines/` (same filenames the perf-track CI job
produces; see bench-baselines/README.md for regeneration). Matching is by
file basename, then by experiment name, then by per-row identity keys.

Three kinds of bands, chosen per metric:

* **deterministic** — persist/fence counts the algorithms guarantee; they
  must stay within a tight ratio band of the baseline in *both*
  directions (an unexplained improvement is as suspicious as a
  regression: it usually means the experiment stopped measuring what it
  claims to).
* **within-run ratio** — the fastpath artifact carries its own floor
  (`raw_load_ns`, the load chain on bare atomics): the direct row's
  `load_ns` must stay within 2x of it, and one named-counter increment
  (`counter_incr_ns`) within 3x. Both sides come from the current run, so
  the band is tight without depending on the runner.
* **throughput/latency** — wall-clock dependent; CI machines are noisy
  and heterogeneous, so only the regression direction is gated, with a
  deliberately loose factor. The trajectory table (printed for every
  compared metric) is the instrument for spotting slow drift; the gate
  only catches cliffs.

A row present in the baseline but missing from the current artifact FAILS
(silently dropping coverage is the regression this script exists for). A
current artifact with no baseline file is reported — add the baseline.

Usage: compare_bench_json.py --baseline-dir bench-baselines FILE.json ...
"""

import argparse
import json
import os
import sys

# Deterministic counters: current/baseline must stay in [lo, hi].
TIGHT = (0.90, 1.10)
# Throughput (bigger is better): current must be >= lo * baseline.
FLOOR = 0.25
# Latency (smaller is better): current must be <= hi * baseline.
CEIL = 4.0


def band_tight(metric):
    return (metric, "tight", TIGHT)


def band_floor(metric):
    return (metric, "floor", FLOOR)


def band_ceil(metric):
    return (metric, "ceil", CEIL)


# experiment -> (row identity keys, [metric bands])
RULES = {
    "counts": (
        ("algorithm",),
        [
            band_tight("enq_fences"),
            band_tight("deq_fences"),
            band_tight("enq_flushes"),
            band_tight("nt_stores_per_op"),
            band_tight("post_flush_per_op"),
        ],
    ),
    "shards": (
        ("shards",),
        [band_floor("mops"), band_tight("fences_per_op")],
    ),
    # Kill timing makes restart row metrics non-comparable; coverage (the
    # row set itself) is still gated by the missing-row rule.
    "restart": (("algorithm", "shards"), []),
    "fastpath": (
        ("mode",),
        [band_ceil("load_ns"), band_ceil("persist_ns"), band_ceil("map_ref_ns")],
    ),
    "lease": (("shards",), [band_floor("acked_per_sec")]),
    "lease_groups": (("shards",), [band_floor("acked_per_sec")]),
    "group_commit": (
        ("producers", "mode", "window_us"),
        [band_floor("fences_per_sec")],
    ),
    "metrics": (None, []),
    "blackbox": (None, []),
}

# A direct-mode (fixed-size pool) word access must cost about what the
# paper's model charges for it: the `load_u64` chain within this factor of
# the same chain on bare atomics, both measured in the current run, so the
# bound is independent of the runner's clock.
MAX_DIRECT_LOAD_VS_RAW = 2.0
# Counting an operation must cost about one more word access: a named
# counter's `incr` (a load and a store in the thread's own row) within this
# factor of the raw load chain. A `lock`-prefixed add measures past 5x.
MAX_COUNTER_INCR_VS_RAW = 3.0

# The group-commit layer must keep proving its win: at the highest swept
# producer count, the best coalesced rate over the per-thread rate. Kept
# below the ~2x the experiment shows on quiet hardware — this is a cliff
# detector for "batching silently stopped batching", not a perf SLO.
MIN_GC_SPEEDUP = 1.3


class Gate:
    def __init__(self):
        self.rows = []  # (context, metric, baseline, current, band, ok)
        self.failures = []

    def check(self, ctx, metric, base, cur, kind, bound):
        if kind == "tight":
            lo, hi = bound
            ok = base == cur or (base != 0 and lo <= cur / base <= hi)
            band = f"[{lo:.2f}x, {hi:.2f}x]"
        elif kind == "floor":
            ok = base == 0 or cur >= bound * base
            band = f">= {bound:.2f}x"
        else:  # ceil
            ok = base == 0 or cur <= bound * base
            band = f"<= {bound:.2f}x"
        self.rows.append((ctx, metric, base, cur, band, ok))
        if not ok:
            self.failures.append(f"{ctx}: {metric} {base!r} -> {cur!r} outside {band}")

    def fail(self, message):
        self.failures.append(message)

    def render(self):
        if self.rows:
            wid = max(len(r[0]) for r in self.rows)
            met = max(len(r[1]) for r in self.rows)
            print(f"{'where':<{wid}}  {'metric':<{met}}  {'baseline':>12}  "
                  f"{'current':>12}  {'ratio':>7}  band")
            for ctx, metric, base, cur, band, ok in self.rows:
                ratio = f"{cur / base:.3f}" if base else "-"
                verdict = "" if ok else "  << FAIL"
                print(f"{ctx:<{wid}}  {metric:<{met}}  {base:>12.4g}  "
                      f"{cur:>12.4g}  {ratio:>7}  {band}{verdict}")
        for message in self.failures:
            print(f"FAIL: {message}")


def row_key(row, identity):
    return tuple(row.get(k) for k in identity)


def compare_experiment(gate, name, base_obj, cur_obj, ctx):
    identity, bands = RULES[name]
    if identity is None:
        return
    base_rows = {row_key(r, identity): r for r in base_obj.get("rows", [])}
    cur_rows = {row_key(r, identity): r for r in cur_obj.get("rows", [])}
    for key, base_row in base_rows.items():
        label = ",".join(str(v) for v in key)
        rctx = f"{ctx}[{label}]"
        cur_row = cur_rows.get(key)
        if cur_row is None:
            gate.fail(f"{rctx}: row present in baseline but missing from current run")
            continue
        for metric, kind, bound in bands:
            if metric not in base_row or metric not in cur_row:
                gate.fail(f"{rctx}: metric {metric!r} missing")
                continue
            gate.check(rctx, metric, base_row[metric], cur_row[metric], kind, bound)
    if name == "fastpath":
        raw = cur_obj.get("raw_load_ns")
        direct = cur_rows.get(("direct",), {}).get("load_ns")
        incr = cur_obj.get("counter_incr_ns")
        if not raw or direct is None or incr is None:
            gate.fail(f"{ctx}: needs raw_load_ns, counter_incr_ns and a direct row's load_ns")
        else:
            gate.check(f"{ctx}[direct]", "load_ns vs raw_load_ns", raw, direct,
                       "ceil", MAX_DIRECT_LOAD_VS_RAW)
            gate.check(ctx, "counter_incr_ns vs raw_load_ns", raw, incr,
                       "ceil", MAX_COUNTER_INCR_VS_RAW)
    if name == "group_commit":
        speedup = cur_obj.get("speedup", {})
        gate.check(ctx, "speedup", MIN_GC_SPEEDUP, speedup.get("speedup", 0.0),
                   "floor", 1.0)


def compare_file(gate, baseline_path, current_path):
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(current_path, encoding="utf-8") as fh:
        current = json.load(fh)
    name = os.path.basename(current_path)
    # Within a file, experiment objects pair up by (experiment, ordinal):
    # the harness emits them in a deterministic order per verb.
    cur_index = {}
    for obj in current:
        key = obj.get("experiment")
        cur_index.setdefault(key, []).append(obj)
    seen = {}
    for base_obj in baseline:
        experiment = base_obj.get("experiment")
        if experiment not in RULES:
            gate.fail(f"{name}: baseline has unknown experiment {experiment!r}")
            continue
        ordinal = seen.get(experiment, 0)
        seen[experiment] = ordinal + 1
        candidates = cur_index.get(experiment, [])
        if ordinal >= len(candidates):
            gate.fail(f"{name}: experiment {experiment!r} #{ordinal} missing "
                      f"from current run")
            continue
        ctx = f"{name}:{experiment}" + (f"#{ordinal}" if ordinal else "")
        compare_experiment(gate, experiment, base_obj, candidates[ordinal], ctx)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench-baselines")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv[1:])

    gate = Gate()
    for current_path in args.files:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(current_path))
        if not os.path.exists(baseline_path):
            print(f"NOTE: no baseline for {current_path} — check one in at "
                  f"{baseline_path}")
            continue
        compare_file(gate, baseline_path, current_path)
    gate.render()
    if gate.failures:
        raise SystemExit(1)
    print(f"bench gate: {len(gate.rows)} metric(s) within bands")


if __name__ == "__main__":
    main(sys.argv)
