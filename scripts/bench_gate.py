#!/usr/bin/env python3
"""The one gate over `harness ... --json` artifacts: schema, within-run
invariants, and bands against the checked-in baselines.

Each artifact is a JSON array of experiment objects; every object names its
shape in "experiment" and carries the shared "meta" block. `EXPERIMENTS`
below holds one entry per shape — required keys and types, row identity,
bands, and the few cross-row invariants — so adding a harness verb is adding
an entry. The schema is additive: unknown keys are allowed, required keys
keep their meaning and type.

Baselines live in `bench-baselines/` under the file names the perf-track CI
job produces (regeneration: bench-baselines/README.md). Matching is by file
basename, then experiment name and ordinal, then the row identity keys.

Three kinds of bands:

* tight — persist/fence counts the algorithms guarantee stay within a ratio
  band of the baseline in *both* directions (an unexplained improvement
  usually means the experiment stopped measuring what it claims to).
* floor / ceil — wall-clock throughput and latency gate only the regression
  direction, loosely: CI runners are noisy, so this catches cliffs and the
  printed trajectory table is the instrument for slow drift.
* within-run — both sides come from the current run, so the band is tight
  whatever the runner: fastpath's fixed and elastic `load_ns` and
  `counter_incr_ns` against its own `raw_load_ns`, what the simulator charges per event
  and per fence's one spin (`sim_spin`) against what its latency model requests, what creating a
  256 MiB simulated pool costs (`sim_pool`) against a 1 MiB one, what
  setting up `paper-pairs`' queue flushes and costs (`sim_queue`) against
  one designated area's lines and what flushing them charges, a dependent
  load after a real `CLFLUSH` against a cached one (`hw`), a process-crash
  file pool's persist round trip against its load, group commit's
  coalesced share at 8 producers against a floor.

What fails: an experiment with no table entry, an artifact with no baseline
file, a baseline experiment or row missing from the current run (silently
dropping coverage is the regression this script exists for), a band.

Usage: bench_gate.py [--baseline-dir bench-baselines] FILE.json ...
       bench_gate.py --schema-only FILE.json ...   (no baselines consulted)
       bench_gate.py --self-test
"""

import argparse
import copy
import json
import numbers
import os
import sys


class Invalid(Exception):
    """A document that does not match its experiment's table entry."""


# ---- field types: (description, predicate) -------------------------------

def is_num(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


NUM = ("a number", is_num)
POSITIVE = ("a positive number", lambda v: is_num(v) and v > 0)
NON_NEGATIVE = ("a non-negative number", lambda v: is_num(v) and v >= 0)
STR = ("a string", lambda v: isinstance(v, str))
STR_OR_NULL = ("a string or null", lambda v: v is None or isinstance(v, str))
LIST = ("an array", lambda v: isinstance(v, list))
OBJECT = ("an object", lambda v: isinstance(v, dict))


def one_of(*values):
    return (f"one of {values!r}", lambda v: v in values)


def nums(*keys):
    return {key: NUM for key in keys}


def strs(*keys):
    return {key: STR for key in keys}


def require(obj, fields, ctx):
    if not isinstance(obj, dict):
        raise Invalid(f"{ctx}: must be an object")
    for key, (what, pred) in fields.items():
        if key not in obj:
            raise Invalid(f"{ctx}: missing required key {key!r}")
        if not pred(obj[key]):
            raise Invalid(f"{ctx}: key {key!r} must be {what}, got {obj[key]!r}")


# ---- bands: (kind, bound) ------------------------------------------------

TIGHT = ("tight", (0.90, 1.10))  # current / baseline within [lo, hi]
FLOOR = ("floor", 0.25)          # bigger is better: current >= 0.25x baseline
CEIL = ("ceil", 4.0)             # smaller is better: current <= 4x baseline

# A file pool's word access, fixed-size or elastic, must cost about what
# the paper's model charges for it: the `load_u64` chain within this factor
# of the same chain on bare atomics.
MAX_LOAD_VS_RAW = 2.0
FASTPATH_MODES = ("fixed", "elastic")
# Counting an operation must cost about one more word access: a named
# counter's `incr` within this factor of the raw load chain (a
# `lock`-prefixed add measures past 5x).
MAX_COUNTER_INCR_VS_RAW = 3.0
# The simulated pool must charge its latency model, not its clock: each
# `sim_spin` event's `charged_ns` within requested + max(25 ns, 25 %). A
# pool pays a flush or nt-store in its thread's next fence's one spin, so
# the two spins of a pair are priced too.
SPIN_SLACK_NS = 25.0
SPIN_SLACK_SHARE = 0.25
SPIN_EVENTS = {"flush", "nt_store", "fence", "nvram_read", "flush+fence", "nt_store+fence"}
# A simulated pool must cost what a run touches, not its size: creating the
# 256 MiB pool within this factor of the 1 MiB one (`sim_pool` `new_us`).
# Recorded at ~1x; images zeroed up front cost hundreds of times more.
SIM_POOL_SMALL, SIM_POOL_LARGE = 1 << 20, 256 << 20
MAX_SIM_POOL_NEW_VS_SMALL = 4.0
# Carving an area of a simulated pool, whose fresh space is durable zero
# already, costs its directory entry's flush, not a flush per line: the
# `sim_queue` set-up (pool, OptUnlinkedQ create, 10 enqueues; 12 flushes
# recorded) within this share of one area's lines, and its `setup_us`
# within this factor of what flushing one area at the run's `sim_spin`
# flush charge costs (recorded at ~0.45x; flushing the area read ~2.8x).
MAX_SIM_QUEUE_FLUSHES_VS_AREA_LINES = 0.25
MAX_SIM_QUEUE_SETUP_VS_AREA_FLUSH = 1.0
# The price the file pool stopped paying stays on record: a dependent load
# of a line just written back by a real `CLFLUSH` at least this factor over
# the same load of a cached line (`hw`; 59-68 ns against 7 ns measured on
# a Xeon). Under this bound the flush no longer evicts, and the record
# means nothing.
MIN_POST_FLUSH_VS_CACHED_LOAD = 2.0
# A process-crash file pool executes no flush or fence: each row's
# `persist_ns` (store, flush, fence) within this factor of its `load_ns`.
# Recorded at ~1x; executing CLFLUSH + SFENCE read ~170x (425 ns vs 2.5).
MAX_PROCESS_CRASH_PERSIST_VS_LOAD = 10.0
# Group commit must keep batching: at 8 producers the share of fences that
# shared a batch with another. Recorded at 0.91-0.92; a
# pipeline that never fills reads 0. A cliff detector, not a perf SLO.
GC_FLOOR_PRODUCERS = 8
MIN_GC_COALESCED_SHARE = 0.5

META_SCHEMA = 2
META = {"schema": one_of(META_SCHEMA), "backend": one_of("sim", "file"),
        "sync": STR_OR_NULL, "metrics": OBJECT}


# ---- cross-row invariants: f(obj, ctx, gate) -----------------------------
# Shape violations raise Invalid; measured ratios go through gate.check so
# they land in the trajectory table.

def fastpath_within_run(obj, ctx, gate):
    rows = {row["mode"]: row for row in obj["rows"]}
    if not all(mode in rows for mode in FASTPATH_MODES):
        raise Invalid(f"{ctx}: fastpath needs both a 'fixed' and an 'elastic' row")
    raw = obj["raw_load_ns"]
    for mode in FASTPATH_MODES:
        gate.check(f"{ctx}[{mode}]", "load_ns vs raw_load_ns", raw,
                   rows[mode]["load_ns"], "ceil", MAX_LOAD_VS_RAW)
    gate.check(ctx, "counter_incr_ns vs raw_load_ns", raw,
               obj["counter_incr_ns"], "ceil", MAX_COUNTER_INCR_VS_RAW)
    for i, spin in enumerate(obj["sim_spin"]):
        require(spin, {**strs("event"), "requested_ns": POSITIVE, "charged_ns": POSITIVE},
                f"{ctx} sim_spin[{i}]")
    events = {spin["event"] for spin in obj["sim_spin"]}
    if events != SPIN_EVENTS:
        raise Invalid(f"{ctx}: sim_spin needs events {sorted(SPIN_EVENTS)}, got {sorted(events)}")
    for spin in obj["sim_spin"]:
        requested = spin["requested_ns"]
        slack = max(SPIN_SLACK_NS / requested, SPIN_SLACK_SHARE)
        gate.check(f"{ctx}[{spin['event']}]", "charged_ns vs requested_ns", requested,
                   spin["charged_ns"], "ceil", 1.0 + slack)
    for i, pool in enumerate(obj["sim_pool"]):
        require(pool, {"size_bytes": POSITIVE, "new_us": POSITIVE}, f"{ctx} sim_pool[{i}]")
    new_us = {pool["size_bytes"]: pool["new_us"] for pool in obj["sim_pool"]}
    if not {SIM_POOL_SMALL, SIM_POOL_LARGE} <= set(new_us):
        raise Invalid(f"{ctx}: sim_pool needs a {SIM_POOL_SMALL}- and a "
                      f"{SIM_POOL_LARGE}-byte pool, got {sorted(new_us)}")
    gate.check(f"{ctx}[sim_pool]", "new_us 256 MiB vs 1 MiB", new_us[SIM_POOL_SMALL],
               new_us[SIM_POOL_LARGE], "ceil", MAX_SIM_POOL_NEW_VS_SMALL)
    queue = obj["sim_queue"]
    require(queue, {"area_bytes": POSITIVE, "setup_us": POSITIVE, **nums("flushes", "fences")},
            f"{ctx} sim_queue")
    lines = queue["area_bytes"] / 64
    flush_ns = next(spin["charged_ns"] for spin in obj["sim_spin"] if spin["event"] == "flush")
    gate.check(f"{ctx}[sim_queue]", "flushes vs one area's lines", lines, queue["flushes"],
               "ceil", MAX_SIM_QUEUE_FLUSHES_VS_AREA_LINES)
    gate.check(f"{ctx}[sim_queue]", "setup_us vs flushing one area", lines * flush_ns / 1000,
               queue["setup_us"], "ceil", MAX_SIM_QUEUE_SETUP_VS_AREA_FLUSH)
    hw = obj["hw"]
    require(hw, {key: POSITIVE for key in
                 ("flush_fence_ns", "post_flush_load_ns", "cached_load_ns")}, f"{ctx} hw")
    gate.check(f"{ctx}[hw]", "post_flush_load_ns vs cached_load_ns", hw["cached_load_ns"],
               hw["post_flush_load_ns"], "floor", MIN_POST_FLUSH_VS_CACHED_LOAD)
    if obj["meta"]["sync"] == "process-crash":
        for mode in FASTPATH_MODES:
            gate.check(f"{ctx}[{mode}]", "persist_ns vs load_ns", rows[mode]["load_ns"],
                       rows[mode]["persist_ns"], "ceil", MAX_PROCESS_CRASH_PERSIST_VS_LOAD)


def group_commit_coalesces(obj, ctx, gate):
    floor = [row for row in obj["rows"] if row["producers"] == GC_FLOOR_PRODUCERS]
    if not floor:
        raise Invalid(f"{ctx}: group_commit needs its {GC_FLOOR_PRODUCERS}-producer row")
    gate.check(f"{ctx}[{GC_FLOOR_PRODUCERS}]", "coalesced_share", MIN_GC_COALESCED_SHARE,
               floor[0]["coalesced_share"], "floor", 1.0)


def metrics_rows_by_type(obj, ctx, gate):
    for i, row in enumerate(obj["rows"]):
        keys = ("value",) if row["type"] == "counter" else ("count", "sum", "p50", "p99")
        require(row, nums(*keys), f"{ctx} rows[{i}]")


def blackbox_ascending_seq(obj, ctx, gate):
    seqs = [row["seq"] for row in obj["rows"]]
    if seqs != sorted(seqs):
        raise Invalid(f"{ctx}: blackbox rows must be in ascending seq order")


# ---- the table: one entry per experiment ---------------------------------
# header/row: required keys and types; identity: the keys that name a row
# across runs (None = rows are not comparable, only the shape is gated);
# bands: metric -> band; invariant: the cross-row checks, if any.

EXPERIMENTS = {
    # harness counts: persist counts per operation (E7/E8), exact.
    "counts": {
        "header": {**nums("ops", "shards"), **strs("policy")},
        "row": {**strs("algorithm"),
                **nums("enq_fences", "deq_fences", "enq_flushes",
                       "nt_stores_per_op", "post_flush_per_op")},
        "identity": ("algorithm",),
        "bands": {"enq_fences": TIGHT, "deq_fences": TIGHT, "enq_flushes": TIGHT,
                  "nt_stores_per_op": TIGHT, "post_flush_per_op": TIGHT},
    },
    # harness fastpath: per-op cost of a fixed and an elastic file pool,
    # with its own floor (raw_load_ns) in the artifact.
    "fastpath": {
        "header": {**nums("ops", "trials"), "lock_free_fast_path": one_of(True),
                   "raw_load_ns": POSITIVE, "counter_incr_ns": NON_NEGATIVE,
                   "sim_spin": LIST, "sim_pool": LIST, "sim_queue": OBJECT, "hw": OBJECT},
        "row": {**strs("mode"), **nums("grow_step", "load_ns", "persist_ns", "map_ref_ns")},
        "identity": ("mode",),
        "bands": {"load_ns": CEIL, "persist_ns": CEIL, "map_ref_ns": CEIL},
        "invariant": fastpath_within_run,
    },
    # harness fsweep: power-fail fence throughput under group commit,
    # across producer counts.
    "group_commit": {
        "header": nums("fences", "pages"),
        "row": {**nums("producers", "wall_ms", "coalesced_share", "overlapped_share"),
                "fences_per_sec": POSITIVE},
        "identity": ("producers",),
        "bands": {"fences_per_sec": FLOOR},
        "invariant": group_commit_coalesces,
    },
    # harness metrics: the process-global instruments after a short run.
    # Their values swing with scheduling, so nothing is banded; the set of
    # instruments is gated by the missing-row rule.
    "metrics": {
        "header": nums("counters", "histograms"),
        "row": {**strs("instrument"), "type": one_of("counter", "histogram")},
        "identity": ("instrument",),
        "bands": {},
        "invariant": metrics_rows_by_type,
    },
    # harness blackbox: replay of a crash-surviving flight-recorder ring.
    "blackbox": {
        "header": {**strs("ring"), **nums("capacity", "torn", "max_seq")},
        "row": {**strs("kind"), **nums("seq", "raw_kind", "a", "b", "wall_ns")},
        "identity": None,
        "bands": {},
        "invariant": blackbox_ascending_seq,
    },
}


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
            self.fail(f"{ctx}: {metric} {base!r} -> {cur!r} outside {band}")

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


def check_meta(meta, ctx):
    """The block every experiment object shares: schema version, backend,
    sync policy, and the embedded metrics snapshot."""
    require(meta, META, ctx)
    metrics = meta["metrics"]
    require(metrics, {"counters": OBJECT, "histograms": OBJECT}, f"{ctx}.metrics")
    for name, value in metrics["counters"].items():
        if not is_num(value):
            raise Invalid(f"{ctx}.metrics: counter {name!r} must be a number")
    for name, hist in metrics["histograms"].items():
        require(hist, {**nums("count", "sum", "mean", "p50", "p99"), "buckets": LIST},
                f"{ctx}.metrics.histograms[{name!r}]")


def validate(gate, data, name):
    """Checks a document against the table (raising Invalid) and runs each
    object's within-run invariants through the gate."""
    if not isinstance(data, list) or not data:
        raise Invalid(f"{name}: must be a non-empty JSON array of experiment objects")
    seen = {}
    for n, obj in enumerate(data):
        ctx = f"{name}[{n}]"
        if not isinstance(obj, dict):
            raise Invalid(f"{ctx}: must be an object")
        experiment = obj.get("experiment")
        entry = EXPERIMENTS.get(experiment)
        if entry is None:
            raise Invalid(f"{ctx}: experiment {experiment!r} has no table entry "
                          f"(expected one of {sorted(EXPERIMENTS)})")
        require(obj, {"meta": OBJECT, "rows": LIST, **entry["header"]}, ctx)
        check_meta(obj["meta"], f"{ctx} meta")
        for i, row in enumerate(obj["rows"]):
            require(row, entry["row"], f"{ctx} rows[{i}]")
        if "invariant" in entry:
            ordinal = seen.get(experiment, 0)
            seen[experiment] = ordinal + 1
            entry["invariant"](obj, label(name, experiment, ordinal), gate)


def label(name, experiment, ordinal):
    return f"{name}:{experiment}" + (f"#{ordinal}" if ordinal else "")


def compare(gate, baseline, current, name):
    """Holds a validated current document to its baseline's bands. Within a
    file, experiment objects pair up by (experiment, ordinal): the harness
    emits them in a deterministic order per verb."""
    by_experiment = {}
    for obj in current:
        by_experiment.setdefault(obj["experiment"], []).append(obj)
    seen = {}
    for base_obj in baseline:
        experiment = base_obj.get("experiment")
        if experiment not in EXPERIMENTS:
            gate.fail(f"{name}: baseline experiment {experiment!r} has no table entry")
            continue
        ordinal = seen.get(experiment, 0)
        seen[experiment] = ordinal + 1
        ctx = label(name, experiment, ordinal)
        candidates = by_experiment.get(experiment, [])
        if ordinal >= len(candidates):
            gate.fail(f"{ctx}: experiment in baseline but missing from current run")
            continue
        entry = EXPERIMENTS[experiment]
        identity = entry["identity"]
        if identity is None:
            continue
        cur_rows = {tuple(r.get(k) for k in identity): r for r in candidates[ordinal]["rows"]}
        for base_row in base_obj.get("rows", []):
            key = tuple(base_row.get(k) for k in identity)
            rctx = f"{ctx}[{','.join(str(v) for v in key)}]"
            cur_row = cur_rows.get(key)
            if cur_row is None:
                gate.fail(f"{rctx}: row present in baseline but missing from current run")
                continue
            for metric, (kind, bound) in entry["bands"].items():
                if metric not in base_row:
                    gate.fail(f"{rctx}: metric {metric!r} missing from baseline")
                    continue
                gate.check(rctx, metric, base_row[metric], cur_row[metric], kind, bound)


def gate_document(gate, name, current, baseline=None, schema_only=False):
    """One artifact through the whole gate; `baseline` is None when
    `bench-baselines/` has no file of that name."""
    try:
        validate(gate, current, name)
    except Invalid as err:
        gate.fail(str(err))
        return
    if schema_only:
        return
    if baseline is None:
        gate.fail(f"{name}: no baseline of that name — an artifact nothing holds "
                  f"to a band is not gated; check one in")
        return
    compare(gate, baseline, current, name)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gate_file(gate, path, baseline_dir, schema_only=False):
    """One artifact file through the gate, held to the baseline of the same
    basename. A missing file fails by name: the step that writes it did not
    run."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        gate.fail(f"{name}: no such artifact (the step that writes it did not run)")
        return
    baseline_path = os.path.join(baseline_dir, name)
    baseline = None
    if not schema_only and os.path.exists(baseline_path):
        baseline = load(baseline_path)
    gate_document(gate, name, load(path), baseline, schema_only=schema_only)


def self_test():
    """Gates the gate: known-good artifacts must pass against themselves and
    each targeted mutation — of the schema, of a measured value, of the
    baseline set — must be rejected, so a refactor that silently stops
    checking anything fails the build."""

    def meta(sync="power-fail"):
        return {
            "schema": META_SCHEMA, "backend": "file", "sync": sync,
            "metrics": {
                "counters": {"store.fence": 12},
                "histograms": {"store.msync_batch_pages": {
                    "count": 3, "sum": 9.0, "mean": 3.0, "p50": 3.0, "p99": 4.0,
                    "buckets": []}},
            },
        }

    good = {
        "fsweep": [{
            "experiment": "group_commit", "meta": meta(), "fences": 150, "pages": 16,
            "rows": [
                {"producers": 8, "wall_ms": 230.0, "fences_per_sec": 5200.0,
                 "coalesced_share": 0.9, "overlapped_share": 0.8},
                {"producers": 1, "wall_ms": 30.0, "fences_per_sec": 5000.0,
                 "coalesced_share": 0, "overlapped_share": 0},
            ],
        }],
        "counts": [{
            "experiment": "counts", "meta": meta(), "ops": 2000, "shards": 1,
            "policy": "rr",
            "rows": [
                {"algorithm": "DurableMSQ", "enq_fences": 2.0, "deq_fences": 2.0,
                 "enq_flushes": 3.0, "nt_stores_per_op": 0.0, "post_flush_per_op": 3.0},
                {"algorithm": "OptLinkedQ", "enq_fences": 1.0, "deq_fences": 1.0,
                 "enq_flushes": 2.0, "nt_stores_per_op": 1.0, "post_flush_per_op": 0.0},
            ],
        }],
        "fastpath": [{
            "experiment": "fastpath", "meta": meta("process-crash"), "ops": 20000,
            "trials": 3, "lock_free_fast_path": True, "raw_load_ns": 1.7,
            "counter_incr_ns": 2.4,
            "rows": [
                {"mode": "fixed", "grow_step": 0, "load_ns": 2.6,
                 "persist_ns": 3.0, "map_ref_ns": 2.5},
                {"mode": "elastic", "grow_step": 1048576, "load_ns": 2.7,
                 "persist_ns": 3.3, "map_ref_ns": 2.5},
            ],
            "sim_spin": [
                {"event": "flush", "requested_ns": 40, "charged_ns": 37.1},
                {"event": "nt_store", "requested_ns": 60, "charged_ns": 68.4},
                {"event": "fence", "requested_ns": 100, "charged_ns": 100.2},
                {"event": "nvram_read", "requested_ns": 300, "charged_ns": 304.8},
                {"event": "flush+fence", "requested_ns": 140, "charged_ns": 143.5},
                {"event": "nt_store+fence", "requested_ns": 160, "charged_ns": 161.9},
            ],
            "sim_pool": [
                {"size_bytes": 1048576, "new_us": 9.8},
                {"size_bytes": 268435456, "new_us": 10.4},
            ],
            "sim_queue": {"area_bytes": 131072, "setup_us": 41.0, "flushes": 12, "fences": 12},
            "hw": {"flush_fence_ns": 425.0, "post_flush_load_ns": 61.0, "cached_load_ns": 7.0},
        }],
        "metrics": [{
            "experiment": "metrics", "meta": meta(), "counters": 2, "histograms": 1,
            "rows": [
                {"instrument": "core.enqueue", "type": "counter", "value": 10000},
                {"instrument": "shard.dequeue.miss", "type": "counter", "value": 1},
                {"instrument": "store.msync_ns", "type": "histogram", "count": 412,
                 "sum": 9100000, "p50": 16384, "p99": 65536},
            ],
        }],
    }

    def failures(name, current, **kwargs):
        kwargs.setdefault("baseline", good[name])
        gate = Gate()
        gate_document(gate, f"self-test:{name}", current, **kwargs)
        return gate.failures

    for experiment, entry in EXPERIMENTS.items():
        named = set(entry["bands"]) | set(entry["identity"] or ())
        if not named <= set(entry["row"]):
            raise SystemExit(f"self-test: {experiment} bands or identifies rows by "
                             f"keys its row schema does not require")
    for name, doc in good.items():
        found = failures(name, doc)
        if found:
            raise SystemExit(f"self-test: gate rejected the good {name} document: {found}")

    def mutated(name, apply):
        doc = copy.deepcopy(good[name])
        apply(doc[0])
        return name, doc

    def drop(obj, key):
        del obj[key]

    rejects = [
        # the schema half
        ("an experiment with no table entry",
         *mutated("fsweep", lambda o: o.update(experiment="nonsense"))),
        ("missing meta", *mutated("fsweep", lambda o: drop(o, "meta"))),
        ("wrong meta schema", *mutated("fsweep", lambda o: o["meta"].update(schema=1))),
        ("missing rows", *mutated("fsweep", lambda o: drop(o, "rows"))),
        ("missing row key", *mutated("fsweep", lambda o: drop(o["rows"][0], "fences_per_sec"))),
        ("a sweep without its 8-producer row",
         *mutated("fsweep", lambda o: o["rows"].pop(0))),
        ("zero throughput", *mutated("fsweep", lambda o: o["rows"][1].update(fences_per_sec=0))),
        ("string count", *mutated("counts", lambda o: o["rows"][0].update(enq_fences="2"))),
        ("fastpath without its raw floor", *mutated("fastpath", lambda o: drop(o, "raw_load_ns"))),
        ("fastpath without its counter cost",
         *mutated("fastpath", lambda o: drop(o, "counter_incr_ns"))),
        ("fastpath without an elastic row", *mutated("fastpath", lambda o: o["rows"].pop())),
        ("fastpath without sim_spin", *mutated("fastpath", lambda o: drop(o, "sim_spin"))),
        ("sim_spin without the fence", *mutated("fastpath", lambda o: o["sim_spin"].pop(2))),
        ("sim_spin without the flush+fence spin",
         *mutated("fastpath", lambda o: o["sim_spin"].pop(4))),
        ("fastpath without sim_pool", *mutated("fastpath", lambda o: drop(o, "sim_pool"))),
        ("sim_pool without the 256 MiB pool",
         *mutated("fastpath", lambda o: o["sim_pool"].pop())),
        ("fastpath without sim_queue", *mutated("fastpath", lambda o: drop(o, "sim_queue"))),
        ("sim_queue without its flush count",
         *mutated("fastpath", lambda o: drop(o["sim_queue"], "flushes"))),
        ("fastpath without hw", *mutated("fastpath", lambda o: drop(o, "hw"))),
        ("non-list document", "counts", {"experiment": "counts"}),
        # the compare half
        ("a baseline row missing from the current run",
         *mutated("counts", lambda o: o["rows"].pop())),
        ("a baseline instrument missing from the current run",
         *mutated("metrics", lambda o: o["rows"].pop(1))),
        ("a baseline experiment missing from the current run", "counts", good["fsweep"]),
        ("a count outside the tight band",
         *mutated("counts", lambda o: o["rows"][1].update(enq_fences=1.2))),
        ("a count that appeared from zero",
         *mutated("counts", lambda o: o["rows"][1].update(post_flush_per_op=0.5))),
        ("a throughput under its floor",
         *mutated("fsweep", lambda o: o["rows"][1].update(fences_per_sec=1200.0))),
        ("a latency over its ceiling",
         *mutated("fastpath", lambda o: o["rows"][1].update(persist_ns=14.0))),
        ("a fixed load_ns over 2x raw_load_ns",
         *mutated("fastpath", lambda o: o["rows"][0].update(load_ns=3.5))),
        ("an elastic load_ns over 2x raw_load_ns",
         *mutated("fastpath", lambda o: o["rows"][1].update(load_ns=4.0))),
        ("a counter_incr_ns over 3x raw_load_ns",
         *mutated("fastpath", lambda o: o.update(counter_incr_ns=5.2))),
        ("a flush charged at the clock's 124 ns, not the model's 40",
         *mutated("fastpath", lambda o: o["sim_spin"][0].update(charged_ns=124.0))),
        ("an nt_store+fence spin charged as two spins' overshoot (210 ns for 160)",
         *mutated("fastpath", lambda o: o["sim_spin"][5].update(charged_ns=210.0))),
        ("a 256 MiB pool whose images are zeroed up front (45 ms vs 9.8 us)",
         *mutated("fastpath", lambda o: o["sim_pool"][1].update(new_us=45000.0))),
        ("a queue set-up that flushes every line of its area",
         *mutated("fastpath", lambda o: o["sim_queue"].update(flushes=2060))),
        ("a queue set-up slower than flushing one area (280 us vs 76 us)",
         *mutated("fastpath", lambda o: o["sim_queue"].update(setup_us=280.0))),
        ("a post-flush load under 2x a cached one (a flush that no longer evicts)",
         *mutated("fastpath", lambda o: o["hw"].update(post_flush_load_ns=13.0))),
        ("a coalesced_share under the floor",
         *mutated("fsweep", lambda o: o["rows"][0].update(coalesced_share=0.49))),
    ]
    for what, name, doc in rejects:
        if not failures(name, doc):
            raise SystemExit(f"self-test: gate accepted {what}")
    if not failures("counts", good["counts"], baseline=None):
        raise SystemExit("self-test: gate accepted an artifact with no baseline file")
    # --schema-only keeps the schema and drops only the baseline lookup.
    if failures("counts", good["counts"], baseline=None, schema_only=True):
        raise SystemExit("self-test: --schema-only asked for a baseline")
    if not failures(*mutated("counts", lambda o: drop(o, "ops")), schema_only=True):
        raise SystemExit("self-test: --schema-only accepted a missing header key")
    # Within the run, with no baseline to catch it: a process-crash persist
    # that still flushes fails, the same figure on a power-fail artifact
    # (whose fence msyncs) does not.
    flushing = lambda o: o["rows"][0].update(persist_ns=425.0)
    if not failures(*mutated("fastpath", flushing), schema_only=True):
        raise SystemExit("self-test: gate accepted a process-crash persist that "
                         "still flushes (425 ns vs a 2.6 ns load)")
    if failures(*mutated("fastpath", lambda o: (flushing(o), o.update(meta=meta()))),
                schema_only=True):
        raise SystemExit("self-test: gate held a power-fail persist to a load")
    gate = Gate()
    gate_file(gate, os.path.join(os.devnull, "BENCH_gone.json"), os.devnull)
    if not any("BENCH_gone.json" in message for message in gate.failures):
        raise SystemExit("self-test: gate did not name a missing artifact")
    print(f"self-test: {len(good)} good documents accepted, "
          f"{len(rejects) + 4} mutations rejected")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline-dir", default="bench-baselines")
    parser.add_argument("--schema-only", action="store_true",
                        help="check shape and within-run invariants; consult no baseline")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv[1:])
    if args.self_test:
        self_test()
        return
    if not args.files:
        parser.error("no artifacts given")

    gate = Gate()
    for path in args.files:
        gate_file(gate, path, args.baseline_dir, schema_only=args.schema_only)
    gate.render()
    if gate.failures:
        raise SystemExit(1)
    print(f"bench gate: {len(args.files)} artifact(s) match the table, "
          f"{len(gate.rows)} metric(s) within bands")


if __name__ == "__main__":
    main(sys.argv)
