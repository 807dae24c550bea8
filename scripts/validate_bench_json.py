#!/usr/bin/env python3
"""Validate `harness ... --json` output against the README schema.

The CI perf-track job runs this over every BENCH_*.json artifact before
uploading, so a schema regression is caught on the push that introduces it
rather than when someone later tries to plot the trajectory.

Schema (see "Machine-readable results" in README.md): each file is a JSON
array of experiment objects. Every object carries an "experiment" key naming
its shape; required keys per shape are checked for presence and type. The
schema is additive — unknown keys are allowed, required keys must keep their
meaning and type.

Usage: validate_bench_json.py FILE.json [FILE.json ...]
       validate_bench_json.py --self-test
"""

import json
import numbers
import sys


def is_num(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def require(obj, key, pred, what, ctx):
    if key not in obj:
        raise SystemExit(f"{ctx}: missing required key {key!r}")
    if not pred(obj[key]):
        raise SystemExit(f"{ctx}: key {key!r} must be {what}, got {obj[key]!r}")


def check_rows(obj, ctx, row_keys):
    require(obj, "rows", lambda v: isinstance(v, list), "an array", ctx)
    for i, row in enumerate(obj["rows"]):
        rctx = f"{ctx} rows[{i}]"
        if not isinstance(row, dict):
            raise SystemExit(f"{rctx}: must be an object")
        for key, pred, what in row_keys:
            require(row, key, pred, what, rctx)


STR = (lambda v: isinstance(v, str), "a string")
NUM = (is_num, "a number")

META_SCHEMA = 2


def check_meta(obj, ctx):
    """Every v2 experiment object carries the shared meta block: schema
    version, backend, sync policy, and the embedded metrics snapshot."""
    require(obj, "meta", lambda v: isinstance(v, dict), "an object", ctx)
    meta = obj["meta"]
    mctx = f"{ctx} meta"
    require(meta, "schema", lambda v: v == META_SCHEMA, f"schema {META_SCHEMA}", mctx)
    require(meta, "backend", lambda v: v in ("sim", "file"), "'sim' or 'file'", mctx)
    require(
        meta,
        "sync",
        lambda v: v is None or isinstance(v, str),
        "a sync-policy key or null",
        mctx,
    )
    require(meta, "metrics", lambda v: isinstance(v, dict), "an object", mctx)
    metrics = meta["metrics"]
    for key in ("counters", "histograms"):
        require(metrics, key, lambda v: isinstance(v, dict), "an object", f"{mctx}.metrics")
    for name, value in metrics["counters"].items():
        if not is_num(value):
            raise SystemExit(f"{mctx}.metrics: counter {name!r} must be a number")
    for name, hist in metrics["histograms"].items():
        hctx = f"{mctx}.metrics.histograms[{name!r}]"
        for key in ("count", "sum", "mean", "p50", "p99"):
            require(hist, key, *NUM, hctx)
        require(hist, "buckets", lambda v: isinstance(v, list), "an array", hctx)


def check_counts(obj, ctx):
    require(obj, "ops", is_num, "a number", ctx)
    require(obj, "shards", is_num, "a number", ctx)
    require(obj, "policy", *STR, ctx)
    check_rows(
        obj,
        ctx,
        [
            ("algorithm", *STR),
            ("enq_fences", *NUM),
            ("deq_fences", *NUM),
            ("enq_flushes", *NUM),
            ("nt_stores_per_op", *NUM),
            ("post_flush_per_op", *NUM),
        ],
    )


def check_shards(obj, ctx):
    for key in ("algorithm", "workload", "policy"):
        require(obj, key, *STR, ctx)
    for key in ("threads", "ops_per_thread", "recovery_threads"):
        require(obj, key, *NUM, ctx)
    check_rows(
        obj,
        ctx,
        [
            ("shards", *NUM),
            ("mops", *NUM),
            ("scaling", *NUM),
            ("fences_per_op", *NUM),
            ("recovered_items", *NUM),
            ("recovery_wall_ms", *NUM),
            ("recovery_critical_path_ms", *NUM),
            ("recovery_sequential_ms", *NUM),
            ("recovery_speedup", *NUM),
            ("per_shard", lambda v: isinstance(v, list), "an array"),
        ],
    )
    for i, row in enumerate(obj["rows"]):
        for j, shard in enumerate(row["per_shard"]):
            sctx = f"{ctx} rows[{i}].per_shard[{j}]"
            for key in ("shard", "fences", "flushes", "recovery_ms"):
                require(shard, key, *NUM, sctx)


def check_restart(obj, ctx):
    check_rows(
        obj,
        ctx,
        [
            ("algorithm", *STR),
            ("shards", *NUM),
            ("policy", *STR),
            ("sync", *STR),
            ("pool_bytes", *NUM),
            ("grow_step", *NUM),
            ("growth_epochs", *NUM),
            ("confirmed_enqueues", *NUM),
            ("confirmed_dequeues", *NUM),
            ("recovered", *NUM),
            ("recovery_ms", *NUM),
        ],
    )
    if "reshard_kill" not in obj:
        raise SystemExit(f"{ctx}: missing required key 'reshard_kill'")
    kill = obj["reshard_kill"]
    if kill is not None:
        for key in ("completed_reshards", "shards_after", "items"):
            require(kill, key, *NUM, f"{ctx} reshard_kill")
        resolution = kill.get("resolution", "absent")
        if resolution not in (None, "rolled-back", "rolled-forward"):
            raise SystemExit(f"{ctx}: bad reshard_kill.resolution {resolution!r}")
    if "lease_kill" not in obj:
        raise SystemExit(f"{ctx}: missing required key 'lease_kill'")
    kill = obj["lease_kill"]
    if kill is not None:
        for key in (
            "confirmed_enqueues",
            "confirmed_acks",
            "held",
            "unacked",
            "redelivered",
            "recovery_ms",
        ):
            require(kill, key, *NUM, f"{ctx} lease_kill")


def check_lease(obj, ctx):
    for key in ("algorithm", "policy", "sync"):
        require(obj, key, *STR, ctx)
    for key in ("ops", "nack_percent"):
        require(obj, key, *NUM, ctx)
    check_rows(
        obj,
        ctx,
        [
            ("shards", *NUM),
            ("wall_ms", *NUM),
            ("acked_per_sec", *NUM),
            ("granted", *NUM),
            ("redelivered", *NUM),
            ("nacked", *NUM),
            ("dead_lettered", *NUM),
            ("compactions", *NUM),
            ("log_records", *NUM),
        ],
    )


def check_lease_groups(obj, ctx):
    for key in ("algorithm", "policy", "sync"):
        require(obj, key, *STR, ctx)
    for key in ("ops", "nack_percent", "consumers", "groups", "work_ns"):
        require(obj, key, *NUM, ctx)
    if obj["consumers"] < 1 or obj["groups"] < 1:
        raise SystemExit(f"{ctx}: consumers and groups must be >= 1")
    check_rows(
        obj,
        ctx,
        [
            ("shards", *NUM),
            ("wall_ms", *NUM),
            ("acked_per_sec", *NUM),
            ("granted", *NUM),
            ("redelivered", *NUM),
            ("nacked", *NUM),
            ("dead_lettered", *NUM),
            ("rotations", *NUM),
            ("segments_retired", *NUM),
            ("log_records", *NUM),
            ("segments", *NUM),
        ],
    )
    for i, row in enumerate(obj["rows"]):
        # Every group acks every item, so the aggregate ack throughput a
        # row reports can never fall below one item: a zero (or negative)
        # rate means the sweep silently did no work.
        if row["acked_per_sec"] <= 0:
            raise SystemExit(f"{ctx} rows[{i}]: acked_per_sec must be positive")


def check_fastpath(obj, ctx):
    require(obj, "ops", is_num, "a number", ctx)
    require(obj, "trials", is_num, "a number", ctx)
    require(
        obj,
        "lock_free_fast_path",
        lambda v: v is True,
        "true (the epoch-scheme marker)",
        ctx,
    )
    # The floor the direct row is gated against (compare_bench_json.py).
    require(obj, "raw_load_ns", lambda v: is_num(v) and v > 0, "a positive number", ctx)
    # One named-counter increment, gated against the same floor; 0 in a
    # build without the `instrument` feature.
    require(obj, "counter_incr_ns", lambda v: is_num(v) and v >= 0, "a non-negative number", ctx)
    check_rows(
        obj,
        ctx,
        [
            ("mode", *STR),
            ("grow_step", *NUM),
            ("load_ns", *NUM),
            ("persist_ns", *NUM),
            ("map_ref_ns", *NUM),
        ],
    )
    modes = [row["mode"] for row in obj["rows"]]
    if "direct" not in modes or "epoch" not in modes:
        raise SystemExit(
            f"{ctx}: fastpath needs both a 'direct' and an 'epoch' row, got {modes!r}"
        )


def check_metrics(obj, ctx):
    require(obj, "counters", is_num, "a number", ctx)
    require(obj, "histograms", is_num, "a number", ctx)
    check_rows(
        obj,
        ctx,
        [
            ("instrument", *STR),
            ("type", lambda v: v in ("counter", "histogram"), "'counter' or 'histogram'"),
        ],
    )
    for i, row in enumerate(obj["rows"]):
        rctx = f"{ctx} rows[{i}]"
        if row["type"] == "counter":
            require(row, "value", *NUM, rctx)
        else:
            for key in ("count", "sum", "p50", "p99"):
                require(row, key, *NUM, rctx)


def check_blackbox(obj, ctx):
    require(obj, "ring", *STR, ctx)
    for key in ("capacity", "torn", "max_seq"):
        require(obj, key, *NUM, ctx)
    check_rows(
        obj,
        ctx,
        [
            ("seq", *NUM),
            ("kind", *STR),
            ("raw_kind", *NUM),
            ("a", *NUM),
            ("b", *NUM),
            ("wall_ns", *NUM),
        ],
    )
    seqs = [row["seq"] for row in obj["rows"]]
    if seqs != sorted(seqs):
        raise SystemExit(f"{ctx}: blackbox rows must be in ascending seq order")


def check_group_commit(obj, ctx):
    """`harness fsweep`: power-fail fence throughput, per-thread msync vs
    coalesced group commit, across producer counts and batch windows."""
    for key in ("fences", "pages"):
        require(obj, key, *NUM, ctx)
    check_rows(
        obj,
        ctx,
        [
            ("producers", *NUM),
            ("mode", lambda v: v in ("per-thread", "group-commit"),
             "'per-thread' or 'group-commit'"),
            ("window_us", lambda v: v is None or is_num(v), "a number or null"),
            ("wall_ms", *NUM),
            ("fences_per_sec", *NUM),
        ],
    )
    modes = {row["mode"] for row in obj["rows"]}
    if modes != {"per-thread", "group-commit"}:
        raise SystemExit(
            f"{ctx}: group_commit needs both fence modes, got {sorted(modes)!r}"
        )
    for i, row in enumerate(obj["rows"]):
        if row["fences_per_sec"] <= 0:
            raise SystemExit(f"{ctx} rows[{i}]: fences_per_sec must be positive")
        if (row["mode"] == "per-thread") != (row["window_us"] is None):
            raise SystemExit(
                f"{ctx} rows[{i}]: window_us must be null exactly for per-thread rows"
            )
    if "speedup" in obj:
        sctx = f"{ctx} speedup"
        for key in ("producers", "speedup", "best_window_us"):
            require(obj["speedup"], key, *NUM, sctx)


CHECKERS = {
    "counts": check_counts,
    "group_commit": check_group_commit,
    "shards": check_shards,
    "restart": check_restart,
    "fastpath": check_fastpath,
    "lease": check_lease,
    "lease_groups": check_lease_groups,
    "metrics": check_metrics,
    "blackbox": check_blackbox,
}


def validate_data(data, path):
    if not isinstance(data, list) or not data:
        raise SystemExit(f"{path}: must be a non-empty JSON array of experiment objects")
    for n, obj in enumerate(data):
        ctx = f"{path}[{n}]"
        if not isinstance(obj, dict):
            raise SystemExit(f"{ctx}: must be an object")
        experiment = obj.get("experiment")
        checker = CHECKERS.get(experiment)
        if checker is None:
            raise SystemExit(
                f"{ctx}: unknown experiment {experiment!r} "
                f"(expected one of {sorted(CHECKERS)})"
            )
        check_meta(obj, ctx)
        checker(obj, ctx)


def validate(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    validate_data(data, path)
    print(f"{path}: {len(data)} experiment object(s) valid")


def self_test():
    """Validates the validator: a known-good document must pass and each
    targeted mutation of it must be rejected. Run from CI so a refactor
    that silently stops checking anything fails the build."""
    import copy

    def meta():
        return {
            "schema": META_SCHEMA,
            "backend": "file",
            "sync": "power-fail",
            "metrics": {
                "counters": {"store.fence": 12},
                "histograms": {
                    "store.msync_batch_pages": {
                        "count": 3, "sum": 9.0, "mean": 3.0,
                        "p50": 3.0, "p99": 4.0, "buckets": [],
                    }
                },
            },
        }

    good = [
        {
            "experiment": "group_commit",
            "meta": meta(),
            "fences": 150,
            "pages": 16,
            "rows": [
                {"producers": 8, "mode": "per-thread", "window_us": None,
                 "wall_ms": 700.0, "fences_per_sec": 1700.0},
                {"producers": 8, "mode": "group-commit", "window_us": 0,
                 "wall_ms": 230.0, "fences_per_sec": 5200.0},
            ],
            "speedup": {"producers": 8, "speedup": 3.05, "best_window_us": 0},
        },
        {
            "experiment": "counts",
            "meta": meta(),
            "ops": 2000,
            "shards": 1,
            "policy": "rr",
            "rows": [
                {"algorithm": "DurableMSQ", "enq_fences": 2.0, "deq_fences": 2.0,
                 "enq_flushes": 3.0, "nt_stores_per_op": 0.0,
                 "post_flush_per_op": 0.0},
            ],
        },
        {
            "experiment": "fastpath",
            "meta": meta(),
            "ops": 20000,
            "trials": 3,
            "lock_free_fast_path": True,
            "raw_load_ns": 1.7,
            "counter_incr_ns": 2.4,
            "rows": [
                {"mode": "direct", "grow_step": 0, "load_ns": 2.6,
                 "persist_ns": 300.0, "map_ref_ns": 10.0},
                {"mode": "epoch", "grow_step": 1048576, "load_ns": 31.0,
                 "persist_ns": 330.0, "map_ref_ns": 20.0},
            ],
        },
    ]
    validate_data(good, "self-test:good")

    def mutated(apply):
        doc = copy.deepcopy(good)
        apply(doc)
        return doc

    def del_key(obj, key):
        def apply(doc):
            del_from = doc
            for step in obj:
                del_from = del_from[step]
            del del_from[key]
        return apply

    rejects = [
        ("unknown experiment",
         mutated(lambda d: d[0].update(experiment="nonsense"))),
        ("missing meta", mutated(del_key([0], "meta"))),
        ("wrong meta schema",
         mutated(lambda d: d[0]["meta"].update(schema=1))),
        ("missing rows", mutated(del_key([0], "rows"))),
        ("missing row key", mutated(del_key([0, "rows", 0], "fences_per_sec"))),
        ("one-mode sweep", mutated(lambda d: d[0]["rows"].pop())),
        ("zero throughput",
         mutated(lambda d: d[0]["rows"][1].update(fences_per_sec=0))),
        ("window on per-thread row",
         mutated(lambda d: d[0]["rows"][0].update(window_us=5))),
        ("string count",
         mutated(lambda d: d[1]["rows"][0].update(enq_fences="2"))),
        ("fastpath without its raw floor", mutated(del_key([2], "raw_load_ns"))),
        ("fastpath without its counter cost", mutated(del_key([2], "counter_incr_ns"))),
        ("non-list document", {"experiment": "counts"}),
    ]
    for what, doc in rejects:
        try:
            validate_data(doc, f"self-test:{what}")
        except SystemExit:
            continue
        raise SystemExit(f"self-test: validator accepted a document with {what}")
    print(f"self-test: 1 good document accepted, {len(rejects)} mutations rejected")


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__.strip().splitlines()[-2])
    if argv[1] == "--self-test":
        self_test()
        return
    for path in argv[1:]:
        validate(path)


if __name__ == "__main__":
    main(sys.argv)
