//! Command-line harness that regenerates the paper's evaluation.
//!
//! ```text
//! harness fig2 [--workload random|pairs|enqueues|dequeues|prodcons|all]
//!              [--threads 1,2,4,8,12,16] [--ops N] [--initial-size N]
//!              [--prefill N] [--algorithms OptUnlinkedQ,DurableMSQ,...]
//!              [--shards 1,2,4,8] [--policy rr|keyhash|load] [--pool-bytes N]
//!              [--nvram-read-ns N] [--no-latency] [--quick]
//! harness counts [--ops N] [--shards 1,4] [--policy P] [--json PATH]
//! harness crashtest [--threads N] [--ops N] [--rounds N]
//! harness reshard --dir D --to N' [--create N --items M] [--verify] ...
//! harness fastpath [--ops N] [--trials N] [--pool-bytes N] [--grow-step N]
//!                  [--quick] [--json PATH]
//! harness fsweep [--producers 1,2,4,8] [--fences N] [--pages K]
//!                [--pool-bytes N] [--quick] [--json PATH]
//! harness metrics [--ops N] [--dir D] [--sync S] [--json PATH]
//! harness blackbox DIR [--json PATH]
//! harness all [--quick]
//! ```

use harness::algorithms::Algorithm;
use harness::checker::{check_all, CrashCheckConfig};
use harness::counts::{
    counts_json, persist_counts_table, persist_counts_table_sharded, render_counts,
};
use harness::crash::{self, Scenario};
use harness::fastpath::{self, fastpath_json, render_fastpath, run_fastpath};
use harness::fsweep::{self, fsweep_json, render_fsweep, run_fsweep};
use harness::jsonio::JsonSink;
use harness::obs_verbs::{
    blackbox_json, metrics_json, render_blackbox, resolve_ring_path, warmed_snapshot,
};
use harness::reshard::{run_reshard, ReshardVerbConfig};
use harness::runner::{render_panel, run_panel, SweepConfig};
use harness::workloads::Workload;
use pmem::LatencyModel;
use shard::RoutePolicy;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;
use store::SyncPolicy;

/// The flags `fig2` reads (`sweep_from_flags`, its shard counts and
/// workloads); `all` forwards its one flag map to counts and fig2.
const FIG2_FLAGS: &[&str] = &[
    "algorithms",
    "initial-size",
    "no-latency",
    "nvram-read-ns",
    "ops",
    "policy",
    "pool-bytes",
    "prefill",
    "quick",
    "shards",
    "threads",
    "workload",
];
const COUNTS_FLAGS: &[&str] = &["json", "ops", "policy", "shards"];

/// Each verb and every flag it reads, the hidden `crash-child`'s included.
/// Any other flag is refused: a misspelt, retired or other verb's flag
/// would otherwise run the verb with its default without a word.
const VERBS: &[(&str, &[&str])] = &[
    ("fig2", FIG2_FLAGS),
    ("counts", COUNTS_FLAGS),
    ("crashtest", &["ops", "rounds", "threads"]),
    (
        "reshard",
        &[
            "algo",
            "algorithm",
            "create",
            "dir",
            "expect",
            "items",
            "key-shift",
            "policy",
            "pool-bytes",
            "sync",
            "to",
            "verify",
        ],
    ),
    (
        "fastpath",
        &["grow-step", "json", "ops", "pool-bytes", "quick", "trials"],
    ),
    (
        "fsweep",
        &[
            "fences",
            "json",
            "pages",
            "pool-bytes",
            "producers",
            "quick",
        ],
    ),
    ("metrics", &["dir", "json", "ops", "sync"]),
    ("blackbox", &["dir", "json"]),
    (
        "crash-child",
        &[
            "algo",
            "area-bytes",
            "dequeue",
            "dir",
            "grow-step",
            "held-views",
            "items",
            "policy",
            "pool-bytes",
            "shape",
            "shards",
            "sync",
        ],
    ),
    // Everything fig2 and counts read but `--json`, which fig2 has no
    // artifact for.
    ("all", &[]),
];

/// Whether `verb` reads `--name`.
fn reads(verb: &str, name: &str) -> bool {
    if verb == "all" {
        return name != "json" && ["fig2", "counts"].iter().any(|v| reads(v, name));
    }
    VERBS
        .iter()
        .any(|(v, flags)| *v == verb && flags.contains(&name))
}

/// Flags whose value names a file or directory: given without one, the
/// path would be the literal `true`.
const PATH_FLAGS: [&str; 2] = ["json", "dir"];

/// Parses `verb`'s `--name value` pairs; a flag without a value reads
/// `"true"`. A flag no verb reads, a flag `verb` does not read and a
/// valueless path flag ([`PATH_FLAGS`]) are errors naming the flag.
fn parse_flags(verb: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if !reads(verb, name) {
                return Err(if VERBS.iter().any(|(v, _)| reads(v, name)) {
                    format!("harness {verb} does not read --{name} (run harness for the usage)")
                } else {
                    format!("unknown flag --{name} (run harness for the usage)")
                });
            }
            let value = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else if PATH_FLAGS.contains(&name) {
                return Err(format!("--{name} needs a path"));
            } else {
                String::from("true")
            };
            flags.insert(name.to_string(), value);
        }
        i += 1;
    }
    Ok(flags)
}

fn sweep_from_flags(flags: &HashMap<String, String>) -> SweepConfig {
    let mut sweep = if flags.contains_key("quick") {
        SweepConfig::quick()
    } else {
        SweepConfig::paper_like()
    };
    if let Some(t) = flags.get("threads") {
        sweep.threads = t
            .split(',')
            .map(|s| s.trim().parse().expect("bad --threads"))
            .collect();
    }
    if let Some(ops) = flags.get("ops") {
        sweep.ops_per_thread = ops.parse().expect("bad --ops");
    }
    if let Some(init) = flags.get("initial-size") {
        sweep.initial_size = Some(init.parse().expect("bad --initial-size"));
    }
    if let Some(ns) = flags.get("nvram-read-ns") {
        sweep.latency.nvram_read_ns = ns.parse().expect("bad --nvram-read-ns");
    }
    if flags.contains_key("no-latency") {
        sweep.latency = LatencyModel::ZERO;
    }
    if let Some(algs) = flags.get("algorithms") {
        sweep.algorithms = algs
            .split(',')
            .map(|s| Algorithm::parse(s).unwrap_or_else(|| panic!("unknown algorithm {s}")))
            .collect();
    }
    if let Some(p) = flags.get("prefill") {
        sweep.prefill = Some(p.parse().expect("bad --prefill"));
    }
    if let Some(p) = flags.get("policy") {
        sweep.policy = parse_policy(p);
    }
    if let Some(p) = flags.get("pool-bytes") {
        sweep.pool_bytes = p.parse().expect("bad --pool-bytes");
    }
    sweep
}

fn parse_sync(flags: &HashMap<String, String>) -> SyncPolicy {
    match flags.get("sync") {
        None => SyncPolicy::default(),
        Some(s) => SyncPolicy::parse(s).unwrap_or_else(|| {
            eprintln!("unknown sync policy '{s}' (expected process-crash|power-fail)");
            exit(2);
        }),
    }
}

fn parse_policy(s: &str) -> RoutePolicy {
    RoutePolicy::parse(s).unwrap_or_else(|| {
        eprintln!("unknown routing policy '{s}' (expected rr|keyhash|load)");
        exit(2);
    })
}

/// Parses `--shards` as a comma-separated list of counts ≥ 1, so the same
/// flag value works for every subcommand (and for `all`, which forwards one
/// flag map to counts and fig2). Absent: `[1]`.
fn shards_from_flags(flags: &HashMap<String, String>) -> Vec<usize> {
    let Some(s) = flags.get("shards") else {
        return vec![1];
    };
    let counts: Vec<usize> = s
        .split(',')
        .map(|v| v.trim().parse().expect("bad --shards"))
        .collect();
    for &c in &counts {
        if c == 0 {
            eprintln!("--shards values must be >= 1");
            exit(2);
        }
    }
    counts
}

fn workloads_from_flags(flags: &HashMap<String, String>) -> Vec<Workload> {
    match flags.get("workload").map(|s| s.as_str()) {
        None | Some("all") => Workload::all(),
        Some(key) => vec![Workload::parse(key).unwrap_or_else(|| {
            eprintln!(
                "unknown workload '{key}' (expected random|pairs|enqueues|dequeues|prodcons|all)"
            );
            exit(2);
        })],
    }
}

fn cmd_fig2(flags: &HashMap<String, String>) {
    let mut sweep = sweep_from_flags(flags);
    for shards in shards_from_flags(flags) {
        sweep.shards = shards;
        for workload in workloads_from_flags(flags) {
            let rows = run_panel(workload, &sweep);
            print!("{}", render_panel(workload, &sweep, &rows));
        }
    }
}

fn cmd_counts(flags: &HashMap<String, String>) {
    let ops = flags
        .get("ops")
        .map(|s| s.parse().expect("bad --ops"))
        .unwrap_or(2_000);
    let policy = flags
        .get("policy")
        .map(|p| parse_policy(p))
        .unwrap_or_default();
    let mut json = JsonSink::from_flags(flags);
    for shards in shards_from_flags(flags) {
        let rows = if shards > 1 {
            println!(
                "(measured through a {shards}-shard ShardedQueue, {} routing, counters aggregated)",
                policy.key()
            );
            persist_counts_table_sharded(ops, shards, policy)
        } else {
            persist_counts_table(ops)
        };
        print!("{}", render_counts(&rows));
        json.push(counts_json(&rows, ops, shards, policy));
    }
    json.write();
}

fn cmd_reshard(flags: &HashMap<String, String>) {
    let mut cfg = ReshardVerbConfig::default();
    let Some(to) = flags.get("to") else {
        eprintln!("reshard: --to N' is required");
        exit(2);
    };
    cfg.to = to.parse().expect("bad --to");
    assert!(cfg.to >= 1, "--to must be >= 1");
    if let Some(d) = flags.get("dir") {
        cfg.dir = PathBuf::from(d);
    } else {
        eprintln!("reshard: --dir PATH is required");
        exit(2);
    }
    if let Some(a) = flags.get("algo").or_else(|| flags.get("algorithm")) {
        cfg.algorithm = Algorithm::parse(a).unwrap_or_else(|| panic!("unknown algorithm {a}"));
    }
    if let Some(c) = flags.get("create") {
        cfg.create = Some(c.parse().expect("bad --create"));
    }
    if let Some(i) = flags.get("items") {
        cfg.items = i.parse().expect("bad --items");
    }
    if let Some(p) = flags.get("policy") {
        cfg.policy = parse_policy(p);
    }
    if let Some(p) = flags.get("pool-bytes") {
        cfg.pool_bytes = p.parse().expect("bad --pool-bytes");
    }
    cfg.sync = parse_sync(flags);
    cfg.verify = flags.contains_key("verify");
    if let Some(e) = flags.get("expect") {
        cfg.expect = Some(e.parse().expect("bad --expect"));
    }
    if let Some(k) = flags.get("key-shift") {
        cfg.key_shift = Some(k.parse().expect("bad --key-shift"));
    }
    run_reshard(&cfg);
}

fn cmd_fastpath(flags: &HashMap<String, String>) {
    let cfg = fastpath::config_from_flags(flags);
    let mut json = JsonSink::from_flags(flags);
    let report = run_fastpath(&cfg);
    print!("{}", render_fastpath(&cfg, &report));
    json.push(fastpath_json(&cfg, &report));
    json.write();
}

fn cmd_fsweep(flags: &HashMap<String, String>) {
    let cfg = fsweep::config_from_flags(flags);
    let mut json = JsonSink::from_flags(flags);
    let rows = run_fsweep(&cfg);
    print!("{}", render_fsweep(&cfg, &rows));
    json.push(fsweep_json(&cfg, &rows));
    json.write();
}

fn cmd_metrics(flags: &HashMap<String, String>) {
    let ops = flags
        .get("ops")
        .map(|s| s.parse().expect("bad --ops"))
        .unwrap_or(10_000);
    let dir = flags.get("dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("harness-metrics-{}", std::process::id()))
    });
    let sync = parse_sync(flags);
    let snap = warmed_snapshot(ops, dir, sync);
    let mut json = JsonSink::from_flags(flags);
    if flags.contains_key("json") {
        json.push(metrics_json(&snap, sync));
        json.write();
    } else {
        print!("{}", obs::export::prometheus(&snap));
    }
}

fn cmd_blackbox(positional: Option<&str>, flags: &HashMap<String, String>) {
    let target = flags
        .get("dir")
        .map(String::as_str)
        .or(positional)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!(
                "blackbox: pass the deployment directory (or ring file): harness blackbox DIR"
            );
            exit(2);
        });
    let path = resolve_ring_path(&target);
    let replay = obs::flight::replay(&path).unwrap_or_else(|e| {
        eprintln!("blackbox: {e}");
        exit(1);
    });
    print!("{}", render_blackbox(&path, &replay));
    let mut json = JsonSink::from_flags(flags);
    json.push(blackbox_json(&path, &replay));
    json.write();
}

fn cmd_crashtest(flags: &HashMap<String, String>) {
    let mut cfg = CrashCheckConfig::default();
    if let Some(t) = flags.get("threads") {
        cfg.threads = t.parse().expect("bad --threads");
    }
    if let Some(o) = flags.get("ops") {
        cfg.ops_per_thread = o.parse().expect("bad --ops");
    }
    if let Some(r) = flags.get("rounds") {
        cfg.rounds = r.parse().expect("bad --rounds");
    }
    check_all(&cfg);
}

/// Prints the usage text and exits 2.
fn usage() -> ! {
    eprintln!(
        "usage: harness <fig2|counts|crashtest|reshard|fastpath|fsweep|metrics|blackbox|all> [flags]\n\
         \n\
         fig2       regenerate the Figure 2 panels (throughput + ratio tables)\n\
         counts     per-operation persistence counts (experiments E7/E8)\n\
         crashtest  durable-linearizability crash checks for every queue\n\
         reshard    split/merge a file-backed shard directory to --to N'\n\
                    (crash-safe two-phase manifest protocol)\n\
         fastpath   time a fixed and an elastic file pool's per-op\n\
                    load / persist / map_ref costs\n\
         fsweep     power-fail fence throughput sweep: group commit\n\
                    across producer counts\n\
                    (--producers 1,2,4,8 --fences N --pages K)\n\
         metrics    drive a short leased workload, then dump the\n\
                    process-global instruments (Prometheus text, or a\n\
                    metrics experiment object with --json)\n\
         blackbox   replay a crash-surviving BLACKBOX.ring and\n\
                    pretty-print the lifecycle events that survived\n\
         all        counts, then every fig2 panel\n\
         \n\
         common flags: --quick --workload W --threads 1,2,4 --ops N\n\
                       --initial-size N --prefill N --algorithms A,B\n\
                       --shards 1,2,4,8 --policy rr|keyhash|load\n\
                       --pool-bytes N --nvram-read-ns N --no-latency\n\
                       (fig2 runs on the simulated pool only)\n\
         file pools:   --sync process-crash|power-fail --dir PATH\n\
                       (reshard, metrics); --grow-step N (fastpath)\n\
         output:       --json PATH   (counts, fastpath,\n\
                       fsweep, metrics, blackbox: JSON array of\n\
                       experiment objects; schema in README)\n\
         reshard:      --dir D --to N' [--algo A] [--create N --items M]\n\
                       [--verify] [--expect M] [--key-shift B]\n\
                       [--policy P] [--sync S]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(|s| s.as_str()).unwrap_or("help");
    if !VERBS.iter().any(|(verb, _)| *verb == command) {
        usage();
    }
    let flags = parse_flags(command, &args[1..]).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    match command {
        "fig2" => cmd_fig2(&flags),
        "counts" => cmd_counts(&flags),
        "crashtest" => cmd_crashtest(&flags),
        "reshard" => cmd_reshard(&flags),
        "fastpath" => cmd_fastpath(&flags),
        "fsweep" => cmd_fsweep(&flags),
        "metrics" => cmd_metrics(&flags),
        "blackbox" => cmd_blackbox(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str),
            &flags,
        ),
        // Hidden: the child every crash round spawns and kills.
        "crash-child" => crash::run_child(&Scenario::from_flags(&flags)),
        "all" => {
            cmd_counts(&flags);
            cmd_fig2(&flags);
        }
        _ => unreachable!("every verb of VERBS has an arm"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(verb: &str, args: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_flags(
            verb,
            &args.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_path_flag_without_a_value_is_refused_by_name() {
        for flag in PATH_FLAGS {
            let bare = format!("--{flag}");
            for args in [vec![bare.as_str()], vec![bare.as_str(), "--ops"]] {
                assert_eq!(
                    parse("metrics", &args),
                    Err(format!("--{flag} needs a path"))
                );
            }
        }
        let flags = parse("metrics", &["--json", "out.json", "--ops", "--dir", "d"]).unwrap();
        assert_eq!(flags["json"], "out.json");
        assert_eq!(flags["dir"], "d");
        assert_eq!(flags["ops"], "true");
    }

    /// Retired flags would otherwise run at their old default silently.
    #[test]
    fn a_flag_no_verb_reads_is_refused_by_name() {
        for flag in [
            "fence-window",
            "windows",
            "group-commit",
            "min-acks",
            "backend",
            "recovery-threads",
        ] {
            let bare = format!("--{flag}");
            for (verb, _) in VERBS {
                let err = parse(verb, &[bare.as_str(), "50"]).unwrap_err();
                assert!(err.contains(&format!("unknown flag --{flag} ")), "{err}");
            }
            let err = parse("fsweep", &["--quick", bare.as_str()]).unwrap_err();
            assert!(err.contains(&format!("unknown flag --{flag} ")), "{err}");
        }
        let flags = parse("fsweep", &["--quick", "--json", "out.json", "--pages", "4"]).unwrap();
        assert_eq!(flags.len(), 3);
    }

    /// A flag another verb reads means nothing here: `fsweep` used to run
    /// its sweep and exit 0 ignoring `--threads` and `--workload`.
    #[test]
    fn a_flag_only_another_verb_reads_is_refused_by_name() {
        let err = parse(
            "fsweep",
            &[
                "--quick",
                "--producers",
                "1",
                "--threads",
                "4",
                "--workload",
                "pairs",
            ],
        )
        .unwrap_err();
        assert!(
            err.contains("harness fsweep does not read --threads "),
            "{err}"
        );
        for (verb, flag) in [
            ("counts", "quick"),
            ("fastpath", "sync"),
            ("crashtest", "json"),
            ("blackbox", "ops"),
            ("all", "json"),
        ] {
            let err = parse(verb, &[&format!("--{flag}"), "x"]).unwrap_err();
            assert!(
                err.contains(&format!("harness {verb} does not read --{flag} ")),
                "{err}"
            );
        }
        // `all` reads whatever fig2 or counts reads, but `--json`.
        let flags = parse(
            "all",
            &["--quick", "--nvram-read-ns", "0", "--policy", "keyhash"],
        );
        assert_eq!(flags.unwrap().len(), 3);
    }
}
