//! Proves on every commit that the benchmark still runs: all four
//! workloads at a thousandth of their size with the checker on, gated and
//! traced, in a few seconds — without being part of the root workspace's
//! tests.

use std::path::Path;
use std::process::{Command, Output};
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["lease-pc", "group-pf", "backlog-pc", "paper-pairs"];

fn qbench(args: &[&str]) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_qbench"))
        .args(args)
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("qbench starts")
}

/// The result lines of a run: every line of standard output that is a
/// JSON object.
fn result_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .collect()
}

/// The metric names in the order `BENCHMARK.json` lists them under `key`.
fn names_in_benchmark_json(json: &str, key: &str) -> Vec<String> {
    let section = &json[json.find(&format!("\"{key}\"")).expect(key)..];
    let section = &section[..section.find(']').unwrap()];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn every_workload_runs_gated_and_checks_out() {
    let begun = Instant::now();
    let out = qbench(&["--workload", "all", "--seed", "7", "--smoke"]);
    println!(
        "all four workloads at smoke size took {:?}",
        begun.elapsed()
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    let lines = result_lines(&out);
    assert_eq!(lines.len(), 4, "{text}");
    let spec = qbench(&["--benchmark-json"]);
    let json = String::from_utf8_lossy(&spec.stdout).to_string();
    let metrics = names_in_benchmark_json(&json, "end_to_end");
    assert!(metrics.contains(&"setup_s".to_string()) && metrics.len() >= 4);
    for (line, workload) in lines.iter().zip(WORKLOADS) {
        assert!(line.contains("\"correct\": true"), "{workload}: {line}");
        assert!(line.contains("\"failed\": 0"), "{workload}: {line}");
        assert!(text.contains(&format!("{workload}: seed 7")));
        for m in &metrics {
            assert!(
                line.contains(&format!("\"{m}\": {{\"value\": ")),
                "{workload} lacks {m}"
            );
        }
        assert_eq!(line.matches("\"value\"").count(), metrics.len());
    }
    assert_eq!(
        text.matches("failed_share 0 (0 failed").count(),
        4,
        "{text}"
    );
}

#[test]
fn every_workload_runs_traced_and_reports_every_layer_metric() {
    let out = qbench(&[
        "--workload",
        "all",
        "--seed",
        "8",
        "--smoke",
        "--trace",
        "1",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    let lines = result_lines(&out);
    assert_eq!(lines.len(), 4, "{text}");
    let spec = qbench(&["--benchmark-json"]);
    let json = String::from_utf8_lossy(&spec.stdout).to_string();
    let metrics = names_in_benchmark_json(&json, "per_layer");
    assert!(metrics.len() >= 40);
    for (line, workload) in lines.iter().zip(WORKLOADS) {
        assert!(line.contains("\"correct\": true"), "{workload}: {line}");
        for m in &metrics {
            assert!(
                line.contains(&format!("\"{m}\": {{\"value\": ")),
                "{workload} lacks {m}"
            );
        }
        assert_eq!(line.matches("\"value\"").count(), metrics.len());
        assert!(
            !line.contains("setup_s"),
            "the traced run reports layers only"
        );
    }
    assert_eq!(text.matches("spans: ").count(), 4, "{text}");
}

#[test]
fn benchmark_json_at_the_root_is_what_the_registry_says() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&root).expect("BENCHMARK.json at the repository root");
    let out = qbench(&["--benchmark-json"]);
    assert!(out.status.success());
    assert_eq!(on_disk, String::from_utf8_lossy(&out.stdout));
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result_line() {
    for args in [
        &["--workload", "bogus", "--seed", "1"][..],
        &["--workload", "lease-pc", "--seed", "x"],
        &["--workload", "lease-pc", "--agree"],
        &["--frobnicate"],
    ] {
        let out = qbench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(result_lines(&out).is_empty(), "{args:?}");
    }
}

#[test]
fn the_recorded_seed_gives_the_counts_on_record() {
    // A count off its record fails the run; see `src/expected.rs`.
    for workload in ["lease-pc", "backlog-pc"] {
        let out = qbench(&["--workload", workload, "--seed", "1", "--smoke"]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{text}");
        assert!(!text.contains("count-drift"), "{text}");
    }
}

#[test]
fn the_same_seed_gives_the_same_counts() {
    let counts = |seed: &str| -> Vec<String> {
        let out = qbench(&["--workload", "lease-pc", "--seed", seed, "--smoke"]);
        assert!(out.status.success());
        let line = result_lines(&out).pop().unwrap();
        ["fences_per_msg", "space_bytes_per_msg", "attempted"]
            .iter()
            .map(|m| {
                let rest = &line[line.find(&format!("\"{m}\"")).unwrap()..];
                rest[..rest.find(['}', ',']).unwrap()].to_string()
            })
            .collect()
    };
    assert_eq!(counts("11"), counts("11"));
}
