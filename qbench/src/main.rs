//! `qbench` — the benchmark of the whole durable-queue stack.
//!
//! ```text
//! qbench --workload NAME|all --seed N [--seconds S] [--trace [0|1]] [--dir D]
//!        [--smoke] [--repeat N --agree]
//! ```
//!
//! Runs a workload, checks every delivery against a model, prints every
//! metric by name with its unit, and ends with one JSON object on the last
//! line of standard output. See `README.md` next to this crate for the
//! definitions.

mod deploy;
mod expected;
mod filewl;
mod fit;
mod metrics;
mod model;
mod pairs;
mod probes;
mod stats;
mod sys;
mod trace;

use deploy::{PlainGrouped, PlainLeased, TracedGrouped, TracedLeased};
use filewl::FileWorkload;
use metrics::{ProbeValues, Values};
use pairs::PairsWorkload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Ledger;

/// `run_seconds` of `BENCHMARK.json`: `--seconds` scales the measured
/// rounds relative to this.
const RUN_SECONDS: f64 = 15.0;

/// What the command line asked for.
#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
    smoke: bool,
    repeat: Option<usize>,
    agree: bool,
}

const USAGE: &str = "usage: qbench --workload lease-pc|group-pf|backlog-pc|paper-pairs|all \
--seed N [--seconds S] [--trace [0|1]] [--dir D] [--smoke] [--repeat N --agree]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        dir: None,
        smoke: false,
        repeat: None,
        agree: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = value(&mut i, flag)?,
            "--seed" => {
                args.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
            }
            "--trace" => {
                // Bare, or followed by 0 or 1.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                }
            }
            "--dir" => args.dir = Some(PathBuf::from(value(&mut i, flag)?)),
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = Some(
                    value(&mut i, flag)?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--agree" => args.agree = true,
            "--benchmark-json" => {
                print!("{}", metrics::benchmark_json(RUN_SECONDS as u64));
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    let known = metrics::WORKLOADS.iter().any(|(n, _)| *n == args.workload);
    if !known && args.workload != "all" {
        return Err(format!(
            "--workload {:?} is not one of the workloads\n{USAGE}",
            args.workload
        ));
    }
    if args.agree && args.repeat.is_none_or(|n| n < 2) {
        return Err("--agree needs --repeat N with N >= 2".into());
    }
    Ok(args)
}

/// The data directory of one run, removed when the run ends.
struct DataDir {
    path: PathBuf,
}

impl DataDir {
    fn create(args: &Args) -> Result<DataDir, String> {
        let path = match &args.dir {
            Some(d) => d.join(format!("run-{}", std::process::id())),
            None => {
                let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
                if !manifest.is_dir() {
                    return Err(format!(
                        "{} (where qbench was built) is gone; pass --dir",
                        manifest.display()
                    ));
                }
                manifest
                    .join("target")
                    .join("data")
                    .join(format!("run-{}", std::process::id()))
            }
        };
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(DataDir { path })
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What one run of one workload produced.
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn merge_verdicts(verdicts: &[&(u64, u64, Option<String>)]) -> (u64, u64, Option<String>) {
    let attempted = verdicts.iter().map(|v| v.0).sum::<u64>().max(1);
    let failed = verdicts.iter().map(|v| v.1).sum();
    let first = verdicts.iter().find_map(|v| v.2.clone());
    (attempted, failed, first)
}

/// `min q1 median q3 max` of a sample, for the "measured" lines.
fn range(values: &[f64]) -> String {
    if values.len() < 2 {
        return "none".into();
    }
    let (min, max) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (q1, q3) = stats::quartiles(values);
    format!(
        "{min:.6} {q1:.6} {:.6} {q3:.6} {max:.6}",
        stats::median(values)
    )
}

/// Prints every metric by name with its unit — and, for a layer metric,
/// the end-to-end metric and workload it should move.
fn print_values(values: &Values) {
    for (name, value) in values {
        let def = metrics::def_of(name);
        match def.bound {
            Some(_) => println!("  {name:<34} {value:>16.6} {}", def.unit),
            None => println!("  {name:<34} {value:>16.6} {:<6} -> {}", def.unit, def.note),
        }
    }
}

/// The exact counts on record for this run, if it is one they were
/// recorded for: the recorded seed, untraced, at smoke size or at full size
/// and the benchmark's run length.
fn counts_on_record(args: &Args, workload: &str) -> &'static [(&'static str, f64)] {
    if args.trace || args.seed != expected::SEED || (!args.smoke && args.seconds != RUN_SECONDS) {
        return &[];
    }
    expected::counts(workload, args.smoke)
}

/// Prints every count of `values` that differs from the one on record;
/// returns how many did. Each is a failure of the run.
fn count_drift(on_record: &[(&str, f64)], values: &Values) -> u64 {
    let mut drifted = 0;
    for (name, want) in on_record {
        match values.iter().find(|(n, _)| n == name) {
            Some(&(_, got)) if got == *want => {}
            got => {
                drifted += 1;
                println!(
                    "  count-drift: {name} is {}, on record {want} (qbench/README.md, exact counts)",
                    got.map_or("not reported".to_string(), |&(_, v)| v.to_string())
                );
            }
        }
    }
    drifted
}

/// Rule 1: never more clients than processors.
fn warn_if_oversubscribed(threads: usize) {
    if threads > sys::nproc() {
        println!(
            "  warning: {threads} load threads on {} processor(s): the numbers will not repeat",
            sys::nproc()
        );
    }
}

fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("trace-{workload}.json"))
}

fn write_spans(ledger: &Ledger, workload: &str) {
    let path = trace_path(workload);
    match ledger.write_spans(&path, workload) {
        Ok(n) => println!("  spans: {n} written to {}", path.display()),
        Err(e) => println!("  spans: could not write {}: {e}", path.display()),
    }
}

fn file_workload(name: &str) -> FileWorkload {
    match name {
        "lease-pc" => FileWorkload::lease_pc(),
        "group-pf" => FileWorkload::group_pf(),
        "backlog-pc" => FileWorkload::backlog_pc(),
        other => unreachable!("{other} is not a file workload"),
    }
}

fn run_file(args: &Args, name: &str, dir: &Path, env: ProbeValues) -> Result<Outcome, String> {
    let mut wl = file_workload(name);
    if args.smoke {
        wl = wl.smoke();
    } else {
        // The traced run makes two passes; each gets half the rounds.
        let factor = args.seconds / RUN_SECONDS * if args.trace { 0.5 } else { 1.0 };
        wl = wl.scaled(factor);
    }
    let spec = wl.spec()?;
    warn_if_oversubscribed(wl.threads);
    println!(
        "  shape: {} thread(s), {} msgs/round in {} lap(s) x {} rounds (+{} warm-up), \
         pools {} x {} B + dlq {} B",
        wl.threads,
        wl.round_msgs(),
        wl.laps,
        wl.rounds,
        wl.warmup,
        spec.shards,
        spec.pool_bytes,
        spec.dlq_bytes
    );
    let grouped = wl.groups > 0;
    let plain = if grouped {
        filewl::run(&PlainGrouped(spec.clone()), &wl, args.seed, dir, false)?
    } else {
        filewl::run(&PlainLeased(spec.clone()), &wl, args.seed, dir, false)?
    };
    let (rounds_s, cycles_s) = metrics::measured_seconds_file(&plain);
    println!(
        "  measured: {} samples in {rounds_s:.3} s, {} crash cycles in {cycles_s:.3} s, \
         {} empty poll(s), set-up prepared {} B of pool files",
        plain.laps.len(),
        plain.recover_s.len(),
        plain.empty_polls,
        plain.pool_file_bytes
    );
    let per_lap: Vec<f64> = plain
        .laps
        .iter()
        .map(|l| l.msgs as f64 / (l.produce_s + l.consume_s))
        .collect();
    println!(
        "  spread (min q1 median q3 max): msgs/s per sample {}; recover_s per cycle {}; setup_s {}",
        range(&per_lap),
        range(&plain.recover_s),
        range(&plain.setup_s)
    );
    if !args.trace {
        let (attempted, failed, first_failure) = merge_verdicts(&[&plain.verdict]);
        return Ok(Outcome {
            values: metrics::file_end_to_end(&plain),
            attempted,
            failed,
            first_failure,
        });
    }

    println!("  untraced pass:");
    print_values(&metrics::file_end_to_end(&plain));
    let probes = probes::layers(dir, env).map_err(|e| format!("layer probes: {e}"))?;
    let cal = trace::calibrate();
    let mut traced = if grouped {
        filewl::run(&TracedGrouped(spec), &wl, args.seed, dir, true)?
    } else {
        filewl::run(&TracedLeased(spec), &wl, args.seed, dir, true)?
    };
    let mut ledger = Ledger::merge(std::mem::take(&mut traced.traces), cal);
    let values = metrics::file_per_layer(&plain, &traced, &mut ledger, &probes);
    println!(
        "  traced pass: {:.0} msgs/s; a span costs {:.1} ns in a hot loop, {:.1} ns in place; \
         tails rest on {} produce and {} consume samples",
        metrics::file_end_to_end(&traced)[1].1,
        cal.pair_ns,
        ledger.calibration().pair_ns,
        ledger.produce_us.len(),
        ledger.consume_us.len()
    );
    write_spans(&ledger, name);
    println!(
        "  ledger: layer self times sum to {:.3} us per message; 1 / traced msgs_per_s x threads \
         is {:.3} us",
        metrics::ledger_sum_us(&values, traced.groups),
        1e6 / metrics::file_end_to_end(&traced)[1].1 * traced.threads as f64
    );
    let (attempted, failed, first_failure) = merge_verdicts(&[&plain.verdict, &traced.verdict]);
    Ok(Outcome {
        values,
        attempted,
        failed,
        first_failure,
    })
}

fn run_pairs(args: &Args, dir: &Path, env: ProbeValues) -> Result<Outcome, String> {
    let mut wl = PairsWorkload::full();
    if args.smoke {
        wl = wl.smoke();
    } else {
        let factor = args.seconds / RUN_SECONDS * if args.trace { 0.5 } else { 1.0 };
        wl = wl.scaled(factor);
    }
    warn_if_oversubscribed(pairs::THREADS);
    println!(
        "  shape: {} threads, {} pairs + {} burst items per thread per slice x {} slices \
         (+{} warm-up), simulated pool {} B",
        pairs::THREADS,
        wl.pairs,
        wl.burst,
        wl.slices,
        wl.warmup,
        wl.pool_bytes()?
    );
    let plain = pairs::run_plain(&wl, args.seed)?;
    let mut verdict = plain.verdict.clone();
    if plain.pmem.post_flush_accesses != 0 {
        verdict.1 += 1;
        verdict.2.get_or_insert(format!(
            "{} access(es) to flushed lines: OptUnlinkedQueue must make none",
            plain.pmem.post_flush_accesses
        ));
    }
    println!(
        "  measured: {} slices in {:.3} s, {} crash cycles in {:.3} s",
        plain.slices.len(),
        plain
            .slices
            .iter()
            .map(|s| s.pairs_s + s.produce_s + s.consume_s)
            .sum::<f64>(),
        plain.recover_s.len(),
        plain.recover_s.iter().sum::<f64>()
    );
    let per_slice: Vec<f64> = plain
        .slices
        .iter()
        .map(|s| plain.slice_pairs as f64 / s.pairs_s)
        .collect();
    println!(
        "  spread (min q1 median q3 max): pairs/s per slice {}; recover_s per cycle {}; setup_s {}",
        range(&per_slice),
        range(&plain.recover_s),
        range(&plain.setup_s)
    );
    if !args.trace {
        let (attempted, failed, first_failure) = merge_verdicts(&[&verdict]);
        return Ok(Outcome {
            values: metrics::pairs_end_to_end(&plain),
            attempted,
            failed,
            first_failure,
        });
    }

    println!("  untraced pass:");
    print_values(&metrics::pairs_end_to_end(&plain));
    let probes = probes::layers(dir, env).map_err(|e| format!("layer probes: {e}"))?;
    let cal = trace::calibrate();
    let mut traced = pairs::run_traced(&wl, args.seed)?;
    let mut ledger = Ledger::merge(std::mem::take(&mut traced.traces), cal);
    let msq = pairs::msq_pairs_per_s(&wl, args.seed)?;
    let values = metrics::pairs_per_layer(&plain, &traced, &mut ledger, msq, &probes);
    println!(
        "  traced pass: {:.0} pairs/s; DurableMsQueue: {msq:.0} pairs/s; \
         a span costs {:.1} ns in a hot loop, {:.1} ns in place",
        metrics::pairs_end_to_end(&traced)[1].1,
        cal.pair_ns,
        ledger.calibration().pair_ns
    );
    write_spans(&ledger, "paper-pairs");
    let (attempted, failed, first_failure) = merge_verdicts(&[&verdict, &traced.verdict]);
    Ok(Outcome {
        values,
        attempted,
        failed,
        first_failure,
    })
}

/// Runs one workload once and prints its report; the result line is
/// returned, not printed.
fn run_workload(args: &Args, name: &str) -> Result<(Outcome, String), String> {
    let data = DataDir::create(args)?;
    let (fs, tmpfs) = sys::fs_type(&data.path);
    let env = probes::env(&data.path).map_err(|e| format!("environment probes: {e}"))?;
    println!(
        "{name}: seed {}, {} on {} processor(s), data in {} ({fs})",
        args.seed,
        if args.trace { "traced" } else { "gated" },
        sys::nproc(),
        data.path.display()
    );
    println!(
        "  env: msync of one page {:.1} us, 40-byte append + fdatasync {:.1} us, \
         spin {:.1} ns per 1000 steps",
        env.msync_page_us, env.fdatasync_append_us, env.spin_calib_ns
    );
    // A smoke run measures nothing anyway.
    if name == "group-pf" && tmpfs && !args.smoke {
        return Err(format!(
            "group-pf refuses to run on tmpfs ({}): msync is a no-op there and the workload \
             would measure nothing; pass --dir on a disk-backed filesystem",
            data.path.display()
        ));
    }
    let outcome = if name == "paper-pairs" {
        run_pairs(args, &data.path, env)?
    } else {
        run_file(args, name, &data.path, env)?
    };
    print_values(&outcome.values);
    let drifted = count_drift(counts_on_record(args, name), &outcome.values);
    let outcome = Outcome {
        attempted: outcome.attempted + drifted,
        failed: outcome.failed + drifted,
        ..outcome
    };
    println!(
        "  failed_share {} ({} failed of {} attempted){}",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted,
        match &outcome.first_failure {
            Some(f) => format!("; first: {f}"),
            None => String::new(),
        }
    );
    let line = metrics::result_line(
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        &outcome.values,
    );
    Ok((outcome, line))
}

/// Runs one workload once in a child process — exactly what the driver
/// does, so that no run inherits page cache, leaked mappings or warmed
/// allocator state from the one before — echoes its report and parses its
/// result line.
fn run_child(args: &Args, name: &str, seed: u64) -> Result<(Values, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating qbench: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(dir) = &args.dir {
        cmd.arg("--dir").arg(dir);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a run of {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let line = text
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .ok_or_else(|| format!("the run of {name} (seed {seed}) printed no result"))?;
    Ok((parse_result_line(line), line.contains("\"correct\": true")))
}

/// Reads the metric values back out of a line [`metrics::result_line`]
/// wrote.
fn parse_result_line(line: &str) -> Values {
    metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .filter_map(|d| {
            let key = format!("\"{}\": {{\"value\": ", d.name);
            let rest = &line[line.find(&key)? + key.len()..];
            let value = rest[..rest.find(',')?].parse().ok()?;
            Some((d.name, value))
        })
        .collect()
}

/// `--repeat N --agree`: two sets of N runs, alternating, then each
/// metric's two medians side by side. Returns whether every pair agrees
/// within the metric's bound.
fn repeat_and_agree(args: &Args, name: &str) -> Result<bool, String> {
    let n = args.repeat.unwrap_or(2);
    let mut sets: [Vec<Values>; 2] = [Vec::new(), Vec::new()];
    let mut all_correct = true;
    for run in 0..2 * n {
        let (values, correct) = run_child(args, name, args.seed + (run / 2) as u64)?;
        all_correct &= correct;
        sets[run % 2].push(values);
    }
    println!(
        "{name}: two sets of {n} runs, alternating (A B A B ...), seeds {}..{}",
        args.seed,
        args.seed + n as u64 - 1
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "metric", "median A", "median B", "iqr A", "iqr B", "diff"
    );
    let mut agree = all_correct;
    for (i, (metric, _)) in sets[0][0].iter().enumerate() {
        let column = |set: &Vec<Values>| set.iter().map(|v| v[i].1).collect::<Vec<f64>>();
        let (a, b) = (column(&sets[0]), column(&sets[1]));
        let (ma, mb) = (stats::median(&a), stats::median(&b));
        let diff = if ma == mb {
            0.0
        } else {
            (ma - mb).abs() / ma.abs().min(mb.abs())
        };
        let bound = metrics::END_TO_END
            .iter()
            .find(|d| d.name == *metric)
            .and_then(|d| d.bound);
        let verdict = match bound {
            Some(b) if diff > b => {
                agree = false;
                format!("DISAGREE (bound {b})")
            }
            Some(b) => format!("ok (bound {b})"),
            None => "no bound".to_string(),
        };
        println!(
            "  {metric:<26} {ma:>14.6} {mb:>14.6} {:>8.4} {:>8.4} {diff:>8.4}  {verdict}",
            stats::spread(&a),
            stats::spread(&b)
        );
    }
    if !all_correct {
        println!("  at least one run was incorrect");
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        metrics::WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        if args.agree {
            match repeat_and_agree(&args, name) {
                Ok(agree) => ok &= agree,
                Err(e) => {
                    eprintln!("qbench: {e}");
                    return ExitCode::from(1);
                }
            }
            continue;
        }
        let runs = args.repeat.unwrap_or(1);
        for run in 0..runs {
            let seed = args.seed + run as u64;
            let result = if runs > 1 || args.workload == "all" {
                run_child(&args, name, seed).map(|(_, correct)| correct)
            } else {
                run_workload(&args, name).map(|(outcome, line)| {
                    println!("{line}");
                    outcome.correct()
                })
            };
            match result {
                Ok(correct) => ok &= correct,
                Err(e) => {
                    // No result line: the run did not measure anything.
                    eprintln!("qbench: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_off_its_record_is_a_failure() {
        let values: Values = vec![("fences_per_msg", 2.0), ("space_bytes_per_msg", 16.5)];
        let same = [("fences_per_msg", 2.0), ("space_bytes_per_msg", 16.5)];
        assert_eq!(count_drift(&same, &values), 0);
        let moved = [("fences_per_msg", 2.0), ("space_bytes_per_msg", 16.25)];
        assert_eq!(count_drift(&moved, &values), 1);
        let absent = [("setup_s", 1.0)];
        assert_eq!(count_drift(&absent, &values), 1);
        assert_eq!(count_drift(&[], &values), 0);
    }

    #[test]
    fn counts_are_compared_only_on_the_runs_they_were_recorded_for() {
        let args = |extra: &[&str]| {
            let argv: Vec<String> = ["--workload", "lease-pc", "--seed", "1"]
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect();
            parse_args(&argv).unwrap()
        };
        assert!(!counts_on_record(&args(&[]), "lease-pc").is_empty());
        assert!(!counts_on_record(&args(&["--smoke"]), "backlog-pc").is_empty());
        assert!(counts_on_record(&args(&["--seconds", "5"]), "lease-pc").is_empty());
        assert!(counts_on_record(&args(&["--trace", "1"]), "lease-pc").is_empty());
        assert!(counts_on_record(&args(&[]), "group-pf").is_empty());
        let mut other_seed = args(&[]);
        other_seed.seed = 2;
        assert!(counts_on_record(&other_seed, "lease-pc").is_empty());
    }
}
