//! `perfbench`: the repository's benchmark.
//!
//! Runs one workload for a fixed time through the public APIs of the
//! verification crates, checks every verdict, and prints a report line and
//! then, as the last line, the result object:
//!
//! ```text
//! {"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.031, "unit": "s"}, ...}}
//! ```
//!
//! An end-to-end run splits its time over several child processes (see
//! [`parts`]) run one after another, and pools their samples: the same work
//! runs up to a quarter faster or slower from one process to the next, so
//! pooling over processes is what makes the medians repeat. A traced run stays in one
//! process. `run.py` builds this binary, refuses a stale one, and is the
//! entry point; see `README.md` for the workloads and the metric catalogue.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//!               [--rustc VERSION] [--commit HASH]
//! perfbench stamp [--check ROOT]
//! ```
//!
//! `stamp --check ROOT` exits 3 when the tree at `ROOT` is not the one this
//! binary was built from.

mod batch;
mod daemon;
mod facts;
mod infer;
mod input;
mod layers;
mod metrics;
mod stamp;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use timepiece_trace::Json;

use crate::metrics::{Metrics, END_TO_END, PER_LAYER, UNLISTED};
use crate::stats::{median, Tally};

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["ap-solve-k6", "daemon-edits-k12", "infer-k4"];

/// Child processes per end-to-end run of `workload`. The same checks or
/// inferences take up to a quarter longer in one process than in the
/// next, so the batch workloads pool four; the daemon pools two (its
/// processes each pay start-ups with a full check, and its edit rounds
/// agree across processes).
fn parts(workload: &str) -> u32 {
    if workload == "daemon-edits-k12" {
        2
    } else {
        4
    }
}

/// What a workload is run with.
#[derive(Debug)]
pub struct Ctx {
    /// Seeds the generated inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Where generated inputs are written.
    pub work_dir: PathBuf,
}

/// The raw timings of an end-to-end run, pooled over its parts.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up repeats, in seconds.
    pub setup_s: Vec<f64>,
    /// Operations (a full check, an inference, an edit round), in seconds.
    pub op_s: Vec<f64>,
    /// Peak resident memory during each operation, in MB.
    pub rss_mb: Vec<f64>,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Raw timings (end-to-end runs).
    pub samples: Samples,
    /// Metric values (traced runs).
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Work counts that repeat exactly for a given seed.
    pub counters: Vec<(String, u64)>,
    /// Anything else worth recording in the report line.
    pub info: Vec<(String, Json)>,
}

#[derive(Debug)]
struct Args {
    workload: String,
    ctx: Ctx,
    rustc: String,
    commit: String,
    /// Set in a child process: its index.
    part: Option<u32>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing --{name}"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let number = |v: String, name: &str| {
        v.parse::<u64>().map_err(|_| format!("--{name} takes a whole number"))
    };
    let seed = number(take("seed")?, "seed")?;
    let seconds = number(take("seconds")?, "seconds")?;
    let traced = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let work_dir = PathBuf::from(take("work-dir")?);
    let rustc = take("rustc").unwrap_or_else(|_| "unknown".into());
    let commit = take("commit").unwrap_or_else(|_| "unknown".into());
    let part = take("part").ok().map(|p| number(p, "part")).transpose()?.map(|p| p as u32);
    let budget = match take("budget-ms") {
        Ok(ms) => Duration::from_millis(number(ms, "budget-ms")?),
        Err(_) => Duration::from_secs(seconds),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    let ctx = Ctx { seed, budget, traced, work_dir };
    Ok(Args { workload, ctx, rustc, commit, part })
}

/// Runs the workload in this process.
fn run_here(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "ap-solve-k6" => batch::run(ctx),
        "daemon-edits-k12" => daemon::run(ctx),
        "infer-k4" => infer::run(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

fn nums(xs: &[f64]) -> Json {
    Json::arr(xs.iter().map(|x| Json::Num(*x)))
}

fn parse_nums(value: Option<&Json>) -> Vec<f64> {
    value.and_then(Json::as_arr).unwrap_or(&[]).iter().filter_map(Json::as_f64).collect()
}

fn counters_json(counters: &[(String, u64)]) -> Json {
    Json::Obj(counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect())
}

/// A child's single output line.
fn part_line(outcome: &Outcome) -> Json {
    let s = &outcome.samples;
    Json::obj([(
        "part",
        Json::obj([
            ("setup_s", nums(&s.setup_s)),
            ("op_s", nums(&s.op_s)),
            ("rss_mb", nums(&s.rss_mb)),
            ("attempted", Json::Num(outcome.tally.attempted as f64)),
            ("failed", Json::Num(outcome.tally.failed as f64)),
            ("notes", Json::arr(outcome.tally.notes.iter().map(|n| Json::str(n.clone())))),
            ("counters", counters_json(&outcome.counters)),
            ("info", Json::Obj(outcome.info.clone())),
        ]),
    )])
}

/// Runs one child process and parses its output line.
fn run_part(args: &Args, part: u32, budget_ms: u128) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let child = Command::new(exe)
        .args(["run", "--workload", &args.workload, "--trace", "0"])
        .args(["--seed", &args.ctx.seed.to_string()])
        .args(["--seconds", &args.ctx.budget.as_secs().to_string()])
        .args(["--budget-ms", &budget_ms.to_string(), "--part", &part.to_string()])
        .arg("--work-dir")
        .arg(&args.ctx.work_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting part {part}: {e}"))?;
    if !child.status.success() {
        return Err(format!("part {part} exited with {}", child.status));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("part {part} printed {line:?}: {e}"))?;
    doc.get("part").cloned().ok_or_else(|| format!("part {part} printed no samples"))
}

/// Runs the end-to-end workload as [`parts`] child processes, one after
/// another, and pools what they measured. Every child must report the
/// same work counters: a difference is a failed operation.
fn run_parts(args: &Args) -> Result<Outcome, String> {
    let parts = parts(&args.workload);
    let budget_ms = (args.ctx.budget.as_millis() / u128::from(parts)).max(1);
    let mut out = Outcome::default();
    let mut per_part = Vec::new();
    for part in 0..parts {
        let p = run_part(args, part, budget_ms)?;
        let num = |key: &str| p.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let ops = parse_nums(p.get("op_s"));
        per_part
            .push(Json::obj([("ops", Json::from(ops.len())), ("op_s", Json::Num(median(&ops)))]));
        out.samples.op_s.extend(ops);
        out.samples.setup_s.extend(parse_nums(p.get("setup_s")));
        out.samples.rss_mb.extend(parse_nums(p.get("rss_mb")));
        out.tally.attempted += num("attempted") as u64;
        out.tally.failed += num("failed") as u64;
        let notes = p.get("notes").and_then(Json::as_arr).unwrap_or(&[]);
        out.tally.notes.extend(notes.iter().filter_map(|n| n.as_str().map(str::to_owned)));
        let counters: Vec<(String, u64)> = match p.get("counters") {
            Some(Json::Obj(pairs)) => {
                pairs.iter().map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(-1.0) as u64)).collect()
            }
            _ => Vec::new(),
        };
        if part == 0 {
            out.counters = counters;
            if let Some(Json::Obj(info)) = p.get("info") {
                out.info = info.clone();
            }
        } else {
            let expected = &out.counters;
            out.tally.record(counters == *expected, || {
                format!("part {part} work counters {counters:?} differ from part 0's {expected:?}")
            });
        }
    }
    out.metrics.set("setup_s", median(&out.samples.setup_s));
    out.metrics.set("op_s", median(&out.samples.op_s));
    out.metrics.set("peak_rss_mb", median(&out.samples.rss_mb));
    out.info.push(("parts".into(), Json::arr(per_part)));
    out.info.push(("ops".into(), Json::from(out.samples.op_s.len())));
    out.info.push(("setup_samples".into(), Json::from(out.samples.setup_s.len())));
    Ok(out)
}

/// `stamp` prints the tree stamp embedded at build time; `stamp --check
/// ROOT` compares it with the live tree at `ROOT` and exits 3 on a mismatch.
fn stamp_command(args: &[String]) -> ExitCode {
    match args {
        [] => {
            println!("{}", facts::TREE_STAMP);
            ExitCode::SUCCESS
        }
        [flag, root] if flag == "--check" => match stamp::tree_stamp(root.as_ref()) {
            Ok(live) if live == facts::TREE_STAMP => ExitCode::SUCCESS,
            Ok(live) => {
                eprintln!("stale binary: built from tree {}, {root} is {live}", facts::TREE_STAMP);
                ExitCode::from(3)
            }
            Err(e) => {
                eprintln!("error: stamping {root}: {e}");
                ExitCode::from(3)
            }
        },
        _ => {
            eprintln!("usage: perfbench stamp [--check ROOT]");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("stamp") => return stamp_command(&argv[1..]),
        Some("run") => {}
        _ => {
            eprintln!(
                "usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR"
            );
            return ExitCode::from(2);
        }
    }
    let args = match parse_args(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.part.is_some() {
        // `peak_rss_mb` is read per operation, after a reset of the peak
        if !facts::reset_peak_rss() {
            eprintln!("error: the peak resident set cannot be reset (/proc/self/clear_refs)");
            return ExitCode::FAILURE;
        }
        return match run_here(&args.workload, &args.ctx) {
            Ok(outcome) => {
                println!("{}", part_line(&outcome));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {}: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }

    let traced = args.ctx.traced;
    let calib_start = facts::calibrate();
    let outcome = if traced { run_here(&args.workload, &args.ctx) } else { run_parts(&args) };
    let calib_end = facts::calibrate();
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if traced {
        outcome.metrics.set("proc.cpu_s", facts::cpu_s());
        outcome.metrics.set("calib_ms", calib_start);
    }
    let Outcome { metrics, tally, counters, info, .. } = outcome;
    for note in &tally.notes {
        eprintln!("failed: {note}");
    }
    let mut report = vec![
        ("workload".to_owned(), Json::str(args.workload.clone())),
        ("seed".to_owned(), Json::Num(args.ctx.seed as f64)),
        ("seconds".to_owned(), Json::Num(args.ctx.budget.as_secs_f64())),
        ("trace".to_owned(), Json::Bool(traced)),
        ("nproc".to_owned(), Json::from(facts::nproc())),
        ("libz3".to_owned(), Json::str(facts::z3_version())),
        ("rustc".to_owned(), Json::str(args.rustc.clone())),
        ("commit".to_owned(), Json::str(args.commit.clone())),
        ("tree_stamp".to_owned(), Json::str(facts::TREE_STAMP)),
        ("calib_ms".to_owned(), Json::arr([Json::Num(calib_start), Json::Num(calib_end)])),
        ("counters".to_owned(), counters_json(&counters)),
        ("failures".to_owned(), Json::arr(tally.notes.iter().map(|n| Json::str(n.clone())))),
        ("unlisted_metrics".to_owned(), metrics.set_only(UNLISTED)),
    ];
    report.extend(info);
    println!("{}", Json::obj([("report", Json::Obj(report))]));

    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics.to_json(catalogue, !traced)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
