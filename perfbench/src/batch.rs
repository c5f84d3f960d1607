//! The batch workload `ap-solve-k6`: repeated full-network modular checks
//! of ApLen on a k=6 fattree, exported as a scenario file.

use std::collections::HashMap;
use std::time::Instant;

use timepiece_algebra::Network;
use timepiece_core::check::{CheckOptions, CheckReport, ModularChecker};
use timepiece_core::vc::{inductive_vc, initial_vc, safety_vc};
use timepiece_core::NodeAnnotations;
use timepiece_nets::len::LenBench;
use timepiece_nets::BenchInstance;
use timepiece_trace::profile::Profile;
use timepiece_trace::{Json, Phase, SpanKind, Trace};

use crate::facts;
use crate::input::{export, Setup};
use crate::layers::{arena_counters, phase_ms, set_smt, Calls};
use crate::metrics::Metrics;
use crate::stats::{median, ms, quantile, Tally};
use crate::{Ctx, Outcome};

/// Fattree parameter: ApLen k=6 has 45 nodes.
const K: usize = 6;
/// Worker threads of the measured check.
const THREADS: usize = 2;
/// Set-up repeats before the first check.
const SETUP_REPEATS: usize = 5;
/// Set-up repeats before every further check: spread over the whole run,
/// set-up is sampled in the same machine states as the checks.
const SETUP_PER_CHECK: usize = 10;
/// Fewest checks per process, whatever the time budget; the first (cold)
/// one is not among the measured ones.
const MIN_CHECKS: usize = 3;
/// Untraced/traced check pairs of a traced run.
const TRACED_PAIRS: usize = 5;

fn checker(threads: usize) -> ModularChecker {
    ModularChecker::new(CheckOptions { threads: Some(threads), ..CheckOptions::default() })
}

/// Runs the workload. ApLen's destination is symbolic (one check covers
/// every destination), so the seed does not change the input.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let stem = format!("ap-solve-k{K}-seed{}", ctx.seed);
    let path = export(&ctx.work_dir, &stem, ("ApLen", "14f"), K, &LenBench::all_pairs(K).build())?;

    let mut setup = Setup::new(&path)?;
    if ctx.traced {
        timepiece_trace::enable();
    }
    let BenchInstance { network: net, interface, property } = setup.repeat(SETUP_REPEATS, Ok)?;
    let mut out = Outcome::default();
    out.info.push(("nodes".into(), Json::from(net.topology().node_count())));
    if ctx.traced {
        timepiece_trace::disable();
        traced(&net, &interface, &property, &setup, &mut out)?;
    } else {
        measured(ctx, &mut setup, (&net, &interface, &property), &mut out)?;
        out.samples.setup_s = setup.total_s.clone();
    }
    out.info.extend(setup.info());
    Ok(out)
}

/// Records whether a check verified every node.
fn record(tally: &mut Tally, what: &str, nodes: usize, report: &Result<CheckReport, String>) {
    let ok = matches!(report, Ok(r) if r.is_verified() && r.node_durations().len() == nodes);
    tally.record(ok, || match report {
        Ok(r) => match r.failures().first() {
            Some(failure) => format!("{what} failed: {failure}"),
            None => format!("{what} checked {} nodes", r.node_durations().len()),
        },
        Err(e) => format!("{what}: {e}"),
    });
}

/// The untraced run: full checks until the time budget is spent, each
/// but the first preceded by set-up repeats, and each followed by a
/// reading of the check's peak resident memory.
fn measured(
    ctx: &Ctx,
    setup: &mut Setup,
    (net, interface, property): (&Network, &NodeAnnotations, &NodeAnnotations),
    out: &mut Outcome,
) -> Result<(), String> {
    let nodes = net.topology().node_count();
    let checker = checker(THREADS);
    let start = Instant::now();
    while out.samples.op_s.len() < MIN_CHECKS || start.elapsed() < ctx.budget {
        if !out.samples.op_s.is_empty() {
            for _ in 0..SETUP_PER_CHECK {
                setup.once(Ok)?;
            }
        }
        facts::reset_peak_rss();
        let t0 = Instant::now();
        let report = checker.check(net, interface, property).map_err(|e| e.to_string());
        out.samples.op_s.push(t0.elapsed().as_secs_f64());
        out.samples.rss_mb.push(facts::peak_rss_mb());
        record(&mut out.tally, "check", nodes, &report);
    }
    // the first check pays cold interning and solver start-up: it is
    // recorded on its own
    out.info.push(("op_cold_s".into(), Json::Num(out.samples.op_s.remove(0))));
    out.samples.rss_mb.remove(0);
    // every check and set-up interns the same terms, so the arena's size
    // is fixed by the input however many of them ran
    let (interned, _, _) = arena_counters();
    out.counters = vec![("expr.terms_interned".into(), interned)];
    Ok(())
}

/// Times the condition builders over every node, one kind at a time,
/// outside any check: ms per full network, by kind.
fn build_ms(net: &Network, interface: &NodeAnnotations, property: &NodeAnnotations) -> [f64; 3] {
    let nodes: Vec<_> = net.topology().nodes().collect();
    let time = |build: &dyn Fn(timepiece_topology::NodeId)| {
        let t0 = Instant::now();
        nodes.iter().for_each(|&v| build(v));
        ms(t0.elapsed())
    };
    [
        time(&|v| drop(std::hint::black_box(initial_vc(net, interface, v)))),
        time(&|v| drop(std::hint::black_box(inductive_vc(net, interface, v, 0)))),
        time(&|v| drop(std::hint::black_box(safety_vc(net, interface, property, v)))),
    ]
}

/// The work counts of a 1-thread traced check; they repeat exactly.
fn work_counters(report: &CheckReport, calls: &Calls) -> Vec<(String, u64)> {
    let terms = report.term_cache().unwrap_or_default();
    let mut counts = calls.counters();
    counts.push(("smt.term_hits".into(), terms.hits));
    counts.push(("smt.term_misses".into(), terms.misses));
    counts
}

/// Per-layer metrics of one traced check at [`THREADS`] threads, from the
/// program's own spans and report; also the span self time per worker
/// (ms), which [`traced`] sets against the untraced checks.
fn pass_metrics(report: &CheckReport, trace: &Trace, wall_ms: f64) -> (Metrics, f64) {
    let profile = Profile::from_trace(trace, 0);
    let calls = Calls::of(trace);
    let mut m = Metrics::default();
    set_smt(&mut m, &profile, &calls, 1.0);
    let terms = report.term_cache().unwrap_or_default();
    m.set("smt.term_cache_hit_rate", terms.hit_rate());

    // scheduler: a worker is busy inside its node checks (`Node` spans, one
    // thread per worker) and otherwise claiming, stealing or waiting for
    // the check to end
    let (workers, steals) = report.scheduler().map_or((THREADS, 0), |s| (s.workers, s.steals));
    let mut busy: HashMap<u64, f64> = HashMap::new();
    for s in &trace.spans {
        if s.kind == SpanKind::Complete && s.phase == Phase::Node {
            *busy.entry(s.tid).or_default() += s.dur_ns as f64 / 1e6;
        }
    }
    let busy_ms: f64 = busy.values().sum();
    let capacity = wall_ms * workers as f64;
    m.set("sched.steals", steals as f64);
    m.set("sched.imbalance", busy.values().copied().fold(0.0, f64::max) * workers as f64 / busy_ms);
    m.set("sched.idle_ms", capacity - busy_ms);
    m.set("sched.cpu_util", busy_ms / capacity);

    let node_ms = |class: Option<&str>| -> Vec<f64> {
        let rows = profile.nodes.iter().filter(|n| class.is_none_or(|c| n.class == c));
        rows.map(|n| n.total_ns as f64 / 1e6).collect()
    };
    m.set("check.node_p90_ms", quantile(&node_ms(None), 0.9));
    for (class, name) in [
        ("core", "check.node_ms.core"),
        ("agg", "check.node_ms.agg"),
        ("edge", "check.node_ms.edge"),
    ] {
        m.set(name, median(&node_ms(Some(class))));
    }
    // of the time workers spent checking nodes, the share inside the solver
    let smt_ms = phase_ms(&profile, Phase::Encode) + phase_ms(&profile, Phase::Solve);
    m.set("trace.smt_share", smt_ms / busy_ms);
    (m, profile.accounted_ns() as f64 / 1e6 / workers as f64)
}

/// The traced run, in one process. In order: the condition builders timed
/// on their own; two 1-thread traced checks, whose work counters must
/// repeat exactly (the first also pays cold interning of the conditions'
/// terms); then [`TRACED_PAIRS`] alternations of an untraced and a traced
/// `ModularChecker::check` at the measured thread count. Per-layer times
/// are medians over the traced checks; the tracing overhead is the
/// difference of the two kinds' medians.
fn traced(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    setup: &Setup,
    out: &mut Outcome,
) -> Result<(), String> {
    let nodes = net.topology().node_count();
    let m = &mut out.metrics;
    m.set("scenario.compile_ms", median(&setup.compile_ms));
    m.set("nets.build_ms", median(&setup.build_ms));
    // set-up ran traced, so the arena's interning time is known for it;
    // its counts cover set-up plus the first (cold) check below
    let (_, _, setup_intern_ns) = arena_counters();
    m.set("expr.intern_ms", setup_intern_ns as f64 / 1e6 / setup.total_s.len() as f64);
    let [initial, inductive, safety] = build_ms(net, interface, property);
    m.set("vc.build_ms.initial", initial);
    m.set("vc.build_ms.inductive", inductive);
    m.set("vc.build_ms.safety", safety);

    let single = checker(1);
    let mut counts = Vec::new();
    for i in 0..2 {
        timepiece_trace::enable();
        let report = single.check(net, interface, property).map_err(|e| e.to_string());
        timepiece_trace::disable();
        let calls = Calls::of(&timepiece_trace::take());
        record(&mut out.tally, "a 1-thread traced check", nodes, &report);
        if i == 0 {
            let (new, hits, _) = arena_counters();
            m.set("expr.terms_interned", new as f64);
            m.set("expr.intern_hit_rate", hits as f64 / (hits + new).max(1) as f64);
            m.set("vc.count", calls.solved().iter().sum::<usize>() as f64);
        }
        counts.push(report.map(|r| work_counters(&r, &calls)).unwrap_or_default());
    }
    out.tally.record(counts[0] == counts[1], || {
        format!("1-thread check counters differ: {:?} vs {:?}", counts[0], counts[1])
    });
    out.counters = counts.pop().expect("two checks");

    let checker = checker(THREADS);
    let (mut untraced_ms, mut traced_ms, mut passes, mut spanned_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACED_PAIRS {
        let t0 = Instant::now();
        let report = checker.check(net, interface, property).map_err(|e| e.to_string());
        untraced_ms.push(ms(t0.elapsed()));
        record(&mut out.tally, "an untraced check", nodes, &report);

        timepiece_trace::enable();
        let t0 = Instant::now();
        let report = checker.check(net, interface, property).map_err(|e| e.to_string());
        let wall_ms = ms(t0.elapsed());
        timepiece_trace::disable();
        let trace = timepiece_trace::take();
        record(&mut out.tally, "a traced check", nodes, &report);
        traced_ms.push(wall_ms);
        if let Ok(report) = &report {
            let (pass, spanned) = pass_metrics(report, &trace, wall_ms);
            passes.push(pass);
            spanned_ms.push(spanned);
        }
    }
    let m = &mut out.metrics;
    m.set_medians(&passes);
    let overhead_ms = median(&traced_ms) - median(&untraced_ms);
    m.set("trace.op_s", median(&traced_ms) / 1e3);
    m.set("trace.overhead_ms", overhead_ms);
    // the program's spans (solver, scheduler claims, node bookkeeping and
    // condition building) per worker, less the tracing overhead, as a
    // share of the untraced check; the rest is unspanned waiting
    m.set("trace.accounted_share", (median(&spanned_ms) - overhead_ms) / median(&untraced_ms));
    Ok(())
}
