//! The inference workload (`infer-k4`): interface inference for SpLen,
//! repeated in-process one at a time, each inferred interface re-verified.

use std::time::Instant;

use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_core::NodeAnnotations;
use timepiece_expr::Env;
use timepiece_infer::{InferOptions, InferenceEngine, Inferred, RoleMap};
use timepiece_nets::len::LenBench;
use timepiece_nets::PropertySpec;
use timepiece_trace::profile::Profile;
use timepiece_trace::{Json, Phase};

use crate::facts;
use crate::input::{export, Setup};
use crate::layers::{arena_counters, phase_ms, set_smt, Calls};
use crate::stats::{median, ms, quantile, Tally};
use crate::{Ctx, Outcome};

/// Fattree parameter.
const K: usize = 4;
/// Set-up repeats before the first inference.
const SETUP_REPEATS: usize = 5;
/// Set-up repeats before every further inference, so set-up is sampled
/// across the whole run.
const SETUP_PER_RUN: usize = 10;
/// Fewest inferences per process, whatever the time budget; the first
/// (cold) one is not among the measured ones.
const MIN_RUNS: usize = 2;
/// Worker threads of a re-verification check.
const VERIFY_THREADS: usize = 2;
/// Untraced/traced inference pairs of a traced run.
const TRACED_PAIRS: usize = 3;

/// The work counts of one inference; they must repeat exactly.
fn counters(inferred: &Inferred) -> Vec<(String, u64)> {
    let r = &inferred.report;
    vec![
        ("infer.checks".into(), r.checks as u64),
        ("infer.rounds".into(), r.rounds as u64),
        ("infer.repairs".into(), r.total_repairs() as u64),
        ("infer.gave_up".into(), r.gave_up.len() as u64),
    ]
}

/// Re-verifies an inferred interface with the modular checker on
/// `threads` threads and records the outcome in `tally`. Returns the
/// per-node check times (ms).
pub fn verify_interface(
    spec: &PropertySpec,
    interface: &NodeAnnotations,
    threads: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let checker =
        ModularChecker::new(CheckOptions { threads: Some(threads), ..CheckOptions::default() });
    match checker.check(&spec.network, interface, &spec.property) {
        Ok(report) => {
            tally.record(report.is_verified(), || {
                format!("inferred interface does not verify: {}", report.failures()[0])
            });
            report.node_durations().iter().map(|(_, d)| ms(*d)).collect()
        }
        Err(e) => {
            tally.record(false, || format!("re-verification: {e}"));
            Vec::new()
        }
    }
}

/// One timed inference, with its verdict and the work counts it must
/// share with every other inference of the run.
struct Run {
    wall_s: f64,
    inferred: Option<Inferred>,
    tally: Tally,
}

fn infer_once(engine: &InferenceEngine, spec: &PropertySpec, roles: &RoleMap) -> Run {
    let t0 = Instant::now();
    let result = engine.infer(&spec.network, &spec.property, roles.clone(), &[Env::new()]);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let inferred = match result {
        Ok(inferred) => {
            tally.record(inferred.report.verified, || "inference did not verify".into());
            Some(inferred)
        }
        Err(e) => {
            tally.record(false, || format!("inference: {e}"));
            None
        }
    };
    Run { wall_s, inferred, tally }
}

/// Records `run`'s outcome, and whether its work counts repeat `expected`
/// (the first inference's) exactly.
fn absorb(
    run: Run,
    expected: &mut Option<Vec<(String, u64)>>,
    out: &mut Outcome,
) -> Option<Inferred> {
    out.tally.absorb(run.tally);
    let inferred = run.inferred?;
    let counts = counters(&inferred);
    let expected = expected.get_or_insert_with(|| counts.clone());
    out.tally.record(*expected == counts, || {
        format!("inference work counts differ: {counts:?} vs {expected:?}")
    });
    Some(inferred)
}

/// Runs the inference workload. The seed picks the destination edge node
/// (all are equivalent under fattree symmetry).
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let edges = K * K / 2;
    let bench = LenBench::single_dest(K, (ctx.seed % edges as u64) as usize);
    let fattree = bench.fattree().clone();
    let dest = bench.dest_node().expect("single destination");
    let stem = format!("infer-k{K}-seed{}", ctx.seed);
    let path = export(&ctx.work_dir, &stem, ("SpLen", "14b"), K, &bench.build())?;

    let mut setup = Setup::new(&path)?;
    let spec = setup.repeat(SETUP_REPEATS, Ok)?.into_spec();
    let g = spec.network.topology();
    if g.nodes().any(|v| g.name(v) != fattree.topology().name(v)) {
        return Err("the compiled topology does not keep the fattree's node order".into());
    }
    let roles = RoleMap::fattree(&fattree, dest);
    let engine = InferenceEngine::new(InferOptions::default());

    let mut out = Outcome::default();
    out.info.push(("nodes".into(), Json::from(g.node_count())));
    if ctx.traced {
        traced(&engine, &spec, &roles, &setup, &mut out)?;
    } else {
        // one inference at a time; each inferred interface is re-verified
        // outside the timing
        let mut expected = None;
        let start = Instant::now();
        while out.samples.op_s.len() < MIN_RUNS || start.elapsed() < ctx.budget {
            if !out.samples.op_s.is_empty() {
                for _ in 0..SETUP_PER_RUN {
                    setup.once(Ok)?;
                }
            }
            facts::reset_peak_rss();
            let mut run = infer_once(&engine, &spec, &roles);
            out.samples.rss_mb.push(facts::peak_rss_mb());
            out.samples.op_s.push(run.wall_s);
            if let Some(inferred) = &run.inferred {
                verify_interface(&spec, &inferred.interface, VERIFY_THREADS, &mut run.tally);
            }
            absorb(run, &mut expected, &mut out);
        }
        // the first inference pays cold interning: it is recorded on its own
        out.info.push(("op_cold_s".into(), Json::Num(out.samples.op_s.remove(0))));
        out.samples.rss_mb.remove(0);
        out.samples.setup_s = setup.total_s.clone();
        out.counters = expected.unwrap_or_default();
    }
    out.info.extend(setup.info());
    Ok(out)
}

/// The traced run, on one thread: [`TRACED_PAIRS`] alternations of an
/// untraced and a traced inference (the first untraced one also pays the
/// cold interning), then a timed `simulate`. Per-layer numbers come from
/// the last traced inference; the tracing overhead is the difference of
/// the two kinds' medians.
fn traced(
    engine: &InferenceEngine,
    spec: &PropertySpec,
    roles: &RoleMap,
    setup: &Setup,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut untraced_ms, mut traced_ms, mut spanned_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut expected, mut interned, mut last) = (None, None, None);
    for _ in 0..TRACED_PAIRS {
        let baseline = infer_once(engine, spec, roles);
        untraced_ms.push(baseline.wall_s * 1e3);
        let baseline =
            absorb(baseline, &mut expected, out).ok_or("an untraced inference failed")?;
        verify_interface(spec, &baseline.interface, VERIFY_THREADS, &mut out.tally);
        interned.get_or_insert_with(arena_counters);
        timepiece_trace::enable();
        let traced = infer_once(engine, spec, roles);
        timepiece_trace::disable();
        let trace = timepiece_trace::take();
        let profile = Profile::from_trace(&trace, 0);
        traced_ms.push(traced.wall_s * 1e3);
        spanned_ms.push(profile.accounted_ns() as f64 / 1e6);
        let inferred = absorb(traced, &mut expected, out).ok_or("a traced inference failed")?;
        last = Some((traced_ms[traced_ms.len() - 1], inferred, profile, Calls::of(&trace)));
    }
    let (wall_ms, inferred, profile, calls) = last.expect("at least one traced inference");
    let (new, hits, _) = interned.expect("at least one inference");
    let node_ms = verify_interface(spec, &inferred.interface, VERIFY_THREADS, &mut out.tally);
    let t0 = Instant::now();
    let sim = timepiece_sim::simulate(&spec.network, &Env::new(), 64);
    let sim_ms = ms(t0.elapsed());
    let steps = sim.ok().and_then(|trace| trace.converged_at());
    out.tally.record(steps.is_some(), || "the simulation did not converge".into());

    let m = &mut out.metrics;
    m.set("scenario.compile_ms", median(&setup.compile_ms));
    m.set("nets.build_ms", median(&setup.build_ms));
    m.set("expr.terms_interned", new as f64);
    m.set("expr.intern_hit_rate", hits as f64 / (hits + new).max(1) as f64);
    set_smt(m, &profile, &calls, 1.0);
    m.set("sim.ms", sim_ms);
    m.set("sim.step_us", sim_ms * 1e3 / steps.unwrap_or(1).max(1) as f64);
    let r = &inferred.report;
    m.set("infer.sim_ms", ms(r.sim_wall));
    m.set("infer.check_ms", ms(r.check_wall));
    m.set("infer.repair_ms", ms(r.wall) - ms(r.check_wall));
    m.set("infer.checks", r.checks as f64);
    m.set("infer.rounds", r.rounds as f64);
    m.set("infer.repairs", r.total_repairs() as f64);
    m.set("vc.count", calls.solved().iter().sum::<usize>() as f64);
    m.set("check.node_p90_ms", quantile(&node_ms, 0.9));
    let overhead_ms = median(&traced_ms) - median(&untraced_ms);
    m.set("trace.op_s", median(&traced_ms) / 1e3);
    m.set("trace.overhead_ms", overhead_ms);
    let smt_ms = phase_ms(&profile, Phase::Encode) + phase_ms(&profile, Phase::Solve);
    m.set("trace.smt_share", smt_ms / wall_ms);
    // the program's spans (simulation, rounds, node checks, solver), less
    // the tracing overhead, as a share of the untraced inference
    m.set("trace.accounted_share", (median(&spanned_ms) - overhead_ms) / median(&untraced_ms));
    out.counters = counters(&inferred);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_expr::Expr;
    use timepiece_nets::reach::ReachBench;

    /// A wrong interface is a failed operation, counted against the ones
    /// attempted — not dropped.
    #[test]
    fn a_sabotaged_interface_is_counted_as_failed() {
        let bench = ReachBench::single_dest(4, 0);
        let instance = bench.build();
        let spec = instance.spec();
        let mut tally = Tally::default();
        assert!(!verify_interface(&spec, &instance.interface, 2, &mut tally).is_empty());
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // claim a node four hops from the destination has a route at time 0
        let g = spec.network.topology();
        let far = g.nodes().find(|&v| bench.fattree().dist(v, bench.dest_node().unwrap()) == 4);
        let far = far.expect("k=4 has nodes in other pods");
        let mut sabotaged = instance.interface.clone();
        sabotaged.set(far, instance.interface.get(far).with_witness(&Expr::int(0)).unwrap());
        verify_interface(&spec, &sabotaged, 2, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.notes[0].contains("does not verify"), "{:?}", tally.notes);
    }
}
