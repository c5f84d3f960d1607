//! The daemon workload (`daemon-edits-k12`): a warm `timepieced` on
//! SpReach k=12 over loopback TCP, one writer streaming seeded edits and
//! one reader polling `status`, both in a closed loop.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use timepiece_core::check::CheckOptions;
use timepiece_daemon::client::Client;
use timepiece_daemon::protocol::{Delta, Request};
use timepiece_daemon::server::serve;
use timepiece_daemon::state::DaemonState;
use timepiece_nets::reach::ReachBench;
use timepiece_topology::{FatTree, NodeId};
use timepiece_trace::profile::Profile;
use timepiece_trace::{Json, Phase as TracePhase};

use crate::input::{export, Setup};
use crate::layers::{phase_ms, set_smt, Calls};
use crate::stats::{median, ms, quantile, SplitMix, Tally};
use crate::{Ctx, Outcome};

/// Fattree parameter.
const K: usize = 12;
/// Set-up repeats per process, each of which starts a daemon and runs its
/// initial check. The first starts the served daemon; each later one
/// starts (and stops) a spare daemon between two segments of the measured
/// edits, so set-up is sampled across the whole run.
const SETUP_REPEATS: usize = 3;
/// Checker threads of the daemon.
const THREADS: usize = 2;
/// Fewest edit rounds per measured phase, whatever the time budget.
const MIN_ROUNDS: usize = 5;
/// Edits whose dirty cones make up the repeatable work counter.
const COUNTED_EDITS: usize = 20;

/// One seeded edit round: a link goes down and comes back up, then a
/// node's witness time is delayed and restored. Odd positions undo the
/// edit before them.
fn edit_round(rng: &mut SplitMix, fattree: &FatTree, dest: NodeId) -> [Delta; 4] {
    let g = fattree.topology();
    let name = |v: NodeId| g.name(v).to_owned();
    let links: Vec<(NodeId, NodeId)> = g.edges().filter(|(u, v)| u < v).collect();
    let (u, v) = links[rng.below(links.len())];
    let w = NodeId::new(rng.below(g.node_count()) as u32);
    // SpReach's interface witness time is the node's distance to the
    // destination; the edit delays it, the undo restores it
    let tau = fattree.dist(w, dest) as i64;
    let later = tau + 1 + rng.below(3) as i64;
    [
        Delta::LinkDown { u: name(u), v: name(v) },
        Delta::LinkUp { u: name(u), v: name(v) },
        Delta::WitnessTime { node: name(w), tau: later },
        Delta::WitnessTime { node: name(w), tau },
    ]
}

/// Round trips and replies of one measured phase.
#[derive(Debug, Default)]
struct Phase {
    round_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    edit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    cones: Vec<f64>,
    last_delta_reply: Option<Json>,
}

impl Phase {
    /// Appends `later`'s samples.
    fn extend(&mut self, later: Phase) {
        self.round_ms.extend(later.round_ms);
        self.rss_mb.extend(later.rss_mb);
        self.edit_ms.extend(later.edit_ms);
        self.read_ms.extend(later.read_ms);
        self.cones.extend(later.cones);
        self.last_delta_reply = later.last_delta_reply.or(self.last_delta_reply.take());
    }
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Streams edit rounds from `rng` until `budget` is spent while a reader
/// polls `status`; checks every reply.
fn phase(
    addr: std::net::SocketAddr,
    budget: Duration,
    rng: &mut SplitMix,
    (fattree, dest): (&FatTree, NodeId),
    tally: &mut Tally,
) -> Result<Phase, String> {
    let nodes = fattree.topology().node_count();
    let stop = AtomicBool::new(false);
    let mut writer = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut reader = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut out = Phase::default();
    let (read_ms, read_tally) = std::thread::scope(|s| {
        let reads = s.spawn(|| {
            let (mut rtts, mut tally) = (Vec::new(), Tally::default());
            while !stop.load(Ordering::SeqCst) {
                let t0 = Instant::now();
                let reply = reader.send(&Request::Status);
                rtts.push(ms(t0.elapsed()));
                let ok = matches!(&reply, Ok(r) if is_ok(r)
                    && r.get("nodes").and_then(Json::as_usize) == Some(nodes));
                tally.record(ok, || format!("status reply: {reply:?}"));
            }
            (rtts, tally)
        });
        let start = Instant::now();
        while out.round_ms.len() < MIN_ROUNDS || start.elapsed() < budget {
            crate::facts::reset_peak_rss();
            let round = Instant::now();
            for (i, delta) in edit_round(rng, fattree, dest).into_iter().enumerate() {
                let t0 = Instant::now();
                let reply = writer.send(&Request::Delta(delta));
                out.edit_ms.push(ms(t0.elapsed()));
                let reply = match reply {
                    Ok(reply) => reply,
                    Err(e) => {
                        tally.record(false, || format!("delta: {e}"));
                        continue;
                    }
                };
                let cone = reply.get("cone_size").and_then(Json::as_usize).unwrap_or(0);
                // the undo must bring every node back to verified
                let restored =
                    i % 2 == 0 || reply.get("verified").and_then(Json::as_bool) == Some(true);
                tally.record(is_ok(&reply) && cone > 0 && restored, || {
                    format!("delta reply: {reply}")
                });
                out.cones.push(cone as f64);
                out.last_delta_reply = Some(reply);
            }
            out.round_ms.push(ms(round.elapsed()));
            out.rss_mb.push(crate::facts::peak_rss_mb());
        }
        stop.store(true, Ordering::SeqCst);
        reads.join().expect("reader thread panicked")
    });
    out.read_ms = read_ms;
    tally.absorb(read_tally);
    Ok(out)
}

/// Runs the daemon workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let edges = K * K / 2;
    let bench = ReachBench::single_dest(K, (ctx.seed % edges as u64) as usize);
    let fattree = bench.fattree().clone();
    let dest = bench.dest_node().expect("single destination");
    let stem = format!("daemon-k{K}-seed{}", ctx.seed);
    let path = export(&ctx.work_dir, &stem, ("SpReach", "14a"), K, &bench.build())?;

    let options = CheckOptions { threads: Some(THREADS), ..CheckOptions::default() };
    let start_up = |instance| {
        DaemonState::new(format!("SpReach k={K}"), instance, options.clone())
            .map_err(|e| format!("daemon start-up: {e}"))
    };
    let mut setup = Setup::new(&path)?;
    // the traced run takes its set-up repeats up front
    let state = setup.repeat(if ctx.traced { SETUP_REPEATS } else { 1 }, start_up)?;
    let mut out = Outcome::default();
    out.tally.record(state.all_verified(), || "the daemon's initial check failed".into());
    out.info.push(("nodes".into(), Json::from(state.nodes())));

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = std::thread::spawn(move || serve(listener, state));
    let mut rng = SplitMix::new(ctx.seed);
    let target = (&fattree, dest);

    let result = (|| -> Result<(), String> {
        if !ctx.traced {
            let segment = ctx.budget / SETUP_REPEATS as u32;
            let mut p = phase(addr, segment, &mut rng, target, &mut out.tally)?;
            for _ in 1..SETUP_REPEATS {
                let spare = setup.once(start_up)?;
                out.tally.record(spare.all_verified(), || "a daemon's initial check failed".into());
                drop(spare);
                p.extend(phase(addr, segment, &mut rng, target, &mut out.tally)?);
            }
            out.counters = cone_counter(&p);
            out.info.push(("edit_p50_ms".into(), Json::Num(median(&p.edit_ms))));
            out.info.push(("edit_p90_ms".into(), Json::Num(quantile(&p.edit_ms, 0.9))));
            out.info.push(("read_p50_ms".into(), Json::Num(median(&p.read_ms))));
            out.info.push(("read_p90_ms".into(), Json::Num(quantile(&p.read_ms, 0.9))));
            out.samples.setup_s = setup.total_s.clone();
            out.samples.op_s = p.round_ms.iter().map(|r| r / 1e3).collect();
            out.samples.rss_mb = p.rss_mb;
            return Ok(());
        }
        // half the budget untraced (the baseline), half traced
        let half = ctx.budget / 2;
        let base = phase(addr, half, &mut rng, target, &mut out.tally)?;
        timepiece_trace::enable();
        let p = phase(addr, half, &mut rng, target, &mut out.tally)?;
        timepiece_trace::disable();
        let trace = timepiece_trace::take();
        let (profile, calls) = (Profile::from_trace(&trace, 0), Calls::of(&trace));
        let handled = calls.handled("delta");
        let (delta_ms, status_ms) = (median(&handled), median(&calls.handled("status")));
        let m = &mut out.metrics;
        m.set("scenario.compile_ms", median(&setup.compile_ms));
        m.set("nets.build_ms", median(&setup.build_ms));
        m.set("daemon.warmup_s", median(&setup.extra_s));
        m.set("daemon.handle_ms.delta", delta_ms);
        m.set("daemon.handle_ms.status", status_ms);
        m.set("daemon.wire_ms.delta", median(&p.edit_ms) - delta_ms);
        m.set("daemon.wire_ms.status", median(&p.read_ms) - status_ms);
        m.set("daemon.edit_p50_ms", median(&p.edit_ms));
        m.set("daemon.edit_p90_ms", quantile(&p.edit_ms, 0.9));
        m.set("daemon.read_p50_ms", median(&p.read_ms));
        m.set("daemon.read_p90_ms", quantile(&p.read_ms, 0.9));
        m.set("daemon.cone_nodes", p.cones.iter().sum::<f64>() / p.cones.len().max(1) as f64);
        set_smt(m, &profile, &calls, p.edit_ms.len().max(1) as f64);
        m.set("vc.count", 3.0 * p.cones.iter().sum::<f64>() / p.cones.len().max(1) as f64);
        m.set("trace.op_s", median(&p.round_ms) / 1e3);
        m.set("trace.overhead_ms", median(&p.round_ms) - median(&base.round_ms));
        let edits_ms: f64 = p.edit_ms.iter().sum();
        let smt_ms = phase_ms(&profile, TracePhase::Encode) + phase_ms(&profile, TracePhase::Solve);
        m.set("trace.smt_share", smt_ms / edits_ms);
        // server-side handling of the edits over their round trips
        m.set("trace.accounted_share", handled.iter().sum::<f64>() / edits_ms);
        if let Some(reply) = &p.last_delta_reply {
            m.set("json.frame_us", frame_us(reply));
        }
        out.counters = cone_counter(&base);
        Ok(())
    })();

    // shut the daemon down whatever happened, and wait for it
    let shutdown = Client::connect(addr).and_then(|mut c| c.send(&Request::Shutdown));
    out.tally.record(matches!(&shutdown, Ok(r) if is_ok(r)), || format!("shutdown: {shutdown:?}"));
    let served = server.join().map_err(|_| "the server thread panicked".to_owned())?;
    out.tally.record(served.is_ok(), || format!("serve: {served:?}"));
    result?;
    out.info.extend(setup.info());
    Ok(out)
}

/// The dirty-cone sizes of the first edits: fixed by the seed.
fn cone_counter(p: &Phase) -> Vec<(String, u64)> {
    let cones = p.cones.iter().take(COUNTED_EDITS).map(|c| *c as u64).sum();
    vec![(format!("daemon.cone_nodes.first{COUNTED_EDITS}"), cones)]
}

/// Median time to write and parse one delta reply frame with the
/// workspace's JSON codec, in microseconds.
fn frame_us(reply: &Json) -> f64 {
    let samples: Vec<f64> = (0..400)
        .map(|_| {
            let t0 = Instant::now();
            let text = reply.to_string();
            let parsed = Json::parse(&text).expect("the codec round-trips its own output");
            std::hint::black_box(parsed);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}
