//! Per-layer attribution from the spans the program already emits
//! (collected through `timepiece_trace::enable`/`take`). Phase self times
//! and per-class node times come from the program's own
//! [`Profile::from_trace`]; this module adds what a profile does not keep:
//! per-condition solver times by kind, solver outcomes, and daemon
//! requests by verb.

use std::collections::HashMap;

use timepiece_trace::profile::Profile;
use timepiece_trace::{Phase, SpanKind, Trace};

use crate::metrics::Metrics;
use crate::stats::quantile;

/// The verification-condition kinds, in the order the checker runs them.
/// A condition's spans are named `<kind>@<node>`.
pub const VC_KINDS: [&str; 3] = ["initial", "inductive", "safety"];

/// Solver calls and daemon requests of one traced section.
#[derive(Debug, Default)]
pub struct Calls {
    /// Encode + solve time per condition (ms), by [`VC_KINDS`] index.
    pub check_ms: [Vec<f64>; 3],
    /// Solve time of conditions that came back `sat` (a counterexample).
    pub sat_solve_ms: f64,
    /// Solver outcomes: `[sat, unsat, unknown]`.
    pub outcomes: [u64; 3],
    /// Server-side request handling (`Request` spans): verb and ms.
    pub requests: Vec<(String, f64)>,
}

impl Calls {
    /// Collects the calls of `trace`.
    pub fn of(trace: &Trace) -> Calls {
        let mut calls = Calls::default();
        // a condition's encode and solve spans share its thread and name
        let mut open: HashMap<(u64, &str), (usize, usize)> = HashMap::new();
        for s in trace.spans.iter().filter(|s| s.kind == SpanKind::Complete) {
            let dur = s.dur_ns as f64 / 1e6;
            let kind = VC_KINDS.iter().position(|k| s.name.starts_with(&format!("{k}@")));
            match (s.phase, kind) {
                (Phase::Encode, Some(k)) => {
                    open.insert((s.tid, s.name.as_str()), (k, calls.check_ms[k].len()));
                    calls.check_ms[k].push(dur);
                }
                (Phase::Solve, _) => {
                    match open.remove(&(s.tid, s.name.as_str())) {
                        Some((k, i)) => calls.check_ms[k][i] += dur,
                        None => {
                            if let Some(k) = kind {
                                calls.check_ms[k].push(dur);
                            }
                        }
                    }
                    let outcome = match s.arg("result") {
                        Some("sat") => {
                            calls.sat_solve_ms += dur;
                            0
                        }
                        Some("unsat") => 1,
                        _ => 2,
                    };
                    calls.outcomes[outcome] += 1;
                }
                (Phase::Request, _) => calls.requests.push((s.name.clone(), dur)),
                _ => {}
            }
        }
        calls
    }

    /// Conditions solved, by [`VC_KINDS`] index.
    pub fn solved(&self) -> [usize; 3] {
        std::array::from_fn(|k| self.check_ms[k].len())
    }

    /// Server-side handling times (ms) of requests with `verb`.
    pub fn handled(&self, verb: &str) -> Vec<f64> {
        self.requests.iter().filter(|(v, _)| v == verb).map(|(_, d)| *d).collect()
    }

    /// The work counts of the section: conditions by kind and by outcome.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut counts: Vec<(String, u64)> = VC_KINDS
            .iter()
            .zip(self.solved())
            .map(|(kind, n)| (format!("vc.{kind}"), n as u64))
            .collect();
        for (name, n) in ["smt.sat", "smt.unsat", "smt.unknown"].iter().zip(self.outcomes) {
            counts.push(((*name).to_owned(), n));
        }
        counts
    }
}

/// Milliseconds of self time `profile` attributes to `phase`.
pub fn phase_ms(profile: &Profile, phase: Phase) -> f64 {
    profile.phase_ns(phase) as f64 / 1e6
}

/// Sets the `smt.*` metrics of a traced section, dividing totals and
/// counts by `ops`.
pub fn set_smt(m: &mut Metrics, profile: &Profile, calls: &Calls, ops: f64) {
    m.set("smt.encode_ms", phase_ms(profile, Phase::Encode) / ops);
    m.set("smt.solve_ms", phase_ms(profile, Phase::Solve) / ops);
    m.set("smt.sat_check_ms", calls.sat_solve_ms / ops);
    m.set("smt.sat", calls.outcomes[0] as f64 / ops);
    m.set("smt.unsat", calls.outcomes[1] as f64 / ops);
    m.set("smt.unknown", calls.outcomes[2] as f64 / ops);
    const NAMES: [[&str; 2]; 3] = [
        ["smt.check_ms.initial.p50", "smt.check_ms.initial.p95"],
        ["smt.check_ms.inductive.p50", "smt.check_ms.inductive.p95"],
        ["smt.check_ms.safety.p50", "smt.check_ms.safety.p95"],
    ];
    for (names, xs) in NAMES.iter().zip(&calls.check_ms) {
        if !xs.is_empty() {
            m.set(names[0], quantile(xs, 0.5));
            m.set(names[1], quantile(xs, 0.95));
        }
    }
}

/// Arena interning traffic since process start: `(new terms, hits, ns)`.
/// The counts are kept whether or not tracing is on; the time only while
/// it is.
pub fn arena_counters() -> (u64, u64, u64) {
    use timepiece_trace::metrics::counter_value;
    (
        counter_value("expr.arena.intern_misses"),
        counter_value("expr.arena.intern_hits"),
        counter_value("expr.arena.intern_ns"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_trace::SpanRecord;

    fn span(phase: Phase, name: &str, tid: u64, dur_ms: u64, result: Option<&str>) -> SpanRecord {
        SpanRecord {
            id: 0,
            parent: 0,
            kind: SpanKind::Complete,
            phase,
            name: name.to_owned(),
            start_ns: 0,
            dur_ns: dur_ms * 1_000_000,
            pid: 0,
            tid,
            args: result.map(|r| ("result".to_owned(), r.to_owned())).into_iter().collect(),
        }
    }

    /// A condition's encode and solve times add up by kind, even when two
    /// workers interleave conditions of the same name.
    #[test]
    fn conditions_pair_encode_with_solve_per_thread() {
        let trace = Trace {
            spans: vec![
                span(Phase::Encode, "inductive@a", 1, 2, None),
                span(Phase::Encode, "inductive@a", 2, 3, None),
                span(Phase::Solve, "inductive@a", 2, 30, Some("unsat")),
                span(Phase::Solve, "inductive@a", 1, 20, Some("sat")),
                span(Phase::Solve, "safety@b", 1, 5, Some("unknown")),
                span(Phase::Request, "status", 3, 1, None),
            ],
            ..Trace::default()
        };
        let calls = Calls::of(&trace);
        assert_eq!(calls.check_ms[1], [22.0, 33.0]);
        assert_eq!(calls.check_ms[2], [5.0]);
        assert_eq!(calls.solved(), [0, 2, 1]);
        assert_eq!(calls.outcomes, [1, 1, 1]);
        assert_eq!(calls.sat_solve_ms, 20.0);
        assert_eq!(calls.handled("status"), [1.0]);
    }
}
