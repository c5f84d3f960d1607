//! The benchmark's metric catalogue and the per-run metric map.
//!
//! Every workload reports every metric of the list that applies to the run
//! (end-to-end untraced, per-layer traced), so runs of different workloads
//! have the same shape. A per-layer metric whose layer a workload does not
//! exercise reads 0: that layer did no work there. `run.py` checks these
//! lists against `BENCHMARK.json`.

use std::collections::BTreeMap;

use timepiece_trace::Json;

use crate::stats::median;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit. Times and counts are per
/// operation (one full check, one inference, one edit) unless the name
/// says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.compile_ms", "ms"),
    ("nets.build_ms", "ms"),
    ("expr.terms_interned", "count"),
    ("expr.intern_hit_rate", "ratio"),
    ("expr.intern_ms", "ms"),
    ("vc.count", "count"),
    ("vc.build_ms.initial", "ms"),
    ("vc.build_ms.inductive", "ms"),
    ("vc.build_ms.safety", "ms"),
    ("smt.check_ms.initial.p50", "ms"),
    ("smt.check_ms.initial.p95", "ms"),
    ("smt.check_ms.inductive.p50", "ms"),
    ("smt.check_ms.inductive.p95", "ms"),
    ("smt.check_ms.safety.p50", "ms"),
    ("smt.check_ms.safety.p95", "ms"),
    ("smt.encode_ms", "ms"),
    ("smt.solve_ms", "ms"),
    ("smt.sat_check_ms", "ms"),
    ("smt.term_cache_hit_rate", "ratio"),
    ("smt.sat", "count"),
    ("smt.unsat", "count"),
    ("smt.unknown", "count"),
    ("sched.steals", "count"),
    ("sched.imbalance", "ratio"),
    ("sched.idle_ms", "ms"),
    ("sched.cpu_util", "ratio"),
    ("check.node_ms.core", "ms"),
    ("check.node_ms.agg", "ms"),
    ("check.node_ms.edge", "ms"),
    ("check.node_p90_ms", "ms"),
    ("daemon.warmup_s", "s"),
    ("daemon.handle_ms.delta", "ms"),
    ("daemon.handle_ms.status", "ms"),
    ("daemon.wire_ms.delta", "ms"),
    ("daemon.wire_ms.status", "ms"),
    ("daemon.edit_p50_ms", "ms"),
    ("daemon.edit_p90_ms", "ms"),
    ("daemon.read_p50_ms", "ms"),
    ("daemon.read_p90_ms", "ms"),
    ("daemon.cone_nodes", "count"),
    ("json.frame_us", "us"),
    ("trace.op_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.smt_share", "ratio"),
    ("trace.accounted_share", "ratio"),
    ("proc.cpu_s", "s"),
    ("calib_ms", "ms"),
];

/// Metrics of the `sim` and `infer` layers (`--trace 1`). Only infer-k4
/// measures them, and `BENCHMARK.json` does not list infer-k4 (its run-to-run
/// spread is wider than any bound the benchmark may set), so they go to the
/// report line instead of the result object.
pub const UNLISTED: &[(&str, &str)] = &[
    ("sim.ms", "ms"),
    ("sim.step_us", "us"),
    ("infer.sim_ms", "ms"),
    ("infer.check_ms", "ms"),
    ("infer.repair_ms", "ms"),
    ("infer.checks", "count"),
    ("infer.rounds", "count"),
    ("infer.repairs", "count"),
];

/// One run's metric values, by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).chain(UNLISTED).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// Sets every metric that any of `runs` set to its median over those
    /// runs.
    pub fn set_medians(&mut self, runs: &[Metrics]) {
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for run in runs {
            for (name, value) in &run.0 {
                values.entry(name).or_default().push(*value);
            }
        }
        for (name, xs) in values {
            self.0.insert(name, median(&xs));
        }
    }

    /// The metrics of `catalogue` that were set, as name → value.
    pub fn set_only(&self, catalogue: &[(&'static str, &'static str)]) -> Json {
        let set = catalogue
            .iter()
            .filter_map(|(name, _)| self.0.get(name).map(|v| ((*name).to_owned(), Json::Num(*v))));
        Json::Obj(set.collect())
    }

    /// The `metrics` object of the result line over `catalogue`. End-to-end
    /// metrics must all be set (a missing one is a bug in the workload);
    /// unset per-layer metrics read 0.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)], all_required: bool) -> Json {
        Json::Obj(
            catalogue
                .iter()
                .map(|(name, unit)| {
                    let value = match self.0.get(name) {
                        Some(v) if v.is_finite() => *v,
                        _ if all_required => panic!("end-to-end metric {name} was not measured"),
                        _ => 0.0,
                    };
                    let pair = Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]);
                    ((*name).to_owned(), pair)
                })
                .collect(),
        )
    }
}
