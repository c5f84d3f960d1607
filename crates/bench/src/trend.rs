//! Bench-trajectory tracking over accumulated `--json` row dumps.
//!
//! `repro fig14 --json PATH` writes one machine-readable document per run;
//! collecting those documents over time gives a performance history. This
//! module ingests any number of them (in the order given, oldest first) and
//! prints per-`(benchmark, k)` wall-time trajectories — the first run, every
//! subsequent run, and the end-to-end speedup — so regressions and wins are
//! visible without spreadsheet archaeology.
//!
//! `repro soak --json PATH` dumps (marked `"soak": true`) ingest too: each
//! soak row becomes a `BENCH+delta` series whose wall time is the median
//! storm-delta latency, so daemon serving latency trends alongside the
//! from-scratch sweep times.

use std::collections::BTreeMap;
use std::fmt;

use timepiece_sched::Json;

/// One benchmark's measurement extracted from a dump.
///
/// Only `bench`, `k` and the `tp` outcome are required of a dump row — the
/// schema has grown since the first dumps were written (arena stats, term
/// cache, per-class costs, shard balance), and history files from older
/// releases must keep ingesting, so every later field is optional (and
/// fields this module does not chart are ignored).
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Benchmark name.
    pub bench: String,
    /// Fattree parameter.
    pub k: usize,
    /// Modular-engine outcome tag (`verified` / `failed` / `timeout`).
    pub outcome: String,
    /// Modular-engine wall seconds.
    pub wall_secs: f64,
    /// Measured max/mean shard wall-time ratio, when the row ran sharded.
    pub imbalance: Option<f64>,
}

/// A parse problem in a dump file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrendError(pub String);

impl fmt::Display for TrendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed row dump: {}", self.0)
    }
}

impl std::error::Error for TrendError {}

/// Extracts the trend points of one `--json` document.
///
/// # Errors
///
/// [`TrendError`] naming the first missing or mistyped field.
pub fn parse_dump(text: &str) -> Result<Vec<TrendPoint>, TrendError> {
    let doc = Json::parse(text).map_err(|e| TrendError(e.to_string()))?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| TrendError("missing rows array".to_owned()))?;
    if doc.get("soak").and_then(Json::as_bool) == Some(true) {
        return rows.iter().map(parse_soak_row).collect();
    }
    rows.iter()
        .map(|row| {
            let field = |key: &str| row.get(key).ok_or_else(|| TrendError(format!("row.{key}")));
            let tp = field("tp")?;
            Ok(TrendPoint {
                bench: field("bench")?
                    .as_str()
                    .ok_or_else(|| TrendError("row.bench type".to_owned()))?
                    .to_owned(),
                k: field("k")?.as_usize().ok_or_else(|| TrendError("row.k type".to_owned()))?,
                outcome: tp
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or_else(|| TrendError("row.tp.outcome".to_owned()))?
                    .to_owned(),
                wall_secs: tp
                    .get("wall_secs")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| TrendError("row.tp.wall_secs".to_owned()))?,
                imbalance: row
                    .get("balance")
                    .and_then(|b| b.get("imbalance"))
                    .and_then(Json::as_f64),
            })
        })
        .collect()
}

/// One `repro soak` row as a trend point: the series is `BENCH+delta`, the
/// wall time the median storm-delta latency, and the outcome `verified`
/// exactly when the probe restored a verified network (`ok`).
fn parse_soak_row(row: &Json) -> Result<TrendPoint, TrendError> {
    let field = |key: &str| row.get(key).ok_or_else(|| TrendError(format!("soak row.{key}")));
    let bench =
        field("bench")?.as_str().ok_or_else(|| TrendError("soak row.bench type".to_owned()))?;
    let p50_ms =
        field("p50_ms")?.as_f64().ok_or_else(|| TrendError("soak row.p50_ms type".to_owned()))?;
    let ok = field("ok")?.as_bool().ok_or_else(|| TrendError("soak row.ok type".to_owned()))?;
    Ok(TrendPoint {
        bench: format!("{bench}+delta"),
        k: field("k")?.as_usize().ok_or_else(|| TrendError("soak row.k type".to_owned()))?,
        outcome: if ok { "verified".to_owned() } else { "failed".to_owned() },
        wall_secs: p50_ms / 1e3,
        imbalance: None,
    })
}

/// The trajectory of one `(bench, k)` series across dumps: `None` where a
/// dump lacks the series.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Benchmark name.
    pub bench: String,
    /// Fattree parameter.
    pub k: usize,
    /// One entry per ingested dump, in ingestion order.
    pub points: Vec<Option<TrendPoint>>,
}

impl Trajectory {
    /// First and last measured wall seconds, when at least one dump has the
    /// series.
    pub fn endpoints(&self) -> Option<(f64, f64)> {
        let measured: Vec<&TrendPoint> = self.points.iter().flatten().collect();
        let (first, last) = (measured.first()?, measured.last()?);
        Some((first.wall_secs, last.wall_secs))
    }

    /// `first / last` wall-time ratio (> 1: got faster), when measurable.
    pub fn speedup(&self) -> Option<f64> {
        let (first, last) = self.endpoints()?;
        (last > 0.0).then(|| first / last)
    }
}

/// Groups dumps (oldest first) into per-`(bench, k)` trajectories, ordered
/// by benchmark name then `k`.
pub fn trajectories(dumps: &[Vec<TrendPoint>]) -> Vec<Trajectory> {
    let mut series: BTreeMap<(String, usize), Vec<Option<TrendPoint>>> = BTreeMap::new();
    for point in dumps.iter().flatten() {
        series.entry((point.bench.clone(), point.k)).or_insert_with(|| vec![None; dumps.len()]);
    }
    for (i, dump) in dumps.iter().enumerate() {
        for point in dump {
            if let Some(slots) = series.get_mut(&(point.bench.clone(), point.k)) {
                slots[i] = Some(point.clone());
            }
        }
    }
    series.into_iter().map(|((bench, k), points)| Trajectory { bench, k, points }).collect()
}

/// Renders the trajectory table: one per-dump column per label (sized to
/// the longest label so headers and cells stay aligned), one row per
/// `(bench, k)`, with the end-to-end speedup.
pub fn render(labels: &[String], dumps: &[Vec<TrendPoint>]) -> String {
    use std::fmt::Write as _;
    let width = labels.iter().map(String::len).max().unwrap_or(0).max(10);
    let rows = trajectories(dumps);
    let bench_width = rows.iter().map(|t| t.bench.len()).max().unwrap_or(0).max(10);
    let mut out = String::new();
    let _ = write!(out, "{:<bench_width$} {:>3}", "bench", "k");
    for label in labels {
        let _ = write!(out, " {label:>width$}");
    }
    let _ = writeln!(out, " {:>9}", "speedup");
    for trajectory in rows {
        let _ = write!(out, "{:<bench_width$} {:>3}", trajectory.bench, trajectory.k);
        for point in &trajectory.points {
            let cell = match point {
                Some(p) if p.outcome == "verified" => format!("{:.2}s", p.wall_secs),
                Some(p) => p.outcome.clone(),
                None => "-".to_owned(),
            };
            let _ = write!(out, " {cell:>width$}");
        }
        let speedup = trajectory.speedup().map_or("-".to_owned(), |s| format!("{s:.2}x"));
        let _ = writeln!(out, " {speedup:>9}");
    }
    out
}

/// Renders the shard-balance table — one row per `(bench, k)` series with
/// any measured imbalance, cells the max/mean ratio (e.g. `1.08`) — or
/// `None` when no ingested dump ran sharded, so callers can skip the
/// section entirely for pre-sharding histories.
pub fn render_balance(labels: &[String], dumps: &[Vec<TrendPoint>]) -> Option<String> {
    use std::fmt::Write as _;
    let rows: Vec<Trajectory> = trajectories(dumps)
        .into_iter()
        .filter(|t| t.points.iter().flatten().any(|p| p.imbalance.is_some()))
        .collect();
    if rows.is_empty() {
        return None;
    }
    let cell = |point: &Option<TrendPoint>| match point {
        Some(TrendPoint { imbalance: Some(ratio), .. }) => format!("{ratio:.2}"),
        _ => "-".to_owned(),
    };
    let width = labels.iter().map(String::len).max().unwrap_or(0).max(10);
    let bench_width = rows.iter().map(|t| t.bench.len()).max().unwrap_or(0).max(10);
    let mut out = String::new();
    let _ = writeln!(out, "shard balance (max/mean wall, 1.00 is perfect):");
    let _ = write!(out, "{:<bench_width$} {:>3}", "bench", "k");
    for label in labels {
        let _ = write!(out, " {label:>width$}");
    }
    let _ = writeln!(out);
    for trajectory in rows {
        let _ = write!(out, "{:<bench_width$} {:>3}", trajectory.bench, trajectory.k);
        for point in &trajectory.points {
            let _ = write!(out, " {:>width$}", cell(point));
        }
        let _ = writeln!(out);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(rows: &[(&str, usize, &str, f64)]) -> String {
        let rows: Vec<String> = rows
            .iter()
            .map(|(bench, k, outcome, wall)| {
                format!(
                    r#"{{"bench":"{bench}","figure":"x","k":{k},"nodes":20,
                        "tp":{{"outcome":"{outcome}","wall_secs":{wall}}},"ms":null}}"#
                )
            })
            .collect();
        format!(r#"{{"timeout_secs":60,"shards":1,"rows":[{}]}}"#, rows.join(","))
    }

    #[test]
    fn parses_rows_and_rejects_garbage() {
        let points = parse_dump(&dump(&[("SpReach", 4, "verified", 0.5)])).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].bench, "SpReach");
        assert_eq!(points[0].wall_secs, 0.5);
        assert!(parse_dump("{}").is_err());
        assert!(parse_dump("not json").is_err());
        assert!(parse_dump(r#"{"rows":[{"bench":"X"}]}"#).is_err());
    }

    #[test]
    fn trajectories_align_series_across_dumps() {
        let a =
            parse_dump(&dump(&[("SpReach", 4, "verified", 2.0), ("SpLen", 4, "verified", 8.0)]))
                .unwrap();
        let b =
            parse_dump(&dump(&[("SpReach", 4, "verified", 1.0), ("SpMed", 4, "verified", 3.0)]))
                .unwrap();
        let ts = trajectories(&[a, b]);
        assert_eq!(ts.len(), 3);
        let reach = ts.iter().find(|t| t.bench == "SpReach").unwrap();
        assert_eq!(reach.speedup(), Some(2.0));
        let len = ts.iter().find(|t| t.bench == "SpLen").unwrap();
        assert_eq!(len.points[1], None, "absent from the second dump");
        assert_eq!(len.endpoints(), Some((8.0, 8.0)));
    }

    #[test]
    fn soak_dumps_become_delta_series() {
        let soak = r#"{"soak":true,"clients":4,"deltas_per_client":8,"rows":[
            {"bench":"SpReach","k":8,"nodes":80,"p50_ms":250.0,"ok":true},
            {"bench":"SpReach","k":4,"nodes":20,"p50_ms":40.0,"ok":false}]}"#;
        let points = parse_dump(soak).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].bench, "SpReach+delta");
        assert_eq!(points[0].outcome, "verified");
        assert_eq!(points[0].wall_secs, 0.25);
        assert_eq!(points[1].outcome, "failed");
        // soak and fig14 dumps align in one trajectory table
        let fig14 = parse_dump(&dump(&[("SpReach", 8, "verified", 2.0)])).unwrap();
        let table = render(&["sweep".to_owned(), "soak".to_owned()], &[fig14, points]);
        assert!(table.contains("SpReach+delta"));
        assert!(table.contains("0.25s"));
        assert!(parse_dump(r#"{"soak":true,"rows":[{"bench":"X","k":4}]}"#).is_err());
    }

    #[test]
    fn render_produces_a_labelled_table() {
        let a = parse_dump(&dump(&[("SpReach", 4, "verified", 2.0)])).unwrap();
        let b = parse_dump(&dump(&[("SpReach", 4, "timeout", 60.0)])).unwrap();
        let table = render(&["base".to_owned(), "now".to_owned()], &[a, b]);
        assert!(table.contains("SpReach"));
        assert!(table.contains("2.00s"));
        assert!(table.contains("timeout"));
        assert!(table.contains("base") && table.contains("now"));
    }

    /// A verbatim `--json` dump from the PR-4-era schema: rows carry only
    /// `bench`/`figure`/`k`/`nodes`/`tp`/`ms` — no `arena`, no
    /// `term_cache`, no `classes`, no `balance`. History files like this
    /// exist on disk and must keep ingesting unchanged.
    const PR4_DUMP: &str = r#"{"timeout_secs":60,"max_k":8,"rows":[
        {"bench":"SpReach","figure":"14a","k":4,"nodes":20,
         "tp":{"outcome":"verified","wall_secs":1.25,"median_secs":0.05,"p99_secs":0.11},
         "ms":{"outcome":"verified","wall_secs":3.5}},
        {"bench":"ApReach","figure":"14e","k":8,"nodes":80,
         "tp":{"outcome":"verified","wall_secs":40.0,"median_secs":0.4,"p99_secs":1.2},
         "ms":{"outcome":"timeout","wall_secs":60.0}}]}"#;

    #[test]
    fn pr4_era_dumps_still_ingest() {
        let points = parse_dump(PR4_DUMP).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].bench, "SpReach");
        assert_eq!(points[0].wall_secs, 1.25);
        // the fields that postdate the schema parse as absent, not errors
        assert_eq!(points[0].imbalance, None);
        // and they still align in a trajectory table next to modern dumps
        let modern = parse_dump(&dump(&[("SpReach", 4, "verified", 0.9)])).unwrap();
        let table = render(&["pr4".to_owned(), "now".to_owned()], &[points, modern]);
        assert!(table.contains("1.25s"));
    }

    /// A sharded row as planner-era releases wrote it: `balance` still
    /// names the shard planner, which ingestion ignores.
    fn sharded_dump(bench: &str, k: usize) -> Vec<TrendPoint> {
        let text = format!(
            r#"{{"timeout_secs":60,"rows":[{{"bench":"{bench}","figure":"x","k":{k},"nodes":20,
                "tp":{{"outcome":"verified","wall_secs":2.0}},"ms":null,
                "classes":[{{"class":"core","nodes":4,"total_secs":8.0}}],
                "balance":{{"plan":"striped","shard_secs":[1.5,0.5],"imbalance":1.5,
                            "steal_batches":0,"stolen_shards":0,"reassigned":0}}}}]}}"#
        );
        parse_dump(&text).unwrap()
    }

    #[test]
    fn balance_table_appears_only_for_sharded_history() {
        let unsharded = parse_dump(&dump(&[("SpReach", 4, "verified", 2.0)])).unwrap();
        assert_eq!(render_balance(&["a".to_owned()], std::slice::from_ref(&unsharded)), None);
        let sharded = sharded_dump("SpReach", 4);
        assert_eq!(sharded[0].imbalance, Some(1.5));
        let table = render_balance(&["a".to_owned(), "b".to_owned()], &[unsharded, sharded])
            .expect("sharded history renders");
        assert!(table.contains("1.50"), "{table}");
        assert!(table.contains("shard balance"), "{table}");
    }
}
