//! Workload inputs: scenario files the benchmark generates and exports,
//! and the timed set-up that compiles them back.

use std::path::{Path, PathBuf};
use std::time::Instant;

use timepiece_nets::BenchInstance;
use timepiece_scenario::{compile_file, export_instance};
use timepiece_trace::Json;

use crate::stats::ms;

/// Writes `instance` as a scenario file under `dir` and returns its path.
/// The program under test only ever sees this file.
pub fn export(
    dir: &Path,
    stem: &str,
    (name, figure): (&str, &str),
    k: usize,
    instance: &BenchInstance,
) -> Result<PathBuf, String> {
    let text = export_instance(name, figure, instance, k)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{stem}.toml"));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// The set-up repeats of one run: each compiles the scenario file and
/// builds the instance (plus `extra`, e.g. a daemon's start-up). Set-up is
/// reported as the median over repeats; the first repeat pays cold caches
/// and is also recorded on its own as `setup_cold_s`.
#[derive(Debug)]
pub struct Setup {
    path: String,
    /// Whole set-up wall time per repeat, in seconds; the first is cold.
    pub total_s: Vec<f64>,
    /// Scenario-file compile time per repeat, in milliseconds.
    pub compile_ms: Vec<f64>,
    /// Instance build time per repeat, in milliseconds.
    pub build_ms: Vec<f64>,
    /// Time in `extra` per repeat, in seconds.
    pub extra_s: Vec<f64>,
}

impl Setup {
    /// No repeats yet of the set-up of the scenario file at `path`.
    pub fn new(path: &Path) -> Result<Setup, String> {
        let path = path.to_str().ok_or("scenario path is not UTF-8")?.to_owned();
        let (total_s, compile_ms, build_ms, extra_s) = Default::default();
        Ok(Setup { path, total_s, compile_ms, build_ms, extra_s })
    }

    /// One timed repeat; its product is returned (and dropped by the
    /// caller) outside the timing.
    pub fn once<T>(
        &mut self,
        extra: impl FnOnce(BenchInstance) -> Result<T, String>,
    ) -> Result<T, String> {
        let t0 = Instant::now();
        let compiled = compile_file(&self.path).map_err(|e| format!("{}: {e}", self.path))?;
        let t1 = Instant::now();
        let instance = compiled.instance();
        let t2 = Instant::now();
        let made = extra(instance)?;
        let t3 = Instant::now();
        self.compile_ms.push(ms(t1 - t0));
        self.build_ms.push(ms(t2 - t1));
        self.extra_s.push((t3 - t2).as_secs_f64());
        self.total_s.push((t3 - t0).as_secs_f64());
        Ok(made)
    }

    /// `n` (at least one) timed repeats; returns the last one's product.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        mut extra: impl FnMut(BenchInstance) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut product = self.once(&mut extra)?;
        for _ in 1..n {
            product = self.once(&mut extra)?;
        }
        Ok(product)
    }

    /// The report-line entries: the cold first repeat and the repeat count.
    pub fn info(&self) -> [(String, Json); 2] {
        [
            ("setup_cold_s".into(), Json::Num(self.total_s.first().copied().unwrap_or(f64::NAN))),
            ("setup_repeats".into(), Json::from(self.total_s.len())),
        ]
    }
}
