//! Metric names, the run context, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract: an
//! untraced run prints every end-to-end metric and a traced run every
//! per-layer metric, whatever the workload. `BENCHMARK.json` lists the
//! same names and units (a test keeps the two in step).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::stats;
use crate::trace::Recorder;

/// End-to-end metrics carried by the result line: `(name, unit)`. What
/// each means on each workload is documented in `perfbench/README.md`.
/// The table also prints `p50_ms`, `tail_ms`, `jobs_per_s`,
/// `light_work_rate` and, for `svc_open`, `due_p50_ms`; on a shared host
/// they swing from run to run by more than any bound the result line may
/// carry, so they are reported but not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("heavy_work_rate", "M/s"),
    ("cx_out", "count"),
    ("depth_out", "count"),
];

/// Transpiler passes whose `qukit_terra_pass_seconds` series are read.
pub const PASSES: &[&str] = &[
    "analysis",
    "decompose",
    "resynth_2q",
    "mapping",
    "fix_directions",
    "cancel_inverse_pairs",
    "cancel_commuting_cx",
    "merge_1q_runs",
    "drop_identities",
    "optimize_fixpoint",
    "basis_u",
];

/// Per-layer metrics of the traced run: `(name, unit)`; the pass timings
/// `terra.pass_ms.<pass>` (unit `ms`) follow for every entry of
/// [`PASSES`]. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.submit_us_p50", "us"),
    ("core.queue_wait_ms_p50", "ms"),
    ("core.queue_wait_ms_tail", "ms"),
    ("core.exec_miss_ms_p50", "ms"),
    ("core.exec_hit_ms_p50", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.shed_ratio", "ratio"),
    ("core.worker_busy_frac", "ratio"),
    ("core.journal_bytes_per_job", "B"),
    ("core.max_sustained_jps", "1/s"),
    ("terra.transpile_ms_p50", "ms"),
    ("terra.cx_growth", "ratio"),
    ("aer.noisy_run_ms_p50", "ms"),
    ("aer.noisy_gups", "G/s"),
    ("aer.narrow_call_ms_p50", "ms"),
    ("aer.wide_gate_ms", "ms"),
    ("aer.wide_sample_ms", "ms"),
    ("aer.wide_gbps", "GB/s"),
    ("aer.copy_gbps", "GB/s"),
    ("aer.wide_bw_frac", "ratio"),
    ("dd.struct_gate_us", "us"),
    ("dd.deep_gate_us_head", "us"),
    ("dd.deep_gate_us_full", "us"),
    ("dd.peak_nodes", "count"),
    ("dd.compute_hit_ratio", "ratio"),
    ("dd.unique_hit_ratio", "ratio"),
    ("dd.gc_runs", "count"),
    ("dd.sample_ms", "ms"),
    ("obs.overhead_pct", "%"),
    ("bench.gen_lag_ms_tail", "ms"),
];

/// Every per-layer `(name, unit)`, pass timings included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    names.extend(PASSES.iter().map(|p| (format!("terra.pass_ms.{p}"), "ms")));
    names
}

/// Shots per job in every workload.
pub const SHOTS: usize = 1024;
/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 31;
/// Untimed constructions before the timed ones.
pub const SETUP_WARMUP: Duration = Duration::from_millis(100);

/// What a run was asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The benchmark's own spans.
    pub rec: Recorder,
    /// Where journals and traces go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// `share` of the run's budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// One reported number and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The per-job (or per-repetition) samples it summarizes, in the
    /// metric's unit; empty for exact totals.
    pub samples: Vec<f64>,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were set.
    pub metrics: Vec<Metric>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed or were shed.
    pub failed: u64,
    /// Output checks that failed; each also counts as a failed job.
    pub wrong: Vec<String>,
    /// Findings and tables printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64, samples: Vec<f64>) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name: name.to_owned(), unit, value, samples });
    }

    /// Sets `name` to the median of `samples`.
    pub fn set_median(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.set(name, unit, stats::median(&samples), samples);
    }

    /// Sets `name` to the geometric mean of `samples`.
    pub fn set_geomean(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.set(name, unit, stats::geomean(&samples), samples);
    }

    /// Sets `name` to the tail of `samples`, in time order: the highest
    /// percentile with at least ten samples beyond it, as the median over
    /// consecutive windows of `window` samples. Notes which percentile.
    pub fn set_tail(&mut self, name: &str, unit: &'static str, samples: Vec<f64>, window: usize) {
        match stats::windowed_tail(&samples, window) {
            Some(t) => {
                self.note(format!(
                    "{name}: p{:.2} of {}-sample windows, median over {} windows, n={}",
                    t.percentile,
                    window.min(t.n),
                    (t.n / window).max(1),
                    t.n
                ));
                self.set(name, unit, t.value, samples);
            }
            None => {
                self.fail_check(format!("{name}: {} samples, the tail needs 11", samples.len()));
                self.set(name, unit, 0.0, samples);
            }
        }
    }

    /// Sets `p50_ms`, `tail_ms` (windows of `window` jobs) and `jobs_per_s`
    /// from the times of a closed loop's jobs, in order.
    pub fn set_closed_loop(&mut self, job_ms: &[f64], window: usize) {
        self.set_median("p50_ms", "ms", job_ms.to_vec());
        self.set_tail("tail_ms", "ms", job_ms.to_vec(), window);
        let total_s = job_ms.iter().sum::<f64>() / 1e3;
        self.set("jobs_per_s", "1/s", job_ms.len() as f64 / total_s, vec![]);
    }

    /// Sets `obs.overhead_pct`: how much slower the median job of the
    /// traced slice ran than that of the untraced one.
    pub fn set_overhead(&mut self, untraced_ms: &[f64], traced_ms: Vec<f64>) {
        let ratio = stats::median(&traced_ms) / stats::median(untraced_ms);
        self.set("obs.overhead_pct", "%", 100.0 * (ratio - 1.0), traced_ms);
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Records a failed output check.
    pub fn fail_check(&mut self, what: String) {
        self.wrong.push(what);
    }

    /// Records the outcome of a check.
    pub fn check(&mut self, what: &str, result: crate::check::Check) {
        if let Err(e) = result {
            self.fail_check(format!("{what}: {e}"));
        }
    }

    /// Counts one attempted job: a failure, or an output whose shot total
    /// is checked. Returns the output.
    pub fn record_job<E: std::fmt::Display>(
        &mut self,
        counts: Result<qukit::Counts, E>,
        what: &str,
    ) -> Option<qukit::Counts> {
        self.attempted += 1;
        match counts {
            Ok(counts) => {
                self.check(what, crate::check::shots_match(&counts, SHOTS));
                Some(counts)
            }
            Err(e) => {
                self.failed += 1;
                self.note(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Adds a line to the printed notes.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Times `SETUP_REPS` constructions with `build`, records `setup_s`
    /// as their median, and returns the last construction. Constructions
    /// run untimed for [`SETUP_WARMUP`] first: a construction takes about
    /// 0.1 ms, and the first ones of a fresh process run on a cold CPU and
    /// allocator, which doubled the figure in some runs and not others.
    pub fn measure_setup<T>(&mut self, mut build: impl FnMut(usize) -> T) -> T {
        let warmup = Instant::now();
        while warmup.elapsed() < SETUP_WARMUP {
            drop(build(0));
        }
        let mut samples = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for rep in 0..SETUP_REPS {
            // Drop the previous construction outside the timed region.
            drop(last.take());
            let start = Instant::now();
            let built = build(rep);
            samples.push(start.elapsed().as_secs_f64());
            last = Some(built);
        }
        self.set_median("setup_s", "s", samples);
        last.expect("at least one repetition")
    }

    /// The human-readable table: every metric with its sample count,
    /// median and quartiles.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# {:<28} {:>12} {:>8} {:>8} {:>14} {:>14} {:>14}\n",
            "metric", "value", "unit", "n", "median", "q1", "q3"
        );
        for m in &self.metrics {
            let [q1, med, q3] = stats::quartiles(&m.samples);
            let _ = writeln!(
                out,
                "# {:<28} {:>12.6} {:>8} {:>8} {:>14.6} {:>14.6} {:>14.6}",
                m.name,
                m.value,
                m.unit,
                m.samples.len(),
                med,
                q1,
                q3
            );
        }
        out
    }

    /// The result line over `names` (`(name, unit)` pairs). Unset
    /// per-layer metrics read 0; an unset end-to-end metric is a bug and
    /// fails the run.
    pub fn result_json(&mut self, names: &[(String, &'static str)], zero_if_unset: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                _ if zero_if_unset => 0.0,
                _ => {
                    self.fail_check(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.wrong.is_empty(),
            self.attempted.max(1),
            self.failed + self.wrong.len() as u64
        )
    }
}

/// `value` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qukit_obs::json::JsonValue;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report { attempted: 3, ..Report::default() };
        report.set("setup_s", "s", 0.25, vec![0.25]);
        let names = vec![("setup_s".to_owned(), "s"), ("cx_out".to_owned(), "count")];
        let line = report.result_json(&names, false);
        let v = JsonValue::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        // The unset end-to-end metric fails the run.
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let v = JsonValue::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer_names().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }
}
