//! The benchmark's own spans.
//!
//! In a traced run every call the benchmark makes into a library layer is
//! wrapped in a span named `<layer>.<call>`. Spans of one job share the
//! job's id. They are kept in memory and written out once, at the end of
//! the run, as Chrome trace-event JSON (load it in `chrome://tracing` or
//! Perfetto). An untraced run records nothing.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// `<layer>.<call>`, e.g. `core.submit`.
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: u64,
    /// Start, microseconds since the recorder's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// An in-memory span recorder; inert when disabled.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.spans.lock().expect("span lock").push(SpanRecord { name, job, start_us, dur_us });
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// seconds. The duration is measured whether or not spans are kept.
    pub fn time<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, job, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Whether no span has been kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All spans as Chrome trace-event JSON: one complete (`X`) event per
    /// span, one timeline row per layer, the job id in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span lock");
        let mut layers: Vec<&str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let tid = match layers.iter().position(|l| *l == layer) {
                Some(t) => t,
                None => {
                    layers.push(layer);
                    layers.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"job\":{}}}}}",
                span.name, span.start_us, span.dur_us, span.job
            );
        }
        for (tid, layer) in layers.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{layer}\"}}}}"
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let rec = Recorder::new(false);
        let ((), secs) =
            rec.time("aer.run", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(secs >= 0.002);
        assert!(rec.is_empty());
    }

    #[test]
    fn chrome_export_is_valid_trace_json_with_shared_job_ids() {
        let rec = Recorder::new(true);
        rec.time("core.submit", 7, || ());
        rec.time("core.exec", 7, || ());
        rec.time("aer.run", 8, || ());
        let json = rec.chrome_json();
        qukit_obs::export::validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(json.matches("\"job\":7").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
