//! Zero-dependency observability for the qukit stack.
//!
//! The paper's improvement stories — the decision-diagram simulator and the
//! A*-style mapper — are performance claims, and performance claims need
//! instruments. This crate is the measurement substrate every other qukit
//! crate records into: a global, thread-safe [`MetricsRegistry`] of
//! counters, gauges, and fixed-bucket histograms; lightweight [`Span`]s
//! with monotonic timing, parent/child nesting, and a bounded ring-buffer
//! event log; and exporters for the Prometheus text format, structured
//! JSON, and a human-readable summary table.
//!
//! Recording is **off by default**. Every record call starts with a single
//! relaxed atomic-bool load, so an un-instrumented run pays one predictable
//! branch per call site and nothing else — no locks, no allocation, no
//! clock reads. Turn it on with [`set_enabled`] (the CLI does this for the
//! `--metrics` / `--trace` flags).
//!
//! Metric names follow the convention `qukit_<crate>_<name>`, with an
//! optional Prometheus-style label suffix baked into the name:
//! `qukit_terra_pass_seconds{pass="mapping"}`.
//!
//! # Examples
//!
//! ```
//! qukit_obs::set_enabled(true);
//! qukit_obs::counter_add("qukit_demo_events_total", 3);
//! {
//!     let _span = qukit_obs::span!("demo.work", step = 1);
//!     qukit_obs::observe("qukit_demo_step_seconds", 0.004);
//! }
//! let snapshot = qukit_obs::registry().snapshot();
//! assert_eq!(snapshot.counters["qukit_demo_events_total"], 3);
//! assert!(qukit_obs::export::to_json(&snapshot).contains("qukit-metrics/v1"));
//! ```

pub mod cache;
pub mod export;
pub mod hash;
pub mod http;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use registry::{
    counter, counter_add, counter_add_with, counter_inc, counter_inc_with, counter_with, describe,
    enabled, escape_label_value, gauge, gauge_add, gauge_set, gauge_set_with, histogram,
    labeled_name, observe, observe_duration, observe_with, registry, set_enabled,
    validate_label_name, validate_metric_name, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricNameError, MetricsRegistry, Snapshot, DURATION_BUCKETS, MAX_LABEL_SETS,
};
pub use span::{
    drain_trace, next_id, record_span_at, snapshot_trace, trace_events_dropped, ContextGuard, Span,
    TraceContext, TraceEvent, TRACE_CAPACITY,
};
pub use trace::{assemble_trees, SpanNode, SpanTree, TraceSampler};

/// Clears every metric and the trace buffer (recording stays as-is).
///
/// Intended for tests and for CLI commands that scope a snapshot to a
/// single invocation. Handles obtained before the reset keep working but
/// are detached from the registry; prefer the name-based free functions.
pub fn reset() {
    registry().reset();
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
