//! From a finished workload's accumulators to named metrics.

use crate::bench::Bench;
use crate::host;
use crate::metrics::manifest;
use serde_json::{json, Map, Value};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The gated end-to-end metrics of this run, by name.
pub fn end_to_end(b: &Bench, setup_s: f64) -> Vec<(&'static str, f64)> {
    let book = &b.rec.book;
    let (tot, written) = b.count_window();
    // A timing in laps of the yardstick, as this run timed them: the
    // median of the samples a workload booked in laps itself (one per
    // cycle, where the ops of a cycle differ in cost by design), else
    // the median op over the median lap.
    let in_laps = |gated: &str, timing: &str| {
        let booked = book.samples(gated);
        if booked.n() > 0 {
            booked.median()
        } else {
            ratio(
                book.samples(timing).median(),
                book.samples("host.lap_ms").median(),
            )
        }
    };
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "save_blocked_laps" => in_laps(name, "save_blocked_ms"),
        "save_durable_laps" => in_laps(name, "save_durable_ms"),
        "restore_laps" => in_laps(name, "restore_ms"),
        "stored_ratio" => ratio(tot.stored_physical as f64, tot.stored_logical as f64),
        "write_amp" => ratio(written as f64, tot.logical_saved as f64),
        "read_amp" => ratio(tot.restore_read as f64, tot.restore_bound as f64),
        "peak_rss_mb" => host::peak_rss_mb(),
        other => {
            unreachable!("BENCHMARK.json names an end-to-end metric `{other}` that report.rs does not compute")
        }
    };
    manifest()
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), value(&m.name)))
        .collect()
}

/// The per-layer table of this run, by name.
pub fn per_layer(b: &Bench) -> Vec<(&'static str, f64)> {
    let book = &b.rec.book;
    let value = |name: &str| {
        if let Some(base) = name.strip_suffix(".hi") {
            return book.samples(base).hi();
        }
        if let Some(base) = name.strip_suffix(".n") {
            return book.samples(base).n() as f64;
        }
        match name {
            "save_mb_s" => ratio(
                b.rec.totals.logical_saved as f64 / 1e6,
                b.rec.totals.save_wall_s,
            ),
            // Share of save throughput lost in the traced rounds.
            "trace.overhead_frac" => {
                let traced = ratio(book.value("traced.bytes"), book.value("traced.secs"));
                let untraced = ratio(book.value("untraced.bytes"), book.value("untraced.secs"));
                if untraced > 0.0 {
                    1.0 - traced / untraced
                } else {
                    0.0
                }
            }
            _ => book.read(name),
        }
    };
    manifest()
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), value(&m.name)))
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    let m = manifest();
    m.end_to_end
        .iter()
        .chain(&m.per_layer)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit.as_str())
}

/// `{name: {"value": v, "unit": u}}`, the shape the driver reads.
pub fn metrics_object(metrics: &[(&'static str, f64)]) -> Value {
    let mut out = Map::new();
    for (name, value) in metrics {
        out.insert(
            (*name).to_string(),
            json!({"value": value, "unit": unit_of(name)}),
        );
    }
    Value::Object(out)
}
