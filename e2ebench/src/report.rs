//! The metric tables and the result line the benchmark prints last.
//!
//! A run prints every metric of one table: `--trace 0` the end-to-end
//! table, `--trace 1` the per-layer table. A per-layer metric a workload
//! does no work for reads 0, and that 0 is measured (from counter
//! deltas or absent spans), not assumed: it is how the ledger shows, for
//! example, that `train` does no `dist.*` work.

use crate::common::median;
use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`. Each workload reports each one;
/// `ledger.json` says what it means on each workload. Times are CPU
/// times (see [`crate::common::Stopwatch`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_cpu_s", "s"),
    ("throughput_per_cpu_s", "1/s"),
    ("latency_p50_cpu_ms", "ms"),
];

/// Per-layer metrics, `(name, unit)`: the end-to-end metrics in wall time
/// (`wall.*`, over the run's untraced units), then means over its traced
/// units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.job_s", "s"),
    ("wall.throughput_per_s", "1/s"),
    ("wall.latency_p50_ms", "ms"),
    ("traced_wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("io.dataset_load_ms", "ms"),
    ("io.dataset_mb_per_s", "MB/s"),
    ("persist.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.checkpoint_bytes", "bytes"),
    ("core.new_ms", "ms"),
    ("trainer.pretrain_ms", "ms"),
    ("trainer.centroid_init_ms", "ms"),
    ("trainer.selftrain_ms", "ms"),
    ("trainer.final_assign_ms", "ms"),
    ("trainer.epochs", "count"),
    ("trainer.pretrain_batch_p50_ms", "ms"),
    ("trainer.selftrain_batch_p50_ms", "ms"),
    ("nn.matmul_calls", "count"),
    ("nn.matmul_gflop", "GFLOP"),
    ("nn.matmul_gflop_per_s", "GFLOP/s"),
    ("nn.gru_cell_steps", "count"),
    ("nn.adam_steps", "count"),
    ("query.engine_ms", "ms"),
    ("query.trajs", "count"),
    ("query.batches", "count"),
    ("query.batch_fill", "ratio"),
    ("query.pad_efficiency", "ratio"),
    ("query.batch_p50_ms", "ms"),
    ("query.batch_p90_ms", "ms"),
    ("dist.matrix_ms.edr", "ms"),
    ("dist.matrix_ms.lcss", "ms"),
    ("dist.matrix_ms.dtw", "ms"),
    ("dist.matrix_ms.hausdorff", "ms"),
    ("dist.pairs", "count"),
    ("cluster.kmedoids_ms", "ms"),
    ("quality.nmi", "ratio"),
    ("quality.uacc", "ratio"),
];

/// Checked operations and measured values of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line, metrics in table order. A missing end-to-end
    /// metric is a bug in the workload; a non-finite value counts as a
    /// failed operation and prints as 0.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let (mut attempted, mut failed) = (self.attempted, self.failed);
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("the workload did not measure `{name}`")),
            };
            let value = if value.is_finite() {
                value
            } else {
                attempted += 1;
                failed += 1;
                0.0
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if attempted == 0 {
            return Err("the workload checked no output".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        ))
    }
}

/// Per-layer numbers summed over a run's traced units, reported as means.
#[derive(Debug, Default)]
pub struct LayerMeans {
    sums: BTreeMap<&'static str, f64>,
    units: usize,
}

impl LayerMeans {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    pub fn end_unit(&mut self) {
        self.units += 1;
    }

    /// Reports the means, and the tracing overhead: the median traced
    /// unit's wall time against the median untraced unit's.
    pub fn finish(self, report: &mut Report, untraced_s: &[f64], traced_s: &[f64]) {
        for (name, sum) in self.sums {
            report.set(name, sum / self.units.max(1) as f64);
        }
        report.set(
            "obs.trace_overhead_pct",
            (median(traced_s) / median(untraced_s) - 1.0) * 100.0,
        );
    }
}
