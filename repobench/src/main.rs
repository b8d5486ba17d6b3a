//! `repobench`: the repository's one benchmark — three workloads, every
//! end-to-end metric timed from outside the program by calling each
//! layer's public functions, and a separate traced run for the per-layer
//! numbers. See `repobench/README.md` for the metric and workload
//! definitions.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path repobench/Cargo.toml -- \
//!     --workload <scale_g40|paper_ac4|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.
//! With `--trace 0` the metrics are the [`END_TO_END`] set, with
//! `--trace 1` the [`PER_LAYER`] set.

mod manet;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_ms_p50", "ms"),
    ("read_ms_mean", "ms"),
    ("query_ok_frac", "ratio"),
    ("answer_completeness", "ratio"),
];

/// Per-layer metrics (`--trace 1`), named `<layer>.<metric>` after the
/// workspace crates. A workload leaves out the layers it never enters;
/// they report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("datagen.partition_s", "s"),
    ("storage.build_s", "s"),
    ("storage.local_skyline_s", "s"),
    ("storage.tuples_scanned", "count"),
    ("storage.id_comparisons", "count"),
    ("storage.value_comparisons", "count"),
    ("storage.skip_frac", "ratio"),
    ("dist.originate_s", "s"),
    ("dist.process_s", "s"),
    ("dist.forward_messages", "count"),
    ("dist.result_messages", "count"),
    ("dist.arq_retries", "count"),
    ("dist.duplicates_suppressed", "count"),
    ("dist.delivery_failures", "count"),
    ("dist.drr", "ratio"),
    ("dist.response_p50_s", "s"),
    ("dist.response_p95_s", "s"),
    ("core.merge_s", "s"),
    ("core.merge_inserts", "count"),
    ("core.live_apply_calls", "count"),
    ("core.live_apply_units", "count"),
    ("core.live_apply_s", "s"),
    ("core.diagram_invalidate_calls", "count"),
    ("core.diagram_invalidate_units", "count"),
    ("core.diagram_invalidate_s", "s"),
    ("core.diagram_materialize_calls", "count"),
    ("core.diagram_materialize_units", "count"),
    ("core.diagram_materialize_s", "s"),
    ("core.cells_touched_frac", "ratio"),
    ("manet.frames_sent", "count"),
    ("manet.frames_per_query", "frames"),
    ("manet.energy_j_per_query", "J"),
    ("manet.aodv_frames", "count"),
    ("manet.aodv_frames_per_device", "frames"),
    ("manet.bcast_frames", "count"),
    ("manet.data_frames", "count"),
    ("manet.frames_lost", "count"),
    ("manet.unicast_delivered_frac", "ratio"),
    ("manet.radio_deliver_calls", "count"),
    ("manet.radio_deliver_units", "count"),
    ("manet.radio_deliver_s", "s"),
    ("manet.radio_tx_calls", "count"),
    ("manet.radio_tx_units", "count"),
    ("manet.radio_tx_s", "s"),
    ("manet.grid_query_calls", "count"),
    ("manet.grid_query_units", "count"),
    ("manet.grid_query_s", "s"),
    ("manet.aodv_on_frame_calls", "count"),
    ("manet.aodv_on_frame_units", "count"),
    ("manet.aodv_on_frame_s", "s"),
    ("manet.wheel_cascade_calls", "count"),
    ("manet.wheel_cascade_units", "count"),
    ("manet.wheel_cascade_s", "s"),
    ("serve.lookup_calls", "count"),
    ("serve.lookup_units", "count"),
    ("serve.lookup_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("serve.backfills", "count"),
    ("serve.stale_mean_epochs", "epochs"),
    ("serve.cold_batch_ms", "ms"),
    ("serve.read_ms_p99", "ms"),
    ("serve.ingest_ms_p50", "ms"),
    ("serve.ingest_ms_p90", "ms"),
    ("serve.rss_mb_per_epoch", "MB/epoch"),
    ("obs.untraced_run_s", "s"),
    ("obs.traced_run_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.span_units_lost", "count"),
];

/// The program's own `sim_obs` spans read in the traced run, with the
/// per-layer metrics that take their calls, units and inclusive seconds.
const PROGRAM_SPANS: &[(&str, [&str; 3])] = &[
    (
        "radio::deliver",
        ["manet.radio_deliver_calls", "manet.radio_deliver_units", "manet.radio_deliver_s"],
    ),
    ("radio::tx", ["manet.radio_tx_calls", "manet.radio_tx_units", "manet.radio_tx_s"]),
    ("grid::query", ["manet.grid_query_calls", "manet.grid_query_units", "manet.grid_query_s"]),
    (
        "aodv::on_frame",
        ["manet.aodv_on_frame_calls", "manet.aodv_on_frame_units", "manet.aodv_on_frame_s"],
    ),
    (
        "wheel::cascade",
        ["manet.wheel_cascade_calls", "manet.wheel_cascade_units", "manet.wheel_cascade_s"],
    ),
    ("core::live_apply", ["core.live_apply_calls", "core.live_apply_units", "core.live_apply_s"]),
    (
        "diagram::invalidate",
        [
            "core.diagram_invalidate_calls",
            "core.diagram_invalidate_units",
            "core.diagram_invalidate_s",
        ],
    ),
    (
        "diagram::materialize",
        [
            "core.diagram_materialize_calls",
            "core.diagram_materialize_units",
            "core.diagram_materialize_s",
        ],
    ),
    ("serve::lookup", ["serve.lookup_calls", "serve.lookup_units", "serve.lookup_s"]),
];

/// Records every [`PROGRAM_SPANS`] entry of a traced run's profile.
pub fn insert_spans(m: &mut BTreeMap<&'static str, f64>, profile: &sim_obs::ProfileReport) {
    for &(span, names) in PROGRAM_SPANS {
        let (calls, units, secs) = stats::span(profile, span);
        for (name, value) in names.into_iter().zip([calls, units, secs]) {
            m.insert(name, value);
        }
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["scale_g40", "paper_ac4", "serve_churn"];

/// Correctness bookkeeping shared by every workload: a failed check
/// fails the operations it covers (at least one) and turns `correct`
/// false.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (queries issued or lookups requested).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Checks {
    /// Records the outcome of one check covering `ops` operations.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops.max(1);
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// One workload invocation's result: checks plus named metric values.
pub struct Outcome {
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Metric values by name (units come from the metric tables).
    pub metrics: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (expected one of {WORKLOADS:?})"));
    }
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "scale_g40" => manet::run(manet::Shape::ScaleG40, args.seed, args.seconds, args.trace),
        "paper_ac4" => manet::run(manet::Shape::PaperAc4, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match render(&outcome, table, args.trace) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a `name value unit` table to stdout and returns the result
/// JSON line. Fails when a value is not finite, or when the workload left
/// a metric of `table` unset and `unset_is_zero` is false.
fn render(
    outcome: &Outcome,
    table: &[(&str, &str)],
    unset_is_zero: bool,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if unset_is_zero => 0.0,
            None => return Err(format!("workload did not report metric `{name}`")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        println!("{name:<34} {value:>16.6} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    let c = &outcome.checks;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0 && c.attempted > 0,
        c.attempted.max(1),
        c.failed,
        fields.join(", ")
    ))
}
