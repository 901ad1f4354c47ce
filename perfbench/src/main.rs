//! The KBT benchmark: one command, three workloads, every metric by name.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit_resident|fit_streamed|durable_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and its last
//! stdout line is a JSON object carrying the end-to-end metrics. With
//! `--trace 1` it measures the workload twice, untraced then traced,
//! replays each layer's public calls on the workload's inputs, writes
//! the spans to `perfbench-out/`, and the JSON carries the per-layer
//! metrics. A failed correctness gate sets `"correct": false` or counts
//! in `"failed"`. See `perfbench/README.md` for the metric definitions.

mod alloc;
mod durable;
mod fit;
mod inputs;
mod layers;
mod net;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by every workload (see README.md for
/// what each one measures on each workload).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_p50_ms", "ms"),
    ("cpu_tail_ms", "ms"),
];

/// The percentile `cpu_tail_ms` reports (the median when fewer than
/// 10 samples lie beyond it).
pub const TAIL: f64 = 0.95;

/// Per-layer metrics of the traced run, by crate.
const PER_LAYER: [(&str, &str); 40] = [
    ("datamodel.chunking_ms", "ms"),
    ("datamodel.frame_load_ms", "ms"),
    ("datamodel.store_mb", "MiB"),
    ("datamodel.item_cache_hit_ratio", "ratio"),
    ("datamodel.group_cache_hit_ratio", "ratio"),
    ("datamodel.cache_misses", "count"),
    ("datamodel.apply_delta_us", "us"),
    ("core.em_rounds", "count"),
    ("core.round_ms", "ms"),
    ("core.votes_ms", "ms"),
    ("core.correctness_ms", "ms"),
    ("core.values_ms", "ms"),
    ("core.source_update_ms", "ms"),
    ("core.extractor_update_ms", "ms"),
    ("core.alpha_ms", "ms"),
    ("core.log_likelihood_ms", "ms"),
    ("core.alloc_per_round", "count"),
    ("pipeline.update_us", "us"),
    ("pipeline.warm_fit_ms", "ms"),
    ("pipeline.warm_rounds", "count"),
    ("serve.export_ms", "ms"),
    ("serve.publish_us", "us"),
    ("serve.refit_ms", "ms"),
    ("serve.read_ns", "ns"),
    ("store.log_ingest_us", "us"),
    ("store.commit_sync_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_mb", "MiB"),
    ("store.decode_checkpoint_ms", "ms"),
    ("store.replayed_commits", "count"),
    ("store.alloc_per_commit", "count"),
    ("net.rtt_idle_us", "us"),
    ("net.codec_ns", "ns"),
    ("net.backlog_max", "count"),
    ("net.gen_lag_us", "us"),
    ("net.refits", "count"),
    ("net.overloaded", "count"),
    ("net.alloc_per_query", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Times each workload's set-up runs before the window; `setup_s` is
/// the median. The `durable_ingest` set-up takes about 20 ms, much of it
/// fsync, so it repeats more, and once more in each episode.
pub const SETUP_REPS: usize = 5;
pub const DURABLE_SETUP_REPS: usize = 15;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a correctness gate fails.
    pub wrong: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a failed gate; the run reports `"correct": false`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("GATE FAILED: {msg}");
            self.wrong.push(msg);
        }
    }
}

/// The run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Where spans, chunk stores and durable stores go, inside the
    /// checkout.
    pub out_dir: PathBuf,
    pub origin: Instant,
}

impl Ctx {
    /// A scratch path under the output directory, unique to this run.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir
            .join(format!("{name}-{}-{}", self.seed, std::process::id()))
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let out_dir = PathBuf::from("perfbench-out");
    Ok((
        workload.ok_or("--workload is required")?,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            out_dir,
            origin: Instant::now(),
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbt-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!(
            "kbt-perfbench: cannot create {}: {e}",
            ctx.out_dir.display()
        );
        std::process::exit(2);
    }
    println!(
        "kbt-perfbench: workload {workload}, seed {}, {:?} per window, trace {}, {} cores",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let run = match workload.as_str() {
        "fit_resident" => fit::run(&ctx, false),
        "fit_streamed" => fit::run(&ctx, true),
        "durable_ingest" => durable::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("kbt-perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    if out.attempted == 0 {
        eprintln!("kbt-perfbench: {workload} attempted nothing");
        std::process::exit(1);
    }
    let declared: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let Some(v) = out.metrics.get(name).copied().filter(|v| v.is_finite()) else {
            eprintln!("kbt-perfbench: {workload} did not measure {name}");
            std::process::exit(1);
        };
        println!("  {name:<34} {v:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong.is_empty(),
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}
