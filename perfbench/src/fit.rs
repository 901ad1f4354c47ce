//! `fit_resident` and `fit_streamed`: corpus to trust vector.
//!
//! `fit_resident` fits the resident cube through `TrustPipeline`;
//! `fit_streamed` writes the same corpus to a `KBTCHNK2` chunk store
//! during set-up, drops the cube, and fits from the store through
//! `MultiLayerModel::run_streamed` with 4 resident chunks per cache.
//! Both must produce bit-identical trust and truth checksums.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kbt_core::{FusionReport, MultiLayerModel, QualityInit, StageWall, StreamStats};
use kbt_datamodel::{ChunkedCube, FileChunkStore, ObservationCube};
use kbt_pipeline::TrustPipeline;

use crate::inputs::{self, bits_checksum};
use crate::stats::{describe, median, percentile_or_median, Summary};
use crate::trace::{Tracer, NO_SPAN};
use crate::{alloc, layers, Ctx, Outcome, SETUP_REPS, TAIL};

/// Decoded chunks each cache of the streamed fit keeps resident.
const MAX_RESIDENT_CHUNKS: usize = 4;

/// One measured fit.
#[derive(Debug, Clone)]
pub struct FitSample {
    pub wall_s: f64,
    /// Process CPU time over the fit, every thread.
    pub cpu_s: f64,
    pub iterations: usize,
    pub stage: StageWall,
    pub allocations: u64,
    pub checksums: (u64, u64),
    pub stream: Option<StreamStats>,
}

impl FitSample {
    fn of(
        report: &FusionReport,
        (wall_s, cpu_s): (f64, f64),
        allocations: u64,
        stream: Option<StreamStats>,
    ) -> Self {
        Self {
            wall_s,
            cpu_s,
            iterations: report.iterations(),
            stage: report.trace.stage_wall,
            allocations,
            checksums: checksums(report),
            stream,
        }
    }
}

/// `(trust, truth)` checksums of a fit's exact output bits.
pub fn checksums(report: &FusionReport) -> (u64, u64) {
    (
        bits_checksum(report.source_trust()),
        bits_checksum(report.truth_of_group()),
    )
}

/// Every trust and truth value a probability.
fn outputs_are_probabilities(report: &FusionReport) -> bool {
    report
        .source_trust()
        .iter()
        .chain(report.truth_of_group())
        .all(|p| (0.0..=1.0).contains(p))
}

/// The resident fit as a user runs it: `TrustPipeline` over the cube.
pub fn resident_fit(cube: ObservationCube) -> Result<FusionReport, String> {
    TrustPipeline::new()
        .cube(cube)
        .model(inputs::model())
        .threads(2)
        .try_run()
        .map_err(|e| format!("resident fit: {e}"))
}

/// The streamed fit: open the chunk store and run EM from it.
pub fn streamed_fit(
    path: &std::path::Path,
    tracer: &mut Tracer,
    parent: usize,
    request: u64,
) -> Result<(FusionReport, StreamStats), String> {
    let store = tracer.span("datamodel.open", parent, request, || {
        FileChunkStore::open(path).map(Arc::new)
    });
    let store = store.map_err(|e| format!("open chunk store: {e}"))?;
    let (result, trace, stats) = tracer
        .span("core.run_streamed", parent, request, || {
            MultiLayerModel::new(inputs::model_config()).run_streamed(
                &store,
                MAX_RESIDENT_CHUNKS,
                &QualityInit::Default,
            )
        })
        .map_err(|e| format!("streamed fit: {e}"))?;
    Ok((FusionReport::from_multi_layer(result, trace), stats))
}

struct Fixture {
    /// The resident cube (`fit_resident` only).
    cube: Option<ObservationCube>,
    /// The chunk store (`fit_streamed` only).
    store: Option<std::path::PathBuf>,
    groups: usize,
    /// Checksums of a resident fit of the same corpus (`fit_streamed`).
    reference: Option<(u64, u64)>,
    /// Wall and CPU time of each set-up.
    setup_s: Vec<f64>,
    setup_cpu_s: Vec<f64>,
    chunking_ms: Vec<f64>,
}

fn set_up(ctx: &Ctx, streamed: bool) -> Result<Fixture, String> {
    let path = ctx.scratch("corpus.chunks");
    let mut setup_s = Vec::new();
    let mut setup_cpu_s = Vec::new();
    let mut chunking_ms = Vec::new();
    let mut cube = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let c0 = alloc::cpu_s();
        let c = inputs::fit_corpus(ctx.seed);
        if streamed {
            let t1 = Instant::now();
            let chunked = ChunkedCube::from_cube(&c, &inputs::model_config().chunking());
            chunking_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            FileChunkStore::write(&chunked, &path)
                .map_err(|e| format!("write chunk store: {e}"))?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_cpu_s.push(alloc::cpu_s() - c0);
        cube = Some(c);
    }
    let cube = cube.expect("SETUP_REPS > 0");
    let groups = cube.num_groups();
    if !streamed {
        return Ok(Fixture {
            cube: Some(cube),
            store: None,
            groups,
            reference: None,
            setup_s,
            setup_cpu_s,
            chunking_ms,
        });
    }
    // The gate's reference: a resident fit of the same corpus, outside
    // every timed section. The cube is dropped before the fits.
    let reference = checksums(&resident_fit(cube)?);
    Ok(Fixture {
        cube: None,
        store: Some(path),
        groups,
        reference: Some(reference),
        setup_s,
        setup_cpu_s,
        chunking_ms,
    })
}

/// Fit back to back for `window`, at least once.
fn measure(fx: &Fixture, window: Duration, tracer: &mut Tracer) -> Result<Vec<FitSample>, String> {
    let t_end = Instant::now() + window;
    let mut fits = Vec::new();
    while fits.is_empty() || Instant::now() < t_end {
        let request = fits.len() as u64;
        let sample = if let Some(cube) = &fx.cube {
            let input = cube.clone();
            let a0 = alloc::allocations();
            let c0 = alloc::cpu_s();
            let t0 = Instant::now();
            let root = tracer.open("bench.fit", NO_SPAN, request);
            let report = tracer.span("pipeline.try_run", root, request, || resident_fit(input))?;
            tracer.close(root);
            let wall = t0.elapsed().as_secs_f64();
            let cpu = alloc::cpu_s() - c0;
            if !outputs_are_probabilities(&report) {
                return Err("resident fit produced a value outside [0, 1]".into());
            }
            FitSample::of(&report, (wall, cpu), alloc::allocations() - a0, None)
        } else {
            let path = fx.store.as_ref().expect("streamed fixture has a store");
            let a0 = alloc::allocations();
            let c0 = alloc::cpu_s();
            let t0 = Instant::now();
            let root = tracer.open("bench.fit", NO_SPAN, request);
            let (report, stats) = streamed_fit(path, tracer, root, request)?;
            tracer.close(root);
            let wall = t0.elapsed().as_secs_f64();
            let cpu = alloc::cpu_s() - c0;
            if !outputs_are_probabilities(&report) {
                return Err("streamed fit produced a value outside [0, 1]".into());
            }
            FitSample::of(&report, (wall, cpu), alloc::allocations() - a0, Some(stats))
        };
        fits.push(sample);
    }
    Ok(fits)
}

fn check(fx: &Fixture, fits: &[FitSample], out: &mut Outcome) {
    let first = fits[0].checksums;
    for f in fits {
        out.attempted += 1;
        if f.checksums != first {
            out.failed += 1;
        }
    }
    out.gate(fits.iter().all(|f| f.checksums == first), || {
        "repeated fits of one corpus differ".into()
    });
    if let Some(reference) = fx.reference {
        out.gate(first == reference, || {
            format!(
                "streamed fit {:#018x}/{:#018x} differs from resident {:#018x}/{:#018x}",
                first.0, first.1, reference.0, reference.1
            )
        });
    }
    println!(
        "  checksums: trust {:#018x}, truth {:#018x}{}",
        first.0,
        first.1,
        if fx.reference.is_some() {
            " (bit-identical to the resident fit)"
        } else {
            ""
        }
    );
}

fn walls(fits: &[FitSample]) -> Vec<f64> {
    fits.iter().map(|f| f.wall_s * 1e3).collect()
}

fn cpus(fits: &[FitSample]) -> Vec<f64> {
    fits.iter().map(|f| f.cpu_s * 1e3).collect()
}

pub fn run(ctx: &Ctx, streamed: bool) -> Result<Outcome, String> {
    let fx = set_up(ctx, streamed)?;
    println!(
        "  corpus: {} triples, {} sources; setup {} s wall, {} s CPU",
        fx.groups,
        inputs::FIT_SOURCES,
        describe(&fx.setup_s, 3),
        describe(&fx.setup_cpu_s, 3)
    );
    alloc::reset_peak_rss().map_err(|e| format!("reset VmHWM: {e}"))?;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false, ctx.origin);

    if !ctx.trace {
        let fits = measure(&fx, ctx.seconds, &mut tracer)?;
        check(&fx, &fits, &mut out);
        let fit_ms = Summary::of(&walls(&fits)).expect("at least one fit");
        let cpu_ms = cpus(&fits);
        println!("  fit_s (wall): {} ms", fit_ms.describe(1));
        println!("  fit CPU: {} ms", describe(&cpu_ms, 1));
        if let Some(stats) = fits.last().and_then(|f| f.stream) {
            println!("  caches: {stats:?}");
        }
        let m = &mut out.metrics;
        println!(
            "  peak_rss_mb: {:.1} MiB (VmHWM since set-up ended)",
            alloc::peak_rss_mb().ok_or("VmHWM unreadable")?
        );
        m.insert("setup_s", median(&fx.setup_cpu_s).expect("setup ran"));
        m.insert("cpu_p50_ms", median(&cpu_ms).expect("fits ran"));
        m.insert(
            "cpu_tail_ms",
            percentile_or_median(&cpu_ms, TAIL).expect("fits ran"),
        );
        finish(&fx);
        return Ok(out);
    }

    let half = ctx.seconds / 2;
    let plain = measure(&fx, half, &mut tracer)?;
    let mut tracer = Tracer::new(true, ctx.origin);
    let traced = measure(&fx, half, &mut tracer)?;
    check(&fx, &plain, &mut out);
    check(&fx, &traced, &mut out);
    let m = &mut out.metrics;
    layers::overhead(m, &cpus(&plain), &cpus(&traced));
    layers::core_from_fits(m, &traced);
    match (&fx.cube, &fx.store) {
        (Some(cube), _) => {
            let stage: Vec<f64> = traced.iter().map(|f| ms(f.stage.chunking)).collect();
            m.insert("datamodel.chunking_ms", median(&stage).expect("fits ran"));
            let path = ctx.scratch("replay.chunks");
            layers::chunk_store(m, cube, &path, &mut tracer)?;
            let _ = std::fs::remove_file(&path);
        }
        (None, Some(path)) => {
            m.insert(
                "datamodel.chunking_ms",
                median(&fx.chunking_ms).expect("setup ran"),
            );
            layers::frame_load(m, path, &mut tracer)?;
            let stats = traced
                .last()
                .and_then(|f| f.stream)
                .expect("streamed fits ran");
            layers::cache(m, &stats);
        }
        (None, None) => unreachable!("a fit fixture holds a cube or a store"),
    }
    layers::serving(ctx, m, &mut tracer)?;
    layers::finish_trace(
        ctx,
        if streamed {
            "fit_streamed"
        } else {
            "fit_resident"
        },
        m,
        &tracer,
    )?;
    finish(&fx);
    Ok(out)
}

fn finish(fx: &Fixture) {
    if let Some(path) = &fx.store {
        let _ = std::fs::remove_file(path);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
