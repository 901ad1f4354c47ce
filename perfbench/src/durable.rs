//! `durable_ingest`: one closed-loop writer commits 64-observation
//! batches through a `DurableTrustServer` (fsync at every commit,
//! checkpoint every 8 batches), each `ingest` followed by `refit`. An
//! episode sets itself up (generates the inputs and creates a fresh
//! store), commits a fixed count of batches, drops the server and opens
//! the store again; episodes repeat until the window is used up. The
//! fixed count keeps recovery deterministic: reopening must serve the
//! fingerprint that was last published.

use std::path::Path;
use std::time::{Duration, Instant};

use kbt_pipeline::FusionSession;
use kbt_serve::RefitMode;
use kbt_store::{DurableTrustServer, FsyncPolicy, StoreConfig};

use crate::inputs::{self, Serving, BATCH_OBS};
use crate::stats::{describe, median, percentile_or_median};
use crate::trace::{Tracer, NO_SPAN};
use crate::{alloc, layers, Ctx, Outcome, DURABLE_SETUP_REPS, TAIL};

/// Batches committed per episode: a multiple of the checkpoint interval.
const EPISODE_BATCHES: usize = 64;

pub fn store_config() -> StoreConfig {
    StoreConfig {
        checkpoint_every: 8,
        fsync: FsyncPolicy::OnCommit,
        keep_checkpoints: 2,
    }
}

pub fn create(dir: &Path, inputs: &Serving) -> Result<DurableTrustServer, String> {
    let _ = std::fs::remove_dir_all(dir);
    DurableTrustServer::create(
        dir,
        FusionSession::from_observations(inputs.base.clone(), inputs::serving_model()),
        RefitMode::Warm,
        store_config(),
    )
    .map_err(|e| format!("create store: {e}"))
}

/// Bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[derive(Debug, Default)]
struct Window {
    /// Each episode's set-up, s of wall and CPU time.
    setup_s: Vec<f64>,
    setup_cpu_s: Vec<f64>,
    /// Each commit, ms of wall and CPU time.
    commit_ms: Vec<f64>,
    commit_cpu_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    bytes_per_obs: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

/// The workload's set-up: generate the inputs and create a store in
/// `dir`.
fn set_up(ctx: &Ctx, dir: &Path) -> Result<(Serving, DurableTrustServer), String> {
    let inputs = Serving::generate(ctx.seed, EPISODE_BATCHES, 0);
    let server = create(dir, &inputs)?;
    Ok((inputs, server))
}

fn episode(ctx: &Ctx, n: usize, w: &mut Window, tracer: &mut Tracer) -> Result<(), String> {
    let dir = ctx.scratch(&format!("durable-{n}"));
    let (t0, c0) = (Instant::now(), alloc::cpu_s());
    let (inputs, mut server) = set_up(ctx, &dir)?;
    w.setup_s.push(t0.elapsed().as_secs_f64());
    w.setup_cpu_s.push(alloc::cpu_s() - c0);
    let mut last = None;
    for (k, batch) in inputs.batches[..EPISODE_BATCHES].iter().enumerate() {
        let request = (n * EPISODE_BATCHES + k) as u64;
        w.attempted += 1;
        let c0 = alloc::cpu_s();
        let t0 = Instant::now();
        let root = tracer.open("bench.commit", NO_SPAN, request);
        let logged = tracer.span("store.ingest", root, request, || {
            server.ingest(batch.obs.iter().copied())
        });
        let published =
            logged.and_then(|()| tracer.span("store.refit", root, request, || server.refit()));
        tracer.close(root);
        let wall = t0.elapsed();
        let cpu = alloc::cpu_s() - c0;
        match published {
            Ok(Some(snap)) => {
                w.commit_ms.push(wall.as_secs_f64() * 1e3);
                w.commit_cpu_ms.push(cpu * 1e3);
                last = Some((snap.epoch(), snap.fingerprint()));
            }
            Ok(None) | Err(_) => w.failed += 1,
        }
    }
    let bytes = dir_bytes(&dir);
    w.bytes_per_obs
        .push(bytes as f64 / (EPISODE_BATCHES * BATCH_OBS) as f64);
    drop(server);
    w.attempted += 1;
    let t0 = Instant::now();
    let root = tracer.open("store.open", NO_SPAN, n as u64);
    let reopened = DurableTrustServer::open(
        &dir,
        inputs::serving_model(),
        RefitMode::Warm,
        store_config(),
    );
    tracer.close(root);
    let recover = t0.elapsed();
    match reopened {
        Ok(server) => {
            w.recover_ms.push(recover.as_secs_f64() * 1e3);
            let snap = server.handle().snapshot();
            if last != Some((snap.epoch(), snap.fingerprint())) {
                w.mismatched += 1;
                w.failed += 1;
            }
        }
        Err(e) => {
            eprintln!("reopen failed: {e}");
            w.failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn measure(ctx: &Ctx, len: Duration, tracer: &mut Tracer) -> Result<Window, String> {
    let t_end = Instant::now() + len;
    let mut w = Window::default();
    let mut n = 0;
    while n == 0 || Instant::now() < t_end {
        episode(ctx, n, &mut w, tracer)?;
        n += 1;
    }
    Ok(w)
}

fn check(out: &mut Outcome, w: &Window) {
    out.attempted += w.attempted;
    out.failed += w.failed;
    out.gate(w.mismatched == 0, || {
        format!(
            "{} reopened stores served another fingerprint",
            w.mismatched
        )
    });
    println!(
        "  commit (ingest -> refit return): {} ms wall, {} ms CPU",
        describe(&w.commit_ms, 3),
        describe(&w.commit_cpu_ms, 3),
    );
    println!(
        "  recover_ms {}; disk_bytes_per_obs {:.1}",
        describe(&w.recover_ms, 3),
        median(&w.bytes_per_obs).unwrap_or(f64::NAN)
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-ups before the window; each episode in it sets up once more,
    // so the set-ups spread over the run.
    let (mut setup_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    for rep in 0..DURABLE_SETUP_REPS {
        let dir = ctx.scratch(&format!("durable-setup-{rep}"));
        let (t0, c0) = (Instant::now(), alloc::cpu_s());
        drop(set_up(ctx, &dir)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_cpu_s.push(alloc::cpu_s() - c0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    alloc::reset_peak_rss().map_err(|e| format!("reset VmHWM: {e}"))?;
    let mut out = Outcome::default();

    if !ctx.trace {
        let w = measure(ctx, ctx.seconds, &mut Tracer::new(false, ctx.origin))?;
        check(&mut out, &w);
        setup_s.extend(&w.setup_s);
        setup_cpu_s.extend(&w.setup_cpu_s);
        println!(
            "  setup: {} s wall, {} s CPU",
            describe(&setup_s, 4),
            describe(&setup_cpu_s, 4)
        );
        let m = &mut out.metrics;
        println!(
            "  peak_rss_mb: {:.1} MiB (VmHWM over the window)",
            alloc::peak_rss_mb().ok_or("VmHWM unreadable")?
        );
        m.insert("setup_s", median(&setup_cpu_s).expect("setup ran"));
        let cpu = &w.commit_cpu_ms;
        m.insert("cpu_p50_ms", median(cpu).ok_or("no batch committed")?);
        m.insert(
            "cpu_tail_ms",
            percentile_or_median(cpu, TAIL).expect("commits ran"),
        );
        return Ok(out);
    }

    let half = ctx.seconds / 2;
    let plain = measure(ctx, half, &mut Tracer::new(false, ctx.origin))?;
    let mut tracer = Tracer::new(true, ctx.origin);
    let traced = measure(ctx, half, &mut tracer)?;
    check(&mut out, &plain);
    check(&mut out, &traced);
    let m = &mut out.metrics;
    layers::overhead(m, &plain.commit_cpu_ms, &traced.commit_cpu_ms);
    layers::chunk_store(
        m,
        &inputs::replay_corpus(ctx.seed),
        &ctx.scratch("replay.chunks"),
        &mut tracer,
    )?;
    layers::serving(ctx, m, &mut tracer)?;
    layers::finish_trace(ctx, "durable_ingest", m, &tracer)?;
    Ok(out)
}
