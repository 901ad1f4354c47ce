//! Per-layer metrics of the traced run. Where a layer's work happens
//! inside another crate's public call (the EM inside a refit, the WAL
//! inside `DurableTrustServer::refit`), the same inputs are replayed
//! through the inner crate's own public functions on a replica, each
//! call inside a span.
//!
//! Every workload reports every per-layer metric: a layer its own path
//! does not reach is replayed on inputs made from the same seed (the
//! serving base corpus, or a 200k-triple corpus for the chunk store).

use std::hint::black_box;
use std::time::Instant;

use kbt_datamodel::{
    ChunkBuf, ChunkSource, ChunkedCube, FileChunkStore, GroupBuf, ObservationCube,
};
use kbt_net::proto::encode_frame;
use kbt_net::{FrameBuffer, NetClient, Reply, Request, DEFAULT_MAX_FRAME_BYTES};
use kbt_pipeline::{FusionSession, TrustPipeline};
use kbt_serve::{RefitMode, SnapshotProvenance, SnapshotStore, TrustServer, TrustSnapshot};
use kbt_store::{config_digest, decode_checkpoint, DurableTrustServer, WalWriter};

use crate::fit::{self, ms, FitSample};
use crate::inputs::{self, with_id, Serving};
use crate::net::{self, Book, Schedule};
use crate::stats::{median, percentile_or_median};
use crate::trace::{self, Tracer, NO_SPAN};
use crate::{alloc, durable, Ctx, Metrics, TAIL};

/// Batches replayed through the serving layers.
const REPLAY_BATCHES: usize = 12;
/// Repeats of each short replayed call; the metric is their median.
const REPEATS: usize = 5;

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// `trace.overhead_pct`: traced minus untraced median of the same
/// end-to-end timing, as a share of the untraced one.
pub fn overhead(m: &mut Metrics, plain: &[f64], traced: &[f64]) {
    let (p, t) = (med(plain), med(traced));
    println!("  tracing overhead: untraced median {p:.4}, traced median {t:.4}");
    m.insert("trace.overhead_pct", (t - p) / p * 100.0);
}

/// `core.*` from the `ConvergenceTrace` each fit returns.
pub fn core_from_fits(m: &mut Metrics, fits: &[FitSample]) {
    let per = |f: &dyn Fn(&FitSample) -> f64| med(&fits.iter().map(f).collect::<Vec<_>>());
    let rounds = |f: &FitSample| f.iterations.max(1) as f64;
    m.insert("core.em_rounds", per(&|f| f.iterations as f64));
    m.insert("core.round_ms", per(&|f| f.wall_s * 1e3 / rounds(f)));
    m.insert("core.votes_ms", per(&|f| ms(f.stage.votes)));
    m.insert("core.correctness_ms", per(&|f| ms(f.stage.correctness)));
    m.insert("core.values_ms", per(&|f| ms(f.stage.values)));
    m.insert("core.source_update_ms", per(&|f| ms(f.stage.source_update)));
    m.insert(
        "core.extractor_update_ms",
        per(&|f| ms(f.stage.extractor_update)),
    );
    m.insert("core.alpha_ms", per(&|f| ms(f.stage.alpha)));
    m.insert(
        "core.log_likelihood_ms",
        per(&|f| ms(f.stage.log_likelihood)),
    );
    m.insert(
        "core.alloc_per_round",
        per(&|f| f.allocations as f64 / rounds(f)),
    );
}

/// `datamodel.*` chunk metrics on `cube`: chunking, a chunk store
/// written to `path`, one pass over its frames, and a streamed fit for
/// the cache counters.
pub fn chunk_store(
    m: &mut Metrics,
    cube: &ObservationCube,
    path: &std::path::Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let cfg = inputs::model_config().chunking();
    let mut times = Vec::new();
    let mut chunked = None;
    for i in 0..3 {
        let t0 = Instant::now();
        let c = tracer.span("datamodel.from_cube", NO_SPAN, i, || {
            ChunkedCube::from_cube(cube, &cfg)
        });
        times.push(ms(t0.elapsed()));
        chunked = Some(c);
    }
    m.entry("datamodel.chunking_ms").or_insert(med(&times));
    FileChunkStore::write(&chunked.expect("chunked three times"), path)
        .map_err(|e| format!("write replay chunk store: {e}"))?;
    frame_load(m, path, tracer)?;
    let (_, stats) = fit::streamed_fit(path, tracer, NO_SPAN, 0)?;
    cache(m, &stats);
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// `datamodel.frame_load_ms` (every item chunk and group frame loaded
/// once) and `datamodel.store_mb`.
pub fn frame_load(
    m: &mut Metrics,
    path: &std::path::Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let store = FileChunkStore::open(path).map_err(|e| format!("open chunk store: {e}"))?;
    let mut items = ChunkBuf::default();
    let mut groups = GroupBuf::default();
    let mut times = Vec::new();
    for pass in 0..3 {
        let t0 = Instant::now();
        let root = tracer.open("datamodel.frame_load", NO_SPAN, pass);
        for i in 0..store.num_chunks() {
            store
                .load_chunk(i, &mut items)
                .map_err(|e| format!("load chunk {i}: {e}"))?;
        }
        for j in 0..store.num_group_frames() {
            store
                .load_group_frame(j, &mut groups)
                .map_err(|e| format!("load group frame {j}: {e}"))?;
        }
        tracer.close(root);
        times.push(ms(t0.elapsed()));
    }
    m.insert("datamodel.frame_load_ms", med(&times));
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("stat chunk store: {e}"))?
        .len();
    m.insert("datamodel.store_mb", bytes as f64 / (1u64 << 20) as f64);
    Ok(())
}

/// Chunk-cache counters of a streamed fit.
pub fn cache(m: &mut Metrics, stats: &kbt_core::StreamStats) {
    let ratio = |c: &kbt_datamodel::CacheStats| c.hits as f64 / (c.hits + c.misses).max(1) as f64;
    m.insert("datamodel.item_cache_hit_ratio", ratio(&stats.item_cache));
    m.insert("datamodel.group_cache_hit_ratio", ratio(&stats.group_cache));
    m.insert(
        "datamodel.cache_misses",
        (stats.item_cache.misses + stats.group_cache.misses) as f64,
    );
}

fn provenance(session: &FusionSession, report: &kbt_core::FusionReport) -> SnapshotProvenance {
    SnapshotProvenance {
        refit_mode: RefitMode::Warm,
        deltas_applied: session.deltas_applied(),
        iterations: report.iterations(),
        converged: report.converged(),
        coverage: report.coverage(),
    }
}

fn triples(
    session: &FusionSession,
) -> Vec<(
    kbt_datamodel::SourceId,
    kbt_datamodel::ItemId,
    kbt_datamodel::ValueId,
)> {
    session
        .cube()
        .groups()
        .iter()
        .map(|g| (g.source, g.item, g.value))
        .collect()
}

/// The serving path's layers, replayed on the seed's base corpus and
/// batches: `datamodel.apply_delta_us`, `pipeline.*`, `serve.*`,
/// `store.*`, `net.*`, and `core.*` from the warm refits when the
/// workload has no fit of its own. The `net.*` open-loop numbers come
/// from a short mixed window.
pub fn serving(ctx: &Ctx, m: &mut Metrics, tracer: &mut Tracer) -> Result<(), String> {
    let short = std::time::Duration::from_secs(1);
    let inputs = Serving::generate(ctx.seed, net::batches_for(short), 1024);
    let batches = &inputs.batches[..REPLAY_BATCHES];

    // pipeline + datamodel + core: the EM inside a warm refit, replayed
    // on a session replica, then the serve layer's export and publish.
    let mut session =
        FusionSession::from_observations(inputs.base.clone(), inputs::serving_model());
    let report = session.run();
    let store = SnapshotStore::new(TrustSnapshot::from_report(
        &report,
        triples(&session),
        0,
        provenance(&session, &report),
    ));
    let (mut apply, mut update, mut export, mut publish) = (vec![], vec![], vec![], vec![]);
    let mut warm = Vec::new();
    for (k, b) in batches.iter().enumerate() {
        let r = k as u64;
        let t0 = Instant::now();
        let merged = tracer.span("datamodel.apply_delta", NO_SPAN, r, || {
            session.cube().apply_delta(&b.obs)
        });
        apply.push(t0.elapsed().as_secs_f64() * 1e6);
        drop(black_box(merged));
        let t0 = Instant::now();
        tracer.span("pipeline.update", NO_SPAN, r, || {
            session.update(&b.obs);
        });
        update.push(t0.elapsed().as_secs_f64() * 1e6);
        let a0 = alloc::allocations();
        let c0 = alloc::cpu_s();
        let t0 = Instant::now();
        let report = tracer.span("pipeline.run", NO_SPAN, r, || session.run());
        let wall_s = t0.elapsed().as_secs_f64();
        warm.push(FitSample {
            wall_s,
            cpu_s: alloc::cpu_s() - c0,
            iterations: report.iterations(),
            stage: report.trace.stage_wall,
            allocations: alloc::allocations() - a0,
            checksums: (0, 0),
            stream: None,
        });
        let keys = triples(&session);
        let t0 = Instant::now();
        let snap = tracer.span("serve.export", NO_SPAN, r, || {
            TrustSnapshot::from_report(&report, keys, k as u64 + 1, provenance(&session, &report))
        });
        export.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        tracer.span("serve.publish", NO_SPAN, r, || store.publish(snap));
        publish.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.insert("datamodel.apply_delta_us", med(&apply));
    m.insert("pipeline.update_us", med(&update));
    m.insert(
        "pipeline.warm_fit_ms",
        med(&warm.iter().map(|f| f.wall_s * 1e3).collect::<Vec<_>>()),
    );
    m.insert(
        "pipeline.warm_rounds",
        med(&warm.iter().map(|f| f.iterations as f64).collect::<Vec<_>>()),
    );
    if !m.contains_key("core.round_ms") {
        core_from_fits(m, &warm);
    }
    m.insert("serve.export_ms", med(&export));
    m.insert("serve.publish_us", med(&publish));

    // serve: the store-free refit baseline and in-process reads.
    let mut server = TrustServer::from_pipeline(
        TrustPipeline::new()
            .observations(inputs.base.clone())
            .model(inputs::serving_model()),
        RefitMode::Warm,
    )
    .map_err(|e| format!("replay server: {e}"))?;
    let mut refit = Vec::new();
    for (k, b) in batches.iter().enumerate() {
        let t0 = Instant::now();
        tracer
            .span("serve.refit", NO_SPAN, k as u64, || {
                server
                    .ingest(b.obs.iter().copied())
                    .and_then(|()| server.refit())
            })
            .map_err(|e| format!("replay refit: {e}"))?;
        refit.push(ms(t0.elapsed()));
    }
    m.insert("serve.refit_ms", med(&refit));
    let mut reader = server.handle().reader();
    let mut read = Vec::new();
    for pass in 0..REPEATS {
        let t0 = Instant::now();
        let root = tracer.open("serve.read", NO_SPAN, pass as u64);
        let mut acc = 0.0;
        for q in &inputs.queries {
            acc += answer(reader.current(), q);
        }
        black_box(acc);
        tracer.close(root);
        read.push(t0.elapsed().as_secs_f64() * 1e9 / inputs.queries.len() as f64);
    }
    m.insert("serve.read_ns", med(&read));

    store_layers(ctx, m, tracer, &inputs, batches)?;
    net_layers(m, tracer, &inputs)
}

/// One in-process answer to a query, folded to a number.
fn answer(snap: &TrustSnapshot, q: &Request) -> f64 {
    match q {
        Request::Trust { source, .. } => snap.trust(*source).unwrap_or(0.0),
        Request::Posterior { item, value, .. } => snap.posterior(*item, *value).unwrap_or(0.0),
        Request::TrustBatch { sources, .. } => snap.trust_batch(sources).len() as f64,
        Request::TopKSources { k, .. } => snap.top_k_sources(*k as usize).len() as f64,
        _ => 0.0,
    }
}

fn store_layers(
    ctx: &Ctx,
    m: &mut Metrics,
    tracer: &mut Tracer,
    inputs: &Serving,
    batches: &[inputs::Batch],
) -> Result<(), String> {
    let dir = ctx.scratch("replay-store");
    let mut server = durable::create(&dir, inputs)?;
    let (mut logged, mut allocs) = (vec![], vec![]);
    for (k, b) in batches.iter().enumerate() {
        let r = k as u64;
        let a0 = alloc::allocations();
        let t0 = Instant::now();
        tracer
            .span("store.ingest", NO_SPAN, r, || {
                server.ingest(b.obs.iter().copied())
            })
            .map_err(|e| format!("replay ingest: {e}"))?;
        logged.push(t0.elapsed().as_secs_f64() * 1e6);
        tracer
            .span("store.refit", NO_SPAN, r, || server.refit())
            .map_err(|e| format!("replay commit: {e}"))?;
        allocs.push((alloc::allocations() - a0) as f64);
    }
    m.insert("store.log_ingest_us", med(&logged));
    m.insert("store.alloc_per_commit", med(&allocs));
    drop(server);

    // Recovery after a batch count that is not a checkpoint multiple:
    // decode the newest checkpoint, replay the commits after it.
    let recovered = tracer.span("store.recover", NO_SPAN, 0, || {
        DurableTrustServer::recover(&dir, inputs::serving_model())
    });
    let recovered = recovered.map_err(|e| format!("replay recover: {e}"))?;
    m.insert("store.replayed_commits", recovered.replayed_commits as f64);
    let newest = std::fs::read_dir(&dir)
        .map_err(|e| format!("list store: {e}"))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("checkpoint-"))
        })
        .max()
        .ok_or("no checkpoint written")?;
    let bytes = std::fs::read(&newest).map_err(|e| format!("read checkpoint: {e}"))?;
    m.insert(
        "store.checkpoint_mb",
        bytes.len() as f64 / (1u64 << 20) as f64,
    );
    let digest = config_digest(&inputs::serving_model());
    let mut decode = Vec::new();
    for i in 0..REPEATS {
        let t0 = Instant::now();
        tracer
            .span("store.decode_checkpoint", NO_SPAN, i as u64, || {
                decode_checkpoint(&bytes, digest)
            })
            .map_err(|e| format!("decode checkpoint: {e}"))?;
        decode.push(ms(t0.elapsed()));
    }
    m.insert("store.decode_checkpoint_ms", med(&decode));

    let mut reopened = DurableTrustServer::open(
        &dir,
        inputs::serving_model(),
        RefitMode::Warm,
        durable::store_config(),
    )
    .map_err(|e| format!("replay reopen: {e}"))?;
    let mut ckpt = Vec::new();
    for i in 0..REPEATS {
        let t0 = Instant::now();
        tracer
            .span("store.checkpoint", NO_SPAN, i as u64, || {
                reopened.checkpoint_now()
            })
            .map_err(|e| format!("checkpoint: {e}"))?;
        ckpt.push(ms(t0.elapsed()));
    }
    m.insert("store.checkpoint_ms", med(&ckpt));
    drop(reopened);

    let mut wal = WalWriter::create(&dir.join("probe.log"), digest, 0)
        .map_err(|e| format!("probe log: {e}"))?;
    let mut sync = Vec::new();
    for epoch in 0..50u64 {
        let t0 = Instant::now();
        tracer
            .span("store.commit_sync", NO_SPAN, epoch, || {
                wal.append_commit(epoch).and_then(|()| wal.sync())
            })
            .map_err(|e| format!("probe commit: {e}"))?;
        sync.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.insert("store.commit_sync_us", med(&sync));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn net_layers(m: &mut Metrics, tracer: &mut Tracer, inputs: &Serving) -> Result<(), String> {
    let server = net::spawn(inputs)?;
    let mut client = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut rtt = Vec::new();
    for i in 0..550u64 {
        let t0 = Instant::now();
        tracer
            .span("net.ping", NO_SPAN, i, || client.ping())
            .map_err(|e| format!("ping: {e}"))?;
        if i >= 50 {
            rtt.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.insert("net.rtt_idle_us", med(&rtt));

    let mut replies = Vec::with_capacity(inputs.queries.len());
    for (i, q) in inputs.queries.iter().enumerate() {
        let reply = client
            .request(&with_id(q, i as u64))
            .map_err(|e| format!("query: {e}"))?;
        replies.push(encode_frame(&reply.encode()));
    }
    let queries: Vec<Request> = inputs
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| with_id(q, i as u64))
        .collect();
    let a0 = alloc::allocations();
    for q in &queries {
        black_box(client.request(q).map_err(|e| format!("query: {e}"))?);
    }
    m.insert(
        "net.alloc_per_query",
        (alloc::allocations() - a0) as f64 / queries.len() as f64,
    );

    let mut codec = Vec::new();
    let mut fb = FrameBuffer::new();
    for pass in 0..REPEATS {
        let t0 = Instant::now();
        let root = tracer.open("net.codec", NO_SPAN, pass as u64);
        for (q, frame) in queries.iter().zip(&replies) {
            black_box(encode_frame(&q.encode()));
            fb.push(frame);
            let payload = fb
                .next_frame(DEFAULT_MAX_FRAME_BYTES)
                .map_err(|e| format!("frame: {e:?}"))?
                .ok_or("a whole frame was pushed")?;
            black_box(Reply::decode(&payload).map_err(|e| format!("decode: {e}"))?);
        }
        tracer.close(root);
        codec.push(t0.elapsed().as_secs_f64() * 1e9 / queries.len() as f64);
    }
    m.insert("net.codec_ns", med(&codec));
    drop(client);

    let book = Book::default();
    let schedule = Schedule {
        reference: std::time::Duration::from_secs(1),
        batches: 0..inputs.batches.len(),
    };
    let w = net::mixed_window(&server, inputs, &schedule, &book, tracer)?;
    if book.torn() > 0 || w.failed() > 0 || !w.all_visible() {
        return Err("the replayed mixed window failed a request".into());
    }
    m.insert("net.backlog_max", w.reference.backlog_max as f64);
    let lag = percentile_or_median(&w.reference.lag_us, TAIL);
    m.insert("net.gen_lag_us", lag.unwrap_or(f64::NAN));
    m.insert("net.refits", w.refits as f64);
    m.insert("net.overloaded", w.overloaded() as f64);
    net::stop(server)
}

/// `trace.spans`, the span file, and each layer's self time.
pub fn finish_trace(
    ctx: &Ctx,
    workload: &str,
    m: &mut Metrics,
    tracer: &Tracer,
) -> Result<(), String> {
    let spans = tracer.spans();
    m.insert("trace.spans", spans.len() as f64);
    let path = ctx
        .out_dir
        .join(format!("trace-{workload}-seed{}.jsonl", ctx.seed));
    trace::write_jsonl(spans, &path).map_err(|e| format!("write spans: {e}"))?;
    println!(
        "  {} spans written to {}; self time by layer:",
        spans.len(),
        path.display()
    );
    for (layer, ns) in trace::self_time_by_layer(spans) {
        println!("    {layer:<10} {:>12.3} ms", ns as f64 / 1e6);
    }
    Ok(())
}
