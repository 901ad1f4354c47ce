//! The `kbt-net` layer replay of the traced run: a `NetServer` over a
//! warm `TrustServer`, loaded by two connections from two threads.
//!
//! * Connection 1 is an open-loop query generator on one thread. It
//!   pipelines point, posterior, batch and top-k frames on a fixed
//!   schedule at a reference rate. Each query is timed from its due
//!   time, not from when it was sent.
//! * Connection 2 ingests a 64-observation batch from a fresh source on
//!   a fixed tick, polls `trust(fresh)` until a reply shows it, and
//!   retracts the batch ingested [`RETAIN`] ticks earlier, so the cube
//!   stays level while warm refits run.
//!
//! Every reply's `(epoch, fingerprint)` goes into one book; a second
//! fingerprint for an epoch is a torn read.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kbt_net::proto::encode_frame;
use kbt_net::{ClientError, ErrorCode, NetClient, NetServer, Reply, Request};
use kbt_pipeline::TrustPipeline;
use kbt_serve::{RefitMode, TrustServer};

use crate::inputs::{self, with_id, Serving};
use crate::trace::{Tracer, NO_SPAN};

/// The open loop's query rate, well below the knee.
const REF_RATE: f64 = 2_000.0;
/// Ingest tick of connection 2 (20 batches per second).
const TICK: Duration = Duration::from_millis(50);
/// Ticks a batch stays in the cube before it is retracted.
const RETAIN: usize = 4;
/// Pause between visibility polls.
const POLL_PAUSE: Duration = Duration::from_micros(200);
/// How long an acked batch may take to become visible, or the open loop
/// to drain, before it counts as failed.
const GIVE_UP: Duration = Duration::from_secs(5);

/// The epoch -> fingerprint book shared by both connections.
#[derive(Debug, Default)]
pub struct Book {
    seen: Mutex<HashMap<u64, u64>>,
    torn: AtomicU64,
}

impl Book {
    /// Note one reply; returns `false` on a torn read.
    pub fn note(&self, epoch: u64, fingerprint: u64) -> bool {
        let prev = self
            .seen
            .lock()
            .expect("book lock is never held across a panic")
            .insert(epoch, fingerprint);
        let ok = prev.is_none_or(|p| p == fingerprint);
        if !ok {
            // ordering: Relaxed — a statistic read after the threads join.
            self.torn.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    pub fn torn(&self) -> u64 {
        self.torn.load(Ordering::Relaxed)
    }
}

/// `(epoch, fingerprint)` of a query reply; `None` for anything else.
fn stamp(reply: &Reply) -> Option<(u64, u64)> {
    match reply {
        Reply::Trust {
            epoch, fingerprint, ..
        }
        | Reply::Posterior {
            epoch, fingerprint, ..
        }
        | Reply::TriplePosterior {
            epoch, fingerprint, ..
        }
        | Reply::TopK {
            epoch, fingerprint, ..
        }
        | Reply::TrustBatch {
            epoch, fingerprint, ..
        }
        | Reply::StatsReply {
            epoch, fingerprint, ..
        } => Some((*epoch, *fingerprint)),
        _ => None,
    }
}

/// Whether a reply answers the query it is matched to.
fn answers(q: &Request, reply: &Reply) -> bool {
    match (q, reply) {
        (Request::Trust { id, .. }, Reply::Trust { id: r, .. })
        | (Request::Posterior { id, .. }, Reply::Posterior { id: r, .. }) => id == r,
        (Request::TrustBatch { id, sources }, Reply::TrustBatch { id: r, values, .. }) => {
            id == r && values.len() == sources.len()
        }
        (Request::TopKSources { id, k }, Reply::TopK { id: r, sources, .. }) => {
            id == r && sources.len() <= *k as usize && sources.windows(2).all(|p| p[0].1 >= p[1].1)
        }
        _ => false,
    }
}

/// What the open loop measured.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// How late each query was sent, µs.
    pub lag_us: Vec<f64>,
    pub backlog_max: usize,
    pub attempted: u64,
    pub failed: u64,
    pub overloaded: u64,
}

/// The query generator's connection: nonblocking, with its own outbox
/// so a short write never tears a frame.
struct Generator {
    client: NetClient,
    outbox: Vec<u8>,
    next_id: u64,
    cursor: usize,
}

struct Pending {
    query: Request,
    due: Instant,
    sent: (Instant, Instant),
}

impl Generator {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .stream_mut()
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Self {
            client,
            outbox: Vec::with_capacity(1 << 16),
            next_id: 1,
            cursor: 0,
        })
    }

    fn flush(&mut self) -> Result<(), String> {
        while !self.outbox.is_empty() {
            match self.client.stream_mut().write(&self.outbox) {
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Run the open loop at [`REF_RATE`] for `len`, then drain.
    fn run(
        &mut self,
        inputs: &Serving,
        len: Duration,
        book: &Book,
        tracer: &mut Tracer,
    ) -> Result<Step, String> {
        let interval = Duration::from_secs_f64(1.0 / REF_RATE);
        let total = (len.as_secs_f64() * REF_RATE).round().max(1.0) as usize;
        let start = Instant::now() + Duration::from_micros(200);
        let due = |i: usize| start + interval * i as u32;
        let mut step = Step::default();
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut sent = 0usize;
        let mut last_epoch = 0u64;
        let mut give_up_at = None;
        loop {
            let now = Instant::now();
            while sent < total && due(sent) <= now {
                let t_send = Instant::now();
                let template = &inputs.queries[self.cursor % inputs.queries.len()];
                self.cursor += 1;
                let query = with_id(template, self.next_id);
                self.next_id += 1;
                self.outbox
                    .extend_from_slice(&encode_frame(&query.encode()));
                let sent_at = (t_send, Instant::now());
                step.lag_us
                    .push(t_send.duration_since(due(sent)).as_secs_f64() * 1e6);
                pending.push_back(Pending {
                    query,
                    due: due(sent),
                    sent: sent_at,
                });
                step.backlog_max = step.backlog_max.max(pending.len());
                step.attempted += 1;
                sent += 1;
            }
            self.flush()?;
            loop {
                let reply = match self.client.read_reply() {
                    Ok(r) => r,
                    Err(ClientError::Io(e)) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("read reply: {e}")),
                };
                let t_reply = Instant::now();
                let Some(p) = pending.pop_front() else {
                    return Err(format!("unsolicited reply {reply:?}"));
                };
                if let Reply::Error { code, .. } = &reply {
                    step.failed += 1;
                    step.overloaded += u64::from(*code == ErrorCode::Overloaded);
                    continue;
                }
                let ok = answers(&p.query, &reply)
                    && stamp(&reply).is_some_and(|(epoch, fp)| {
                        let monotone = epoch >= last_epoch;
                        last_epoch = epoch;
                        book.note(epoch, fp) && monotone
                    });
                if !ok {
                    step.failed += 1;
                    continue;
                }
                if tracer.is_on() {
                    let id = p.query.id();
                    let root = tracer.record("net.query", p.due, t_reply, NO_SPAN, id);
                    tracer.record("net.send", p.sent.0, p.sent.1, root, id);
                }
            }
            if sent == total {
                if pending.is_empty() {
                    break;
                }
                let limit = *give_up_at.get_or_insert(Instant::now() + GIVE_UP);
                if Instant::now() > limit {
                    return Err(format!("{} replies never arrived", pending.len()));
                }
            }
            // Spin (yielding) rather than sleep: a sleep's wake-up
            // overshoot on this class of VM is as large as the latency
            // measured.
            std::thread::yield_now();
        }
        Ok(step)
    }
}

/// What connection 2 measured.
#[derive(Debug, Default)]
pub struct WriterStats {
    pub visible_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub overloaded: u64,
    pub batches: usize,
}

/// Connection 2: ingest, wait until visible, retract an older batch.
fn writer(
    addr: SocketAddr,
    inputs: &Serving,
    batches: std::ops::Range<usize>,
    stop: &AtomicBool,
    book: &Book,
    tracer: &mut Tracer,
) -> Result<WriterStats, String> {
    let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(GIVE_UP))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut stats = WriterStats::default();
    let mut next_tick = Instant::now();
    let mut last_epoch = 0u64;
    for k in batches.clone() {
        // ordering: Relaxed — a stop request; it carries no data.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();
        if next_tick > now {
            std::thread::sleep(next_tick - now);
        }
        next_tick += TICK;
        let batch = &inputs.batches[k];
        let mut frames = Vec::new();
        let retract = k >= batches.start + RETAIN;
        if retract {
            let keys = inputs.batches[k - RETAIN].keys();
            frames.extend(encode_frame(
                &Request::Retract {
                    id: 2 * k as u64,
                    keys,
                }
                .encode(),
            ));
        }
        let id = 2 * k as u64 + 1;
        frames.extend(encode_frame(
            &Request::Ingest {
                id,
                delta: batch.obs.clone(),
            }
            .encode(),
        ));
        let t_send = Instant::now();
        client
            .send_raw(&frames)
            .map_err(|e| format!("send batch: {e}"))?;
        let mut acked = true;
        for _ in 0..(1 + usize::from(retract)) {
            stats.attempted += 1;
            match client.read_reply().map_err(|e| format!("batch ack: {e}"))? {
                Reply::IngestAck { .. } | Reply::RetractAck { .. } => {}
                Reply::Error { code, .. } => {
                    stats.failed += 1;
                    stats.overloaded += u64::from(code == ErrorCode::Overloaded);
                    acked = false;
                }
                other => return Err(format!("unexpected batch reply {other:?}")),
            }
        }
        if !acked {
            continue;
        }
        let t_ack = Instant::now();
        stats.batches += 1;
        loop {
            stats.attempted += 1;
            let answer = client
                .trust(batch.source)
                .map_err(|e| format!("poll: {e}"))?;
            let monotone = answer.epoch >= last_epoch;
            last_epoch = answer.epoch;
            if !book.note(answer.epoch, answer.fingerprint) || !monotone {
                stats.failed += 1;
            }
            if answer.value.is_some() {
                let t_seen = Instant::now();
                stats
                    .visible_ms
                    .push(t_seen.duration_since(t_ack).as_secs_f64() * 1e3);
                if tracer.is_on() {
                    let root = tracer.record("bench.batch", t_send, t_seen, NO_SPAN, id);
                    tracer.record("net.ingest", t_send, t_ack, root, id);
                    tracer.record("net.visible", t_ack, t_seen, root, id);
                }
                break;
            }
            if t_ack.elapsed() > GIVE_UP {
                // An acked batch that never shows up.
                stats.failed += 1;
                break;
            }
            std::thread::sleep(POLL_PAUSE);
        }
    }
    Ok(stats)
}

/// How one mixed window runs.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// How long the open loop runs.
    pub reference: Duration,
    /// Batches connection 2 may use (fresh sources).
    pub batches: std::ops::Range<usize>,
}

/// Everything one mixed window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub reference: Step,
    pub writer: WriterStats,
    pub refits: u64,
}

impl Window {
    pub fn failed(&self) -> u64 {
        self.reference.failed + self.writer.failed
    }

    pub fn overloaded(&self) -> u64 {
        self.reference.overloaded + self.writer.overloaded
    }

    /// Whether every acked ingest became visible.
    pub fn all_visible(&self) -> bool {
        self.writer.visible_ms.len() == self.writer.batches
    }
}

/// Run both connections against `net` for one window.
pub fn mixed_window(
    net: &NetServer,
    inputs: &Serving,
    schedule: &Schedule,
    book: &Book,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let addr = net.addr();
    let refits0 = net.refits();
    let stop = AtomicBool::new(false);
    let mut gen = Generator::connect(addr)?;
    let mut writer_tracer = tracer.sibling();
    let (generated, written) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            writer(
                addr,
                inputs,
                schedule.batches.clone(),
                &stop,
                book,
                &mut writer_tracer,
            )
        });
        let g = gen.run(inputs, schedule.reference, book, tracer);
        // ordering: Relaxed — a stop request; the join below synchronizes.
        stop.store(true, Ordering::Relaxed);
        (g, w.join())
    });
    tracer.absorb(writer_tracer);
    let reference = generated?;
    let writer = written.map_err(|_| "writer thread panicked".to_string())??;
    Ok(Window {
        reference,
        writer,
        refits: net.refits() - refits0,
    })
}

/// Spawn the serving fixture: a `NetServer` over a warm `TrustServer`
/// fitted on the base corpus.
pub fn spawn(inputs: &Serving) -> Result<NetServer, String> {
    let server = TrustServer::from_pipeline(
        TrustPipeline::new()
            .observations(inputs.base.clone())
            .model(inputs::serving_model()),
        RefitMode::Warm,
    )
    .map_err(|e| format!("base fit: {e}"))?;
    NetServer::spawn(server, "127.0.0.1:0").map_err(|e| format!("spawn: {e}"))
}

pub fn stop(net: NetServer) -> Result<(), String> {
    let down = net.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    down.durability.map_err(|e| format!("durability: {e}"))
}

/// Batches a window of `len` may ingest, with margin.
pub fn batches_for(len: Duration) -> usize {
    (len.as_secs_f64() / TICK.as_secs_f64()).ceil() as usize + RETAIN + 8
}
