//! Workload inputs, made from the `--seed` alone: the same seed gives
//! the same corpus, base, batches and query mix. The program under test
//! sees only these generated inputs.

use kbt_core::ModelConfig;
use kbt_datamodel::{ExtractorId, ItemId, Observation, ObservationCube, SourceId, ValueId};
use kbt_net::Request;
use kbt_pipeline::Model;
use kbt_synth::scale::{generate, ScaleConfig};

/// Claims in the fit corpus.
pub const FIT_TRIPLES: usize = 1_000_000;
/// Web sources in the fit corpus.
pub const FIT_SOURCES: usize = 10_000;
/// Sources in the serving base corpus.
pub const BASE_SOURCES: u32 = 100;
/// Items in the serving base corpus.
pub const BASE_ITEMS: u32 = 500;
/// Observations per ingested batch (32 claims x 2 extractors).
pub const BATCH_OBS: usize = 64;
/// False values per item in the serving corpora.
const DOMAIN: u32 = 9;

/// SplitMix64: a small, fixed, seedable stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The model every workload fits: the paper's multi-layer model with
/// the default configuration (5 EM rounds) on 2 threads.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        threads: Some(2),
        ..ModelConfig::default()
    }
}

pub fn model() -> Model {
    Model::MultiLayer(model_config())
}

/// The model the serving paths (the durable store and the `kbt-net`
/// replay) refit with: the same, on one thread. A warm refit of one
/// 64-observation batch is too small to pay for a second thread: in
/// paired runs of `durable_ingest` on a 2-vCPU VM, the median commit
/// took 9.3–10.4 ms on one thread and 10.9–15.8 ms on two. One thread
/// also leaves the second core to the query path beside a refit.
pub fn serving_model() -> Model {
    Model::MultiLayer(ModelConfig {
        threads: Some(1),
        ..ModelConfig::default()
    })
}

/// The fit workloads' corpus.
pub fn fit_corpus(seed: u64) -> ObservationCube {
    generate(&ScaleConfig {
        triples: FIT_TRIPLES,
        num_sources: FIT_SOURCES,
        seed: seed ^ 0x6b62_745f_6669_7400,
        ..ScaleConfig::default()
    })
}

/// A smaller corpus of the same shape, for layer replays on workloads
/// whose own path has no large fit.
pub fn replay_corpus(seed: u64) -> ObservationCube {
    generate(&ScaleConfig {
        triples: FIT_TRIPLES / 5,
        num_sources: FIT_SOURCES / 5,
        seed: seed ^ 0x7265_706c_6179_0000,
        ..ScaleConfig::default()
    })
}

/// One ingested batch: [`BATCH_OBS`] observations from one source.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub source: SourceId,
    pub obs: Vec<Observation>,
}

impl Batch {
    /// The batch's `(source, item, value)` keys, for its retraction.
    pub fn keys(&self) -> Vec<(SourceId, ItemId, ValueId)> {
        let mut keys: Vec<_> = self
            .obs
            .iter()
            .map(|o| (o.source, o.item, o.value))
            .collect();
        keys.dedup();
        keys
    }
}

/// The serving workloads' inputs: a ~20k-triple base corpus, a queue of
/// batches (each from a source the base has never seen), and a query mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Serving {
    pub base: Vec<Observation>,
    pub batches: Vec<Batch>,
    pub queries: Vec<Request>,
}

impl Serving {
    pub fn generate(seed: u64, batches: usize, queries: usize) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x7365_7276_6500_0000);
        let acc: Vec<f64> = (0..BASE_SOURCES).map(|_| 0.5 + 0.45 * rng.unit()).collect();
        let mut base = Vec::new();
        for (w, &a) in acc.iter().enumerate() {
            for d in 0..BASE_ITEMS {
                if rng.unit() >= 0.4 {
                    continue;
                }
                let v = claim(&mut rng, d, a);
                push_claim(&mut base, SourceId::new(w as u32), d, v);
            }
        }
        let batches = (0..batches)
            .map(|k| {
                let source = SourceId::new(BASE_SOURCES + k as u32);
                let a = 0.5 + 0.45 * rng.unit();
                let first = rng.below(BASE_ITEMS);
                let mut obs = Vec::with_capacity(BATCH_OBS);
                for i in 0..(BATCH_OBS / 2) as u32 {
                    // 32 distinct items: a stride walk that wraps the range.
                    let d = (first + i * 7) % BASE_ITEMS;
                    let v = claim(&mut rng, d, a);
                    push_claim(&mut obs, source, d, v);
                }
                obs.sort_by_key(|o| (o.source, o.item, o.value, o.extractor));
                Batch { source, obs }
            })
            .collect();
        let queries = (0..queries)
            .map(|_| {
                let w = SourceId::new(rng.below(BASE_SOURCES));
                match rng.below(10) {
                    0..=3 => Request::Trust { id: 0, source: w },
                    4..=6 => Request::Posterior {
                        id: 0,
                        item: ItemId::new(rng.below(BASE_ITEMS)),
                        value: ValueId::new(rng.below(DOMAIN)),
                    },
                    7 | 8 => Request::TrustBatch {
                        id: 0,
                        sources: (0..8)
                            .map(|_| SourceId::new(rng.below(BASE_SOURCES)))
                            .collect(),
                    },
                    _ => Request::TopKSources { id: 0, k: 5 },
                }
            })
            .collect();
        Self {
            base,
            batches,
            queries,
        }
    }
}

/// A source of accuracy `a` claims the item's true value (`d % DOMAIN`)
/// with probability `a`, else one of the other values.
fn claim(rng: &mut SplitMix, d: u32, a: f64) -> u32 {
    let truth = d % DOMAIN;
    if rng.unit() < a {
        truth
    } else {
        (truth + 1 + rng.below(DOMAIN - 1)) % DOMAIN
    }
}

fn push_claim(out: &mut Vec<Observation>, w: SourceId, d: u32, v: u32) {
    for e in 0..2 {
        out.push(Observation::certain(
            ExtractorId::new(e),
            w,
            ItemId::new(d),
            ValueId::new(v),
        ));
    }
}

/// Set the request id of a query template.
pub fn with_id(q: &Request, id: u64) -> Request {
    let mut q = q.clone();
    match &mut q {
        Request::Trust { id: i, .. }
        | Request::Posterior { id: i, .. }
        | Request::TriplePosterior { id: i, .. }
        | Request::TopKSources { id: i, .. }
        | Request::TrustBatch { id: i, .. }
        | Request::Ingest { id: i, .. }
        | Request::Retract { id: i, .. }
        | Request::Stats { id: i } => *i = id,
        Request::Ping { token } => *token = id,
    }
    q
}

/// Deterministic checksum of an f64 slice's exact bit patterns.
pub fn bits_checksum(xs: &[f64]) -> u64 {
    xs.iter().fold(0u64, |acc, x| {
        acc.wrapping_mul(31).wrapping_add(x.to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_inputs_repeat_for_a_seed() {
        let a = Serving::generate(7, 8, 100);
        assert_eq!(a, Serving::generate(7, 8, 100));
        assert_ne!(a.base, Serving::generate(8, 8, 100).base);
    }

    #[test]
    fn serving_inputs_have_the_stated_shape() {
        let s = Serving::generate(1, 4, 50);
        // ~100 sources x 500 items x 0.4 claims, 2 extractors each.
        let claims = s.base.len() / 2;
        assert!((18_000..22_000).contains(&claims), "{claims} base claims");
        for (k, b) in s.batches.iter().enumerate() {
            assert_eq!(b.obs.len(), BATCH_OBS);
            assert_eq!(b.source, SourceId::new(BASE_SOURCES + k as u32));
            assert!(b.obs.iter().all(|o| o.source == b.source));
            assert_eq!(b.keys().len(), BATCH_OBS / 2);
        }
        assert_eq!(s.queries.len(), 50);
    }

    #[test]
    fn fit_corpus_repeats_for_a_seed() {
        let cfg = |seed| ScaleConfig {
            triples: 5_000,
            num_sources: 100,
            seed,
            ..ScaleConfig::default()
        };
        let a = generate(&cfg(3));
        let b = generate(&cfg(3));
        assert_eq!(a.groups(), b.groups());
        assert_ne!(a.groups(), generate(&cfg(4)).groups());
    }

    #[test]
    fn with_id_sets_the_echoed_id() {
        let q = with_id(
            &Request::Trust {
                id: 0,
                source: SourceId::new(3),
            },
            42,
        );
        assert_eq!(q.id(), 42);
    }
}
