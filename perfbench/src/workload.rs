//! The three traffic mixes: their server shapes, tenant models, and the
//! seeded request streams they send.
//!
//! Every input is a pure function of `(workload, seed, request index)`, so
//! two runs with one seed send the same requests in the same order and the
//! output check and `qsnr_db` see the same sample.

use mx_models::data::LM_VOCAB;
use mx_models::gpt::{Gpt, GptConfig};
use mx_models::zoo::{BatchModel, DenseGemm};
use mx_nn::qflow::QuantConfig;
use mx_nn::TensorFormat;
use mx_serve::{RequestInput, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FFN tenant width: one GPT-style 512 → 2048 up-projection.
pub const FFN_IN: usize = 512;
/// FFN tenant output width.
pub const FFN_OUT: usize = 2048;
/// Distinct FFN requests generated per run; longer runs cycle through them.
/// Every FFN request costs the same, so the pool only needs to be larger
/// than the output-check sample.
const POOL: usize = 1024;
/// Distinct `gpt_mixed` requests: more than a 20-second window sends, so
/// a window's mix of tenants, lengths and formats is the whole pool's.
const GPT_POOL: usize = 4096;
/// Heavy-tailed activation model: this many channels of every FFN row are
/// outliers, drawn at [`OUTLIER_SCALE`] times the others' scale.
const OUTLIER_CHANNELS: usize = 8;
const OUTLIER_SCALE: f32 = 24.0;
/// Per-request format mix of `gpt_mixed`, as counts per block of 20
/// requests (shuffled inside each block). Equal shares give each format's
/// median QSNR the same sample size.
const GPT_MIX: [(TensorFormat, usize); 4] = [
    (TensorFormat::MX4, 5),
    (TensorFormat::MX6, 5),
    (TensorFormat::MX9, 5),
    (TensorFormat::Bf16, 5),
];
/// Seed of every tenant's weights.
const MODEL_SEED: u64 = 0x9E37_79B9;
/// Tenant popularity skew for `gpt_mixed`.
const ZIPF_S: f64 = 1.1;

/// How the generator offers load.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Smooth open loop: request `i` is due at `i / rate` seconds.
    Open { rate: f64 },
    /// Closed loop with a fixed number of requests outstanding.
    Closed { window: usize },
}

/// Which model family the tenants are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `DenseGemm` 512 → 2048, MX6 weights and activations.
    Ffn,
    /// `Gpt` with `GptConfig::tiny`, variable-length token requests.
    Gpt,
}

/// One workload's fixed shape.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub arrivals: Arrivals,
    pub tenants: usize,
    pub shards: usize,
    pub workers: usize,
    pub max_batch: usize,
    pub buckets: Vec<usize>,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let ffn = |name, arrivals, workers| Spec {
            name,
            family: Family::Ffn,
            arrivals,
            tenants: 1,
            shards: 1,
            workers,
            max_batch: 32,
            buckets: Vec::new(),
        };
        match name {
            "ffn_open" => Some(ffn("ffn_open", Arrivals::Open { rate: 1000.0 }, 1)),
            "ffn_closed" => Some(ffn("ffn_closed", Arrivals::Closed { window: 4 * 32 }, 2)),
            "gpt_mixed" => Some(Spec {
                name: "gpt_mixed",
                family: Family::Gpt,
                arrivals: Arrivals::Open { rate: 200.0 },
                tenants: 4,
                shards: 2,
                workers: 1,
                max_batch: 32,
                buckets: vec![4, 8, 16],
            }),
            _ => None,
        }
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig::default()
            .shards(self.shards)
            .workers(self.workers)
            .max_batch(self.max_batch)
            .buckets(self.buckets.iter().copied())
    }

    /// Every config this workload's requests carry.
    pub fn configs(&self) -> Vec<QuantConfig> {
        match self.family {
            Family::Ffn => vec![mx(TensorFormat::MX6)],
            Family::Gpt => GPT_MIX.iter().map(|&(f, _)| mx(f)).collect(),
        }
    }

    /// Bucket edges a request can land in (the native length is last).
    pub fn edges(&self) -> Vec<usize> {
        match self.family {
            Family::Ffn => vec![FFN_IN],
            Family::Gpt => {
                let native = GptConfig::tiny().seq_len;
                let mut e: Vec<usize> = self
                    .buckets
                    .iter()
                    .copied()
                    .filter(|&b| b < native)
                    .collect();
                e.push(native);
                e
            }
        }
    }

    /// The smallest bucket edge that holds a request of `len` elements.
    fn bucket_of(&self, len: usize) -> usize {
        let edges = self.edges();
        edges
            .iter()
            .copied()
            .find(|&e| e >= len)
            .unwrap_or(edges[edges.len() - 1])
    }

    /// Builds tenant `t`'s model. Weights depend only on `t`, so a second
    /// call builds the bit-identical twin the output check uses. They do
    /// not depend on the seed: the served models are fixed and the seed
    /// picks the traffic, so `qsnr_db` moves between seeds only with the
    /// sampled requests.
    pub fn build_model(&self, t: usize) -> Box<dyn BatchModel> {
        let mut rng = StdRng::seed_from_u64(MODEL_SEED.wrapping_add(t as u64));
        match self.family {
            Family::Ffn => Box::new(DenseGemm::new(
                &mut rng,
                FFN_IN,
                FFN_OUT,
                QuantConfig::fp32(),
            )),
            Family::Gpt => Box::new(Gpt::new(&mut rng, GptConfig::tiny(), QuantConfig::fp32())),
        }
    }

    /// Generates the request pool for `seed`.
    pub fn requests(&self, seed: u64) -> Vec<Req> {
        match self.family {
            Family::Ffn => activation_rows(seed, POOL, FFN_IN)
                .chunks(FFN_IN)
                .map(|row| Req {
                    tenant: 0,
                    cfg: mx(TensorFormat::MX6),
                    bucket: FFN_IN,
                    input: RequestInput::Pixels(row.to_vec()),
                })
                .collect(),
            Family::Gpt => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_BE9C);
                let gpt = GptConfig::tiny();
                let zipf = zipf_cdf(self.tenants, ZIPF_S);
                let formats: Vec<TensorFormat> = GPT_MIX
                    .iter()
                    .flat_map(|&(f, n)| std::iter::repeat_n(f, n))
                    .collect();
                let formats = blocks(&formats, GPT_POOL, &mut rng);
                // Lengths are uniform in 1..=seq_len, drawn in shuffled
                // blocks too, so every window sees the same length mix.
                let lens: Vec<usize> = (1..=gpt.seq_len).collect();
                let lens = blocks(&lens, GPT_POOL, &mut rng);
                formats
                    .into_iter()
                    .zip(lens)
                    .map(|(f, len)| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        let tenant = zipf.iter().position(|&c| u < c).unwrap_or(self.tenants - 1);
                        let tokens = (0..len).map(|_| rng.gen_range(0..LM_VOCAB)).collect();
                        Req {
                            tenant,
                            cfg: mx(f),
                            bucket: self.bucket_of(len),
                            input: RequestInput::Tokens(tokens),
                        }
                    })
                    .collect()
            }
        }
    }
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Req {
    pub tenant: usize,
    pub cfg: QuantConfig,
    /// Bucket edge the server pads this request to.
    pub bucket: usize,
    pub input: RequestInput,
}

impl Req {
    pub fn len(&self) -> usize {
        match &self.input {
            RequestInput::Tokens(t) => t.len(),
            RequestInput::Pixels(p) => p.len(),
        }
    }
}

/// `rows` heavy-tailed activation rows of width `k`: Gaussian, with
/// [`OUTLIER_CHANNELS`] fixed channels at [`OUTLIER_SCALE`]. Which
/// channels are outliers is a property of the model, as in real LLM
/// activations, so it does not depend on the seed; the values do. The FFN
/// requests are the first [`POOL`] rows for their seed, so the GEMM and
/// engine probes drawing up to that many rows run on the workload's own
/// request rows.
pub fn activation_rows(seed: u64, rows: usize, k: usize) -> Vec<f32> {
    let mut channels = StdRng::seed_from_u64(MODEL_SEED);
    let outliers: Vec<usize> = (0..OUTLIER_CHANNELS.min(k))
        .map(|_| channels.gen_range(0..k))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000A_11CE);
    let mut out: Vec<f32> = (0..rows * k).map(|_| gaussian(&mut rng)).collect();
    for row in out.chunks_mut(k) {
        for &c in &outliers {
            row[c] *= OUTLIER_SCALE;
        }
    }
    out
}

/// MX-family and BF16 inference configs use one format for weights and
/// activations.
pub fn mx(f: TensorFormat) -> QuantConfig {
    QuantConfig::weights_activations(f, f)
}

/// Standard normal sample (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// `n` items made of shuffled copies of `block`, one after another, so any
/// run of `block.len()` aligned items holds each of its items once.
fn blocks<T: Copy>(block: &[T], n: usize, rng: &mut StdRng) -> Vec<T> {
    let mut out = Vec::with_capacity(n + block.len());
    while out.len() < n {
        let mut b = block.to_vec();
        shuffle(&mut b, rng);
        out.extend(b);
    }
    out.truncate(n);
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Cumulative Zipf popularity over `n` tenants: tenant `r` weighs
/// `1 / (r + 1)^s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}
