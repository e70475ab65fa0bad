//! Per-layer timings taken after the serving window by calling each
//! layer's public functions directly: `mx_nn::plan` (compile and execute
//! at the keys the window served), `mx_core::gemm` (prepacked execute and
//! weight pack) and `mx_core::engine` (activation lowering).

use crate::workload::{activation_rows, Family, Req, Spec, FFN_IN, FFN_OUT};
use mx_core::bdr::BdrFormat;
use mx_core::engine::QuantEngine;
use mx_core::gemm::{self, PackScratch, PackedOperand};
use mx_core::parallel;
use mx_models::gpt::GptConfig;
use mx_models::zoo::BatchModel;
use mx_nn::plan::{PlanArena, PlanInput};
use mx_nn::qflow::QuantConfig;
use mx_nn::TensorFormat;
use mx_serve::RequestInput;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each timed call repeats until this much time is spent (at least
/// [`MIN_REPS`], at most [`MAX_REPS`] calls) and reports the median call.
const BUDGET: Duration = Duration::from_millis(20);
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 400;

/// Median wall time of `f`, microseconds.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_REPS || (start.elapsed() < BUDGET && samples.len() < MAX_REPS) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    crate::median(&mut samples)
}

/// The BDR format of a config's activations (weights use the same one in
/// every workload here).
pub fn bdr(cfg: &QuantConfig) -> Option<BdrFormat> {
    match cfg.fwd {
        TensorFormat::Bdr(f) => Some(f),
        _ => None,
    }
}

/// Quantized GEMMs in one plan execution, as `(K, N, count)` per `rows`
/// activation rows. Mirrors the lowering in `DenseGemm::compile_plan`
/// (one product) and `Gpt::compile_plan` (per block: q, k, v, o, fc1,
/// fc2; then the LM head).
fn plan_gemms(family: Family) -> Vec<(usize, usize, usize)> {
    match family {
        Family::Ffn => vec![(FFN_IN, FFN_OUT, 1)],
        Family::Gpt => {
            let g = GptConfig::tiny();
            let d = g.d_model;
            vec![
                (d, d, 4 * g.n_layers),
                (d, 4 * d, g.n_layers),
                (4 * d, d, g.n_layers),
                (d, g.vocab, 1),
            ]
        }
    }
}

/// The workload's reference GEMM shape `(K, N)` for the `gemm.*` metrics:
/// the FFN layer itself, or the GPT's fc1 up-projection.
pub fn reference_shape(family: Family) -> (usize, usize) {
    match family {
        Family::Ffn => (FFN_IN, FFN_OUT),
        Family::Gpt => {
            let d = GptConfig::tiny().d_model;
            (d, 4 * d)
        }
    }
}

/// Xavier-uniform `k × n` weights, the zoo's initialisation.
fn weights(seed: u64, k: usize, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x003E_1647);
    let lim = (6.0 / (k + n) as f64).sqrt() as f32;
    (0..k * n).map(|_| rng.gen_range(-lim..lim)).collect()
}

/// GEMM timings with the weight plane packed once per `(format, K, N)`.
pub struct GemmBench {
    seed: u64,
    threads: usize,
    planes: HashMap<(String, usize, usize), PackedOperand>,
    times: HashMap<(String, usize, usize, usize), f64>,
    scratch: PackScratch,
}

impl GemmBench {
    pub fn new(seed: u64) -> Self {
        GemmBench {
            seed,
            threads: parallel::default_threads(),
            planes: HashMap::new(),
            times: HashMap::new(),
            scratch: PackScratch::new(),
        }
    }

    fn plane(&mut self, f: BdrFormat, k: usize, n: usize) -> &PackedOperand {
        let seed = self.seed;
        self.planes.entry((f.to_string(), k, n)).or_insert_with(|| {
            PackedOperand::pack_cols(&weights(seed, k, n), k, n, f, f)
                .expect("MX formats pack in the code domain")
        })
    }

    /// Median `quantized_gemm_prepacked_scratch` time on `a` (`m` rows).
    pub fn exec_us(&mut self, f: BdrFormat, a: &[f32], m: usize, k: usize, n: usize) -> f64 {
        if let Some(&t) = self.times.get(&(f.to_string(), m, k, n)) {
            return t;
        }
        let threads = self.threads;
        let plane = self.plane(f, k, n).clone();
        let scratch = &mut self.scratch;
        let t = time_us(|| {
            black_box(gemm::quantized_gemm_prepacked_scratch(
                black_box(a),
                m,
                f,
                &plane,
                threads,
                scratch,
            ));
        });
        self.times.insert((f.to_string(), m, k, n), t);
        t
    }

    /// Median `PackedOperand::pack_cols` time for a `k × n` weight.
    pub fn pack_cols_us(&self, f: BdrFormat, k: usize, n: usize) -> f64 {
        let w = weights(self.seed, k, n);
        time_us(|| {
            black_box(PackedOperand::pack_cols(black_box(&w), k, n, f, f));
        })
    }

    /// Bytes of the packed weight plane.
    pub fn packed_bytes(&mut self, f: BdrFormat, k: usize, n: usize) -> usize {
        self.plane(f, k, n).packed_bytes()
    }

    /// Sum of the plan's GEMM times for one `(format, rows)` execution.
    pub fn plan_gemm_us(&mut self, family: Family, f: BdrFormat, rows: usize) -> f64 {
        let mut total = 0.0;
        for (k, n, count) in plan_gemms(family) {
            let a = activation_rows(self.seed, rows, k);
            total += count as f64 * self.exec_us(f, &a, rows, k, n);
        }
        total
    }
}

/// `engine.lower_ns_per_elem`: `PackedOperand::pack_rows` per element.
pub fn lower_ns_per_elem(f: BdrFormat, a: &[f32], m: usize, k: usize) -> f64 {
    let us = time_us(|| {
        black_box(PackedOperand::pack_rows(black_box(a), m, k, f, f));
    });
    us * 1e3 / (m * k) as f64
}

/// Share of rows whose nonzero `k1`-blocks all carry one shared exponent
/// (the rows deferred scale-out applies to).
pub fn uniform_row_share(f: BdrFormat, a: &[f32], k: usize) -> f64 {
    let engine = QuantEngine::new(f);
    let rows = a.len() / k;
    let uniform = a
        .chunks(k)
        .filter(|row| {
            let mut exps = row
                .chunks(f.k1())
                .filter_map(|b| engine.plan_block(b))
                .map(|p| p.shared_exp);
            match exps.next() {
                Some(first) => exps.all(|e| e == first),
                None => true,
            }
        })
        .count();
    uniform as f64 / rows as f64
}

/// One plan key the window executed, with its estimated batch count.
pub struct PlanKey {
    pub cfg: QuantConfig,
    pub len: usize,
    pub batch: usize,
    pub weight: f64,
}

/// Plan replay totals, batch-weighted over the keys.
pub struct PlanReplay {
    pub execute_us: f64,
    pub self_us: f64,
    /// Σ weight × execute time, seconds.
    pub busy_s: f64,
}

/// Compiles each key on the twin and times `CompiledPlan::execute`, and
/// the same plan's GEMMs through [`GemmBench`].
pub fn replay_plans(
    spec: &Spec,
    twin: &dyn BatchModel,
    pool: &[Req],
    keys: &[PlanKey],
    gemms: &mut GemmBench,
) -> PlanReplay {
    let mut arena = PlanArena::new();
    let (mut exec_w, mut self_w, mut weight) = (0.0, 0.0, 0.0);
    for key in keys {
        let Ok(plan) = twin.compile_plan(key.cfg, key.batch, key.len) else {
            continue;
        };
        let f = bdr(&key.cfg).expect("only MX configs plan");
        let exec = match spec.family {
            Family::Ffn => {
                let px = activation_rows(gemms.seed, key.batch, FFN_IN);
                time_us(|| {
                    black_box(
                        plan.execute(PlanInput::Pixels(&px), &mut arena)
                            .expect("replayed plan executes"),
                    );
                })
            }
            Family::Gpt => {
                let tokens: Vec<usize> = pool
                    .iter()
                    .filter_map(|r| match &r.input {
                        RequestInput::Tokens(t) => Some(t),
                        RequestInput::Pixels(_) => None,
                    })
                    .flat_map(|t| t.iter().copied().chain(std::iter::repeat(0)).take(key.len))
                    .take(key.batch * key.len)
                    .collect();
                time_us(|| {
                    black_box(
                        plan.execute(PlanInput::Tokens(&tokens), &mut arena)
                            .expect("replayed plan executes"),
                    );
                })
            }
        };
        let rows = match spec.family {
            Family::Ffn => key.batch,
            Family::Gpt => key.batch * key.len,
        };
        let gemm_us = gemms.plan_gemm_us(spec.family, f, rows);
        exec_w += key.weight * exec;
        self_w += key.weight * (exec - gemm_us);
        weight += key.weight;
    }
    if weight == 0.0 {
        return PlanReplay {
            execute_us: 0.0,
            self_us: 0.0,
            busy_s: 0.0,
        };
    }
    PlanReplay {
        execute_us: exec_w / weight,
        self_us: self_w / weight,
        busy_s: exec_w * 1e-6,
    }
}
