//! The quantized compute flow of Fig. 8: which tensors get quantized, in
//! which format, along which axis, in the forward and backward passes.
//!
//! Every tensor (matrix-multiply / convolution) operation quantizes *both*
//! operands along the reduction dimension. Element-wise operations run in a
//! scalar format (BF16 in the paper; FP32 here by default — see
//! [`QuantConfig::elementwise`]). The backward pass may use a different
//! (usually wider) format than the forward pass, which is how
//! quantization-aware fine-tuning with an MX6/MX4 forward and an FP32
//! backward is expressed.
//!
//! # Lowering the weight operand once, and caching it
//!
//! One decision, [`lower_weights`], lowers the weight side of every
//! product for this module's dynamic walk and the `plan` module alike: a
//! **code-domain pair** (two BDR formats `mx_core::gemm` multiplies exactly
//! in integers) gets a shift-aligned code plane
//! ([`mx_core::gemm::PackedOperand`]); **every other pair**, identity
//! included, gets a pre-cast `f32` copy. [`gemm_lowered`] is the one
//! execute helper for both kinds, so planned and dynamic GEMMs run the same
//! arithmetic on the same weights.
//!
//! The lowering is cached **on the weight tensor itself**, one entry per
//! weight format and kind (at most [`MAX_CACHED_PLANES`], behind a mutex),
//! so attention, linear, RNN and conv im2col amortize it with no call-site
//! changes, concurrent serving threads share warm entries, and every
//! compiled plan of a tensor pins the *same* `Arc` instead of a private
//! copy. [`plane_cache_counters`] exposes the hit/lowering tallies
//! `mx-serve`'s `ServeStats` reports as "packs avoided".
//!
//! The invalidation contract is generation-based and cannot go stale:
//!
//! - every [`Tensor`] carries a globally unique generation stamp that
//!   changes on **every** mutable-data access ([`Tensor::data_mut`]);
//! - a cached entry records the generation it was lowered at and is only
//!   reused while the stamps still match;
//! - optimizer steps (`Sgd::step` / `Adam::step` write through `data_mut`),
//!   direct `Param` weight writes, and wholesale tensor replacement
//!   therefore all invalidate the cache automatically — the next matmul
//!   re-lowers from the updated values and is bit-identical to an uncached
//!   run (asserted by the `weight_cache` regression suite).

use crate::format::{cast_rows, quantize_along, Axis, TensorFormat};
use crate::tensor::{CachedWeights, Tensor};
use mx_core::gemm::{self, PackScratch, PackedOperand};
use mx_core::{fgemm, parallel};
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most lowered weights a tensor caches at once (one per weight format and
/// kind). Large enough for every preset plus headroom; past it the oldest
/// entry is evicted. Serving traffic that cycles through the presets
/// therefore never re-lowers after warmup, and a pathological format
/// fuzzer cannot hoard memory.
const MAX_CACHED_PLANES: usize = 8;

/// Process-wide count of weight-cache hits (a B-side lowering that was
/// skipped because a cached entry matched).
static PLANE_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of weight lowerings actually performed (cold slot,
/// stale generation, or a new format, kind, or kernel class).
static PLANE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide weight-cache counters as
/// `(hits, packs_performed)`. Hits are packs *avoided*: each one is a full
/// B-side lowering (code plane or cast) that a cached entry made
/// unnecessary. The counters are cumulative over the process (all models,
/// all threads); consumers such as `mx-serve`'s `ServeStats` report deltas
/// against a baseline.
pub fn plane_cache_counters() -> (u64, u64) {
    (
        PLANE_HITS.load(Ordering::Relaxed),
        PLANE_MISSES.load(Ordering::Relaxed),
    )
}

thread_local! {
    /// Per-thread scratch for A-side (activation) packing: reusing the code
    /// plane buffers across forward passes removes the last per-call
    /// allocation on the inference steady-state path. Thread-local rather
    /// than per-tensor because activations are short-lived — the buffers
    /// belong to the compute thread, not the data.
    static PACK_SCRATCH: RefCell<PackScratch> = RefCell::new(PackScratch::new());
}

/// Format assignment for a model's tensor and vector operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Format of forward-pass *activation* operands.
    pub fwd: TensorFormat,
    /// Format of forward-pass *weight* operands (Table IV evaluates
    /// weight/activation format combinations independently).
    pub fwd_w: TensorFormat,
    /// Format of backward-pass tensor-op operands (errors, transposed
    /// weights and activations).
    pub bwd: TensorFormat,
    /// Format element-wise (vector) operation outputs are rounded to.
    pub elementwise: TensorFormat,
}

impl QuantConfig {
    /// Full-precision baseline: nothing is quantized.
    pub fn fp32() -> Self {
        QuantConfig {
            fwd: TensorFormat::Fp32,
            fwd_w: TensorFormat::Fp32,
            bwd: TensorFormat::Fp32,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// The paper's MX training setup: the same block format on every tensor
    /// operand in forward and backward, element-wise ops left in full
    /// precision.
    pub fn uniform(format: TensorFormat) -> Self {
        QuantConfig {
            fwd: format,
            fwd_w: format,
            bwd: format,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// Quantization-aware fine-tuning: narrow forward, full-precision
    /// backward (§V "the forward pass might use MX6 or MX4 and the backward
    /// pass a higher bit-width format").
    pub fn qat(fwd: TensorFormat) -> Self {
        QuantConfig {
            fwd,
            fwd_w: fwd,
            bwd: TensorFormat::Fp32,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// Inference-style config with separate weight and activation formats —
    /// the `(w, a)` tuples of Table IV.
    pub fn weights_activations(w: TensorFormat, a: TensorFormat) -> Self {
        QuantConfig {
            fwd: a,
            fwd_w: w,
            bwd: TensorFormat::Fp32,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// Overrides the element-wise format (e.g. BF16 to match the paper's
    /// vector-op precision exactly).
    pub fn with_elementwise(mut self, format: TensorFormat) -> Self {
        self.elementwise = format;
        self
    }

    /// Whether any tensor op quantizes at all.
    pub fn is_fp32(&self) -> bool {
        self.fwd.is_identity()
            && self.fwd_w.is_identity()
            && self.bwd.is_identity()
            && self.elementwise.is_identity()
    }

    /// Whether a forward pass under this config computes each request of a
    /// batch from that request's inputs alone. False when activations or
    /// element-wise outputs use a per-tensor-scaled format: its one amax
    /// spans the whole batched tensor, so a request's bits would depend on
    /// its batch partners (and on padding rows). Weights may be
    /// per-tensor-scaled either way — they do not change with the batch.
    pub fn batch_invariant(&self) -> bool {
        let per_tensor = |f: TensorFormat| matches!(f, TensorFormat::ScalarScaled(_));
        !per_tensor(self.fwd) && !per_tensor(self.elementwise)
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self::fp32()
    }
}

impl fmt::Display for QuantConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fwd={} fwd_w={} bwd={} elem={}",
            self.fwd, self.fwd_w, self.bwd, self.elementwise
        )
    }
}

/// Quantized matrix product: quantizes `a` along its rows (the reduction
/// dimension `K`) and `b` along its columns, then multiplies.
///
/// This is the single primitive every tensor op in the repository routes
/// through; it encodes the directional-quantization rule of §V.
///
/// # Examples
///
/// ```
/// # use mx_nn::qflow::quantized_matmul;
/// # use mx_nn::format::TensorFormat;
/// # use mx_nn::tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0; 32], &[2, 16]);
/// let b = Tensor::from_vec(vec![0.5; 32], &[16, 2]);
/// let y = quantized_matmul(&a, &b, TensorFormat::MX6);
/// assert_eq!(y.data(), &[8.0, 8.0, 8.0, 8.0]);
/// ```
pub fn quantized_matmul(a: &Tensor, b: &Tensor, format: TensorFormat) -> Tensor {
    quantized_matmul_ab(a, b, format, format)
}

/// [`quantized_matmul`] with distinct operand formats: `a` (activations)
/// quantizes in `fa`, `b` (weights) in `fb`.
///
/// `b` is lowered by [`lower_weights`] (fetched from the tensor's
/// generation-keyed cache, lowered on a miss — see the module docs) and
/// the product runs through [`gemm_lowered`]. For a code-domain pair every
/// K-block dot product is computed in integer arithmetic with a single
/// `f32` scale-out per block pair — bit-identical to the dequantize
/// reference with blocked accumulation (and exactly equal to the naive
/// `f32` product whenever `K ≤ k1`). Every other pair is the
/// fake-quantize + `f32` matmul composition.
pub fn quantized_matmul_ab(a: &Tensor, b: &Tensor, fa: TensorFormat, fb: TensorFormat) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(b.shape().len(), 2, "rhs of matmul must be 2-D");
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "inner dims: {k} vs {kb}");
    let w = lower_weights(b, fa, fb);
    let out = PACK_SCRATCH
        .with(|scratch| gemm_lowered(a.data(), m, k, n, fa, &w, &mut scratch.borrow_mut()));
    let mut shape = a.shape()[..a.shape().len() - 1].to_vec();
    shape.push(n);
    Tensor::from_vec(out.expect("weights lowered for this exact pair"), &shape)
}

/// A weight operand lowered for one `(fa, fb)` product by
/// [`lower_weights`], shared (never copied) by every caller that
/// multiplies against the same tensor generation.
#[derive(Clone)]
pub(crate) enum Lowered {
    /// Code-domain pair: the shift-aligned code plane the integer GEMM
    /// reads.
    Plane(Arc<PackedOperand>),
    /// Every other pair: the weights fake-quantized through `fb` along
    /// their columns.
    Cast(Arc<Vec<f32>>),
}

/// The weight-lowering decision for a `(fa, fb)` product, made once for
/// the dynamic walk and the planner alike: code-domain pairs get a code
/// plane, every other pair (identity included) a pre-cast `f32` copy.
/// Returns `b`'s cached entry when one matches, else lowers and caches.
///
/// A hit requires the stored generation stamp to equal
/// [`Tensor::generation`]; stale entries are purged wholesale on the first
/// lookup after a mutation. A code plane only matches an activation format
/// it [`PackedOperand::accepts`], so one plane serves every activation
/// format of its kernel class while a cross-class partner lowers its own.
/// Short-lived right operands (activations) simply drop their entry with
/// the tensor.
pub(crate) fn lower_weights(b: &Tensor, fa: TensorFormat, fb: TensorFormat) -> Lowered {
    let code = match (fa, fb) {
        (TensorFormat::Bdr(ba), TensorFormat::Bdr(bb)) if gemm::code_domain_supported(&ba, &bb) => {
            Some((ba, bb))
        }
        _ => None,
    };
    let mut slot = b.plane_slot().lock().expect("plane cache poisoned");
    let gen = b.generation();
    // The data changed since these entries were lowered: all of them are
    // dead.
    slot.retain(|c| c.gen == gen);
    let hit = slot.iter().find(|c| {
        c.fb == fb
            && match (&c.lowered, code) {
                (Lowered::Plane(plane), Some((ba, _))) => plane.accepts(&ba),
                (Lowered::Cast(_), None) => true,
                _ => false,
            }
    });
    if let Some(cached) = hit {
        PLANE_HITS.fetch_add(1, Ordering::Relaxed);
        return cached.lowered.clone();
    }
    PLANE_MISSES.fetch_add(1, Ordering::Relaxed);
    let lowered = match code {
        Some((ba, bb)) => {
            let (k, n) = (b.shape()[0], b.shape()[1]);
            Lowered::Plane(Arc::new(
                PackedOperand::pack_cols(b.data(), k, n, ba, bb)
                    .expect("pair passed the support gate"),
            ))
        }
        None => Lowered::Cast(Arc::new(quantize_along(b, fb, Axis::Col).into_data())),
    };
    if slot.len() >= MAX_CACHED_PLANES {
        slot.remove(0);
    }
    slot.push(CachedWeights {
        gen,
        fb,
        lowered: lowered.clone(),
    });
    lowered
}

/// The one execute helper behind every quantized GEMM, dynamic or planned:
/// `a` is `m × k` activations in `fa`, `w` the `k × n` weights lowered by
/// [`lower_weights`] for the same `fa`. A code plane runs the integer GEMM
/// (activation rows quantized inside its execute loop); a cast runs
/// `cast_rows(a, k, fa)` and the `f32` GEMM. `None` when `w` was lowered
/// for a different activation format (a plane of another kernel class, or
/// a plane against a non-block `fa`).
pub(crate) fn gemm_lowered(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    fa: TensorFormat,
    w: &Lowered,
    scratch: &mut PackScratch,
) -> Option<Vec<f32>> {
    let threads = parallel::default_threads();
    match (w, fa) {
        (Lowered::Plane(plane), TensorFormat::Bdr(ba)) => {
            gemm::quantized_gemm_prepacked_scratch(a, m, ba, plane, threads, scratch)
        }
        (Lowered::Plane(_), _) => None,
        (Lowered::Cast(w), fa) => {
            let a = if fa.is_identity() {
                Cow::Borrowed(a)
            } else {
                let mut aq = a.to_vec();
                cast_rows(&mut aq, k, fa);
                Cow::Owned(aq)
            };
            Some(fgemm::matmul(&a, w, m, k, n, threads))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_core::bdr::BdrFormat;

    #[test]
    fn fp32_config_is_identity() {
        let cfg = QuantConfig::fp32();
        assert!(cfg.is_fp32());
        let a = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[2, 4]);
        let b = Tensor::eye(4);
        assert_eq!(quantized_matmul(&a, &b, cfg.fwd), a);
    }

    #[test]
    fn uniform_and_qat_constructors() {
        let mx9 = QuantConfig::uniform(TensorFormat::MX9);
        assert_eq!(mx9.fwd, TensorFormat::MX9);
        assert_eq!(mx9.bwd, TensorFormat::MX9);
        let qat = QuantConfig::qat(TensorFormat::MX6);
        assert_eq!(qat.fwd, TensorFormat::MX6);
        assert!(qat.bwd.is_identity());
    }

    #[test]
    fn quantized_matmul_matches_manual_quantization() {
        // K = 16 is a single k1-block, where the code-domain GEMM is exactly
        // equal to the dequantize + naive f32 matmul composition.
        let a = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.17).sin()).collect(), &[4, 16]);
        let b = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.13).cos()).collect(), &[16, 4]);
        let y = quantized_matmul(&a, &b, TensorFormat::MX6);
        let aq = quantize_along(&a, TensorFormat::MX6, Axis::Row);
        let bq = quantize_along(&b, TensorFormat::MX6, Axis::Col);
        assert_eq!(y, aq.matmul(&bq));
        // And it differs from the unquantized product.
        assert_ne!(y, a.matmul(&b));
    }

    #[test]
    fn quantized_matmul_routes_through_code_domain_gemm() {
        use mx_core::gemm;
        // Multi-block K: the result is the integer-domain GEMM output
        // (bit-identical to the blocked dequantize reference).
        let (m, k, n) = (3, 40, 5);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.19).sin()).collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.23).cos()).collect(),
            &[k, n],
        );
        for (fa, fb) in [
            (BdrFormat::MX6, BdrFormat::MX6),
            (BdrFormat::MX9, BdrFormat::MX4),
        ] {
            let y = quantized_matmul_ab(&a, &b, TensorFormat::Bdr(fa), TensorFormat::Bdr(fb));
            let want = gemm::reference_gemm(a.data(), b.data(), m, k, n, fa, fb);
            assert!(
                y.data()
                    .iter()
                    .zip(want.iter())
                    .all(|(x, w)| x.to_bits() == w.to_bits()),
                "{fa}/{fb}"
            );
        }
    }

    #[test]
    fn quantized_matmul_3d_lhs_keeps_leading_dims() {
        let a = Tensor::from_vec(
            (0..2 * 2 * 24).map(|i| (i as f32 * 0.11).sin()).collect(),
            &[2, 2, 24],
        );
        let b = Tensor::from_vec(
            (0..24 * 3).map(|i| (i as f32 * 0.07).cos()).collect(),
            &[24, 3],
        );
        let y = quantized_matmul(&a, &b, TensorFormat::MX9);
        assert_eq!(y.shape(), &[2, 2, 3]);
    }

    #[test]
    fn narrow_formats_add_more_noise() {
        let a = Tensor::from_vec(
            (0..256).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[16, 16],
        );
        let b = Tensor::from_vec(
            (0..256).map(|i| (i as f32 * 0.29).cos()).collect(),
            &[16, 16],
        );
        let exact = a.matmul(&b);
        let err = |fmt| {
            let y = quantized_matmul(&a, &b, TensorFormat::Bdr(fmt));
            y.sub(&exact).sq_norm()
        };
        let e9 = err(BdrFormat::MX9);
        let e6 = err(BdrFormat::MX6);
        let e4 = err(BdrFormat::MX4);
        assert!(e9 < e6 && e6 < e4, "{e9} {e6} {e4}");
    }

    #[test]
    fn weight_plane_cache_hits_and_invalidates() {
        let (m, k, n) = (3, 40, 5);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.19).sin()).collect(),
            &[m, k],
        );
        let mut b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.23).cos()).collect(),
            &[k, n],
        );
        assert_eq!(b.cached_plane_generation(), None, "cold before first use");
        let y1 = quantized_matmul(&a, &b, TensorFormat::MX6);
        assert_eq!(
            b.cached_plane_generation(),
            Some(b.generation()),
            "warm after first use"
        );
        // Second call hits the cache and is bit-identical.
        let y2 = quantized_matmul(&a, &b, TensorFormat::MX6);
        assert_eq!(y1, y2);
        // Same weight format under a different activation format reuses
        // the plane (the codes depend only on the weight format) and is
        // still bit-exact against the uncached reference for that pair.
        let y_mixed = quantized_matmul_ab(&a, &b, TensorFormat::MX9, TensorFormat::MX6);
        let (f9, f6) = (BdrFormat::MX9, BdrFormat::MX6);
        let want_mixed = gemm::reference_gemm(a.data(), b.data(), m, k, n, f9, f6);
        assert!(y_mixed
            .data()
            .iter()
            .zip(want_mixed.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        // A different *weight* format replaces the entry (still correct).
        let y9 = quantized_matmul(&a, &b, TensorFormat::MX9);
        let want9 = gemm::reference_gemm(a.data(), b.data(), m, k, n, f9, f9);
        assert_eq!(y9.data(), &want9[..]);
        // Clones do not share the slot: a clone starts cold (one repack at
        // worst) rather than thrashing a shared one-entry cache once the
        // copies diverge.
        let b_clone = b.clone();
        assert_eq!(b_clone.cached_plane_generation(), None);
        assert!(b.cached_plane_generation().is_some());
        // Mutating the weights invalidates: the stored stamp goes stale ...
        let stamp = b.cached_plane_generation().unwrap();
        b.data_mut()[0] += 1.0;
        assert_ne!(b.cached_plane_generation(), Some(b.generation()));
        assert_eq!(
            b.cached_plane_generation(),
            Some(stamp),
            "entry not yet replaced"
        );
        // ... and the next product repacks from the new values,
        // bit-identical to the uncached reference.
        let y3 = quantized_matmul(&a, &b, TensorFormat::MX6);
        let want = gemm::reference_gemm(a.data(), b.data(), m, k, n, f6, f6);
        assert!(y3
            .data()
            .iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_ne!(y3, y1);
    }

    #[test]
    fn plane_cache_keeps_one_plane_per_weight_format() {
        let (m, k, n) = (2, 32, 4);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.31).sin()).collect(),
            &[m, k],
        );
        let mut b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.27).cos()).collect(),
            &[k, n],
        );
        assert_eq!(b.cached_plane_count(), 0);
        let y6 = quantized_matmul(&a, &b, TensorFormat::MX6);
        let y9 = quantized_matmul(&a, &b, TensorFormat::MX9);
        assert_eq!(b.cached_plane_count(), 2, "MX6 and MX9 planes must coexist");
        // Re-running either format hits its own plane (bit-identical) and
        // the count stays put — no thrash between formats. The hit counter
        // is process-wide (parallel tests inflate it), so assert the ≥
        // direction only; "no repack of *this* tensor" is proven by the
        // stable generation stamp and entry count instead.
        let stamp = b.cached_plane_generation();
        let (h0, _) = plane_cache_counters();
        assert_eq!(quantized_matmul(&a, &b, TensorFormat::MX6), y6);
        assert_eq!(quantized_matmul(&a, &b, TensorFormat::MX9), y9);
        let (h1, _) = plane_cache_counters();
        assert!(h1 >= h0 + 2, "both lookups must hit ({h0} -> {h1})");
        assert_eq!(b.cached_plane_count(), 2);
        assert_eq!(b.cached_plane_generation(), stamp, "no repack, no evict");
        // Mutation drops every format's plane at the next lookup.
        b.data_mut()[0] += 1.0;
        let _ = quantized_matmul(&a, &b, TensorFormat::MX6);
        assert_eq!(b.cached_plane_count(), 1, "stale planes must be purged");
    }

    #[test]
    fn display() {
        let cfg = QuantConfig::uniform(TensorFormat::MX9);
        assert_eq!(cfg.to_string(), "fwd=MX9 fwd_w=MX9 bwd=MX9 elem=FP32");
        // Table IV-style (w, a) configs with different weight formats must
        // not print identically.
        let w4a6 = QuantConfig::weights_activations(TensorFormat::MX4, TensorFormat::MX6);
        let w9a6 = QuantConfig::weights_activations(TensorFormat::MX9, TensorFormat::MX6);
        assert_eq!(w4a6.to_string(), "fwd=MX6 fwd_w=MX4 bwd=FP32 elem=FP32");
        assert_ne!(w4a6.to_string(), w9a6.to_string());
    }
}
