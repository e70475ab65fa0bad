//! Integer-domain quantized GEMM fused with the quantization engine, split
//! into a **prepack / execute** architecture with a multi-backend kernel
//! dispatch layer.
//!
//! The point of the paper's Fig. 8 compute flow is that a BDR datapath never
//! multiplies wide floats: each operand element is a narrow sign/magnitude
//! *code*, each `k2`-sub-block carries a microexponent shift, and each
//! `k1`-block carries one shared exponent. A dot product over a block pair
//! is then
//!
//! 1. **shift alignment** — every code is left-shifted by `β − τ` (its
//!    sub-block's headroom under the maximum microexponent shift `β`),
//!    putting all magnitudes of the block on one fixed-point grid;
//! 2. **integer MACs** — the aligned codes multiply and accumulate in plain
//!    integer arithmetic (`i64` here, `i32` when the format pair is narrow
//!    enough to never overflow);
//! 3. **shared exponent add + scale-out** — the block-pair total `T` is
//!    an exact integer in units of `2^(E_a + E_b + c)`, where `E_a`/`E_b`
//!    are the two shared exponents and
//!    `c = −(m_a − 1) − β_a − (m_b − 1) − β_b` accounts for the mantissa
//!    binary points and the alignment shifts; an `f32` scale-out converts
//!    integer totals back to floats — once per block pair in the baseline
//!    kernels, and once per whole K reduction where **deferred scale-out**
//!    proves that exact (see below).
//!
//! # Prepack / execute
//!
//! Lowering an operand to shift-aligned codes (the *pack*) is the only part
//! of the pipeline that touches `f32` data — it runs the engine's block plan
//! and rounding rule per element. For inference the weight operand is
//! static, so that cost is pure waste when paid per call. The module
//! therefore separates the two stages:
//!
//! - [`PackedOperand::pack_cols`] lowers the weight operand **once** to a
//!   reusable code plane (through the engine's single-pass block lowering
//!   — the same plan and rounding rule as
//!   [`crate::engine::QuantEngine::quantize_block_codes`]);
//!   [`PackedOperand::pack_rows`] lowers an activation operand the same
//!   way, as a standalone measure of the lowering cost;
//! - [`quantized_gemm_prepacked_scratch`] — the one execute entry —
//!   multiplies fresh activations against a prepacked weight plane,
//!   quantizing only the A side, inside the execute loop (below);
//! - [`quantized_gemm`] is a thin wrapper that packs B ad hoc and calls
//!   the execute entry.
//!
//! `mx-nn` caches the weight-side [`PackedOperand`] on the tensor itself
//! (keyed by format pair and invalidated through a generation counter on
//! the tensor's data), so repeated forward passes skip B-side lowering
//! entirely — see `mx_nn::qflow` for the invalidation contract. The
//! `inference_steady_state` bench group measures the amortization.
//!
//! # Kernel backends
//!
//! The execute stage runs on one of three interchangeable **backends** —
//! portable scalar, AVX2, and AVX-512, each its own submodule behind the
//! span-kernel function-pointer seam in [`backend`] (where the full
//! dispatch contract is documented). Selection is automatic (best the CPU
//! supports), overridable with the `MX_KERNEL_BACKEND` env knob or
//! [`force_kernel_backend`], and reported by [`kernel_backend_name`].
//! Backends differ only in traversal and ISA — every one is bit-identical
//! to the others and to [`reference_gemm`], so the choice is a pure
//! performance knob.
//!
//! The panel backends (generation-2 AVX2, generation-3 AVX-512)
//! additionally apply **deferred scale-out**: where the block-plan
//! exponent metadata proves the per-block `f32` accumulation chain exact
//! (see [`backend::defer_ctx`] for the headroom invariant), the integer
//! dots of all K blocks accumulate in registers and the scale-out runs
//! once per output element instead of once per block pair. The invariant
//! is lane-width independent — the `blocks · Dmax ≤ 2²⁴` bound protects
//! the `f32` mantissa, not any SIMD register — so widening from AVX2's
//! 8-lane to AVX-512's 16-lane `i32` accumulation (and to VNNI's fused
//! multiply-add) only *loosens* each lane's integer headroom
//! (`defer_ctx` documents the per-backend derivation). Elements that
//! cannot be proven exact fall back to the per-block chain — deferral
//! never changes results, and [`force_deferred_scale_out`] switches it off
//! wholesale for in-process A/B measurement.
//!
//! # Fused activation lowering (pack-on-the-fly)
//!
//! With B amortized, the remaining per-call quantization cost is the A
//! (activation) side. [`quantized_gemm_prepacked_scratch`] quantizes A one
//! row strip at a time *inside* the execute loop, through the engine's
//! tile-granular block-lowering entry, into a small scratch tile ring
//! ([`PackScratch`]) that the same kernels consume immediately. The
//! strip's codes never leave L1, the full A plane is never materialized,
//! and the per-sub-block ulp reciprocal is hoisted out of the element
//! loop — this is the paper's Fig. 8 compute flow, where quantization is a
//! pipeline stage of the consuming dot-product datapath rather than a
//! separate kernel. Every caller — `mx-nn`'s `quantized_matmul_ab`, the
//! compiled plans, and through them the whole `mx-serve` batch path and
//! training — runs this one strategy at every `m`. The format gate stays
//! [`pair_class`]-driven: it decides *whether* the code domain applies,
//! never *how* A is lowered.
//!
//! # Exactness
//!
//! For every supported format pair (see [`code_domain_supported`]) the
//! integer path is **bit-identical** to the quantize → dequantize → `f32`
//! matmul reference ([`reference_gemm`]): dequantized values are exact
//! integer multiples of their block's ulp, block-pair products and sums fit
//! in the 52-bit exact-integer range of `f64`, and both paths round once
//! per block pair before accumulating in `f32` in the same K-block order —
//! with deferred scale-out applied only where that chain provably never
//! rounds at all. This is an equality, not a tolerance — the consistency,
//! `gemm_fused`, and `gemm_backends` suites assert it bit for bit, prepacked
//! or not, on every backend and thread count.
//!
//! # Examples
//!
//! ```
//! use mx_core::bdr::BdrFormat;
//! use mx_core::gemm::{
//!     quantized_gemm, quantized_gemm_prepacked_scratch, PackScratch, PackedOperand,
//! };
//!
//! let fmt = BdrFormat::MX6;
//! let b: Vec<f32> = (0..32 * 3).map(|i| (i as f32 * 0.13).cos()).collect();
//! // Pack the static operand once ...
//! let pb = PackedOperand::pack_cols(&b, 32, 3, fmt, fmt).unwrap();
//! let mut scratch = PackScratch::new();
//! // ... and reuse it across calls with fresh activations.
//! for step in 0..3 {
//!     let a: Vec<f32> = (0..2 * 32).map(|i| ((i + step) as f32 * 0.17).sin()).collect();
//!     let y = quantized_gemm_prepacked_scratch(&a, 2, fmt, &pb, 1, &mut scratch).unwrap();
//!     assert_eq!(y, quantized_gemm(&a, &b, 2, 32, 3, fmt, fmt, 1).unwrap());
//! }
//! ```

use crate::bdr::BdrFormat;
use crate::engine::{self, QuantEngine, PARALLEL_GRAIN};
use crate::parallel;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod backend;
mod pack;
mod scalar;

pub use backend::{
    deferred_scale_out_enabled, force_deferred_scale_out, force_kernel_backend, force_vnni,
    kernel_backend_name, selected_backend, BackendUnavailable, KernelBackend,
};
pub use pack::{PackScratch, PackedOperand};

use backend::SpanKernel;
use pack::{Plane, PlaneView, StripRing, MIXED_EXP};

/// Rows of A processed per tile: each loaded B column-block is reused for
/// this many output rows, cutting B-code traffic by the tile height.
const TILE_M: usize = 8;

/// Columns per register-blocked panel in the panel-major B layout the AVX2
/// kernels consume (see [`PackedOperand::pack_cols`]): one panel's codes
/// for the whole reduction are contiguous, and 8 columns is what fits in
/// `i32` accumulator registers with room for the operands.
const PANEL_N: usize = 8;

/// Columns per panel in the chunk-paired panel-major B layout the AVX-512
/// kernel consumes. Four columns — half the AVX2 width — because the
/// kernel's depth doubled instead: each column's step is a 32-code chunk
/// (two `k1`-blocks in one 512-bit load), and a 4-column panel is
/// exactly what a 4-row group's 16 `zmm` accumulators cover while the
/// panel's codes stream strictly sequentially (a wider panel would be
/// walked in strided column-group passes, which measurably starves the
/// prefetcher). Doubles as the layout tag in `PackedOperand::panel_n`
/// (see [`pack::panel_slot`] for the slot order).
const PANEL_N_512: usize = 4;

/// How a supported format pair runs on the integer path: `Narrow` pairs use
/// `i16` codes with an `i32` block accumulator (the packed 16-bit MAC
/// datapath), `Wide` pairs fall back to `i32` codes with an `i64`
/// accumulator. This classification — together with the `None` rejection in
/// [`pair_class`] — is the **single** gate deciding between the code-domain
/// kernels and the dequantize fallback; every dispatch and packing decision
/// derives from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairClass {
    Narrow,
    Wide,
}

/// The one place exotic-format fallback is decided. Returns the kernel
/// class for a supported `(fa, fb)` pair, or `None` when the pair must take
/// the dequantize path. Requirements for support:
///
/// - matching first-level block size (`k1`), so A-row and B-column blocks
///   tile the reduction dimension identically;
/// - per operand, `m + β ≤ 30`: shift-aligned codes fit an `i32`;
/// - `(m_a + β_a) + (m_b + β_b) + ⌈log2 k1⌉ ≤ 52`: block-pair dot products
///   accumulate without `i64` overflow *and* convert to `f64` exactly;
/// - per operand, the smallest representable ulp stays at or above `2^-149`,
///   so dequantized values are exact `f32`s and the dequantize reference
///   sees the same numbers the codes encode.
fn pair_class(fa: &BdrFormat, fb: &BdrFormat) -> Option<PairClass> {
    if fa.k1() != fb.k1() {
        return None;
    }
    let wa = fa.m() + fa.max_shift();
    let wb = fb.m() + fb.max_shift();
    if wa > 30 || wb > 30 {
        return None;
    }
    if wa + wb + ceil_log2(fa.k1()) > 52 {
        return None;
    }
    if !exact_dequantize(fa) || !exact_dequantize(fb) {
        return None;
    }
    if wa <= 15 && wb <= 15 && wa + wb + ceil_log2(fa.k1()) <= 31 {
        Some(PairClass::Narrow)
    } else {
        Some(PairClass::Wide)
    }
}

/// Whether the `(fa, fb)` operand pair can run on the integer code-domain
/// path with an exactness guarantee (see [`pair_class`]'s requirement list;
/// this is its boolean view).
///
/// Every preset in the repository (MX4/MX6/MX9, MSFP12/MSFP16) qualifies;
/// exotic custom formats fall back to the dequantize path.
///
/// # Examples
///
/// ```
/// use mx_core::bdr::BdrFormat;
/// use mx_core::gemm::code_domain_supported;
///
/// // All MX/MSFP presets qualify, in any combination.
/// assert!(code_domain_supported(&BdrFormat::MX6, &BdrFormat::MX9));
/// assert!(code_domain_supported(&BdrFormat::MSFP12, &BdrFormat::MX4));
/// // Mismatched block sizes cannot tile K identically: rejected.
/// let k32 = BdrFormat::new(4, 8, 1, 32, 2).unwrap();
/// assert!(!code_domain_supported(&BdrFormat::MX6, &k32));
/// ```
pub fn code_domain_supported(fa: &BdrFormat, fb: &BdrFormat) -> bool {
    pair_class(fa, fb).is_some()
}

/// The format's smallest ulp (`2^(E_min − β − (m − 1))`) is representable in
/// `f32` subnormal space, so every code dequantizes to an exact `f32`.
fn exact_dequantize(fmt: &BdrFormat) -> bool {
    fmt.min_shared_exp() - fmt.max_shift() as i32 - (fmt.m() as i32 - 1) >= -149
}

fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n > 0);
    usize::BITS - (n - 1).leading_zeros()
}

/// This operand's half of the scale-out constant `c`: `−(m − 1) − β`.
fn c_half(fmt: &BdrFormat) -> i32 {
    -((fmt.m() as i32 - 1) + fmt.max_shift() as i32)
}

/// Storage type for shift-aligned signed codes. Narrow format pairs (every
/// MX/MSFP preset) use `i16`, whose widening multiply-accumulate maps onto
/// the CPU's packed 16-bit MAC instructions; wide pairs fall back to `i32`
/// codes with an `i64` accumulator. The storage width itself (and the
/// lossless narrowing from aligned `i32` codes, guaranteed to fit by the
/// [`pair_class`] width gates) lives in [`engine::AlignedCode`], which the
/// engine's tile-granular lowering writes directly.
trait Code: engine::AlignedCode {
    /// Exact integer dot product of two equal-length blocks in portable
    /// Rust — the block dot of the scalar kernel.
    fn dot(a: &[Self], b: &[Self]) -> i64;
}

impl Code for i16 {
    #[inline(always)]
    fn dot(a: &[Self], b: &[Self]) -> i64 {
        // The i32 accumulator cannot overflow: pairwise i16 products are
        // below 2^31 because `w_a + w_b ≤ 30`, and the block total is
        // bounded by the `w_a + w_b + ⌈log2 k1⌉ ≤ 31` dispatch gate.
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b.iter()) {
            acc += i32::from(x) * i32::from(y);
        }
        acc as i64
    }
}

impl Code for i32 {
    #[inline(always)]
    fn dot(a: &[Self], b: &[Self]) -> i64 {
        let mut acc = 0i64;
        for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            let mut lane = 0i64;
            for e in 0..8 {
                lane += i64::from(ca[e]) * i64::from(cb[e]);
            }
            acc += lane;
        }
        let (ra, rb) = (a.chunks_exact(8).remainder(), b.chunks_exact(8).remainder());
        for (&x, &y) in ra.iter().zip(rb.iter()) {
            acc += i64::from(x) * i64::from(y);
        }
        acc
    }
}

/// Which GEMM operand a [`PackedOperand`] holds: A packs its **rows** along
/// the reduction dimension, B packs its **columns**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left operand `A[M,K]`, one code vector per row.
    Rows,
    /// The right operand `B[K,N]`, one code vector per column.
    Cols,
}

/// Per-GEMM deferred-scale-out context, built by [`backend::defer_ctx`]
/// (which documents the exactness invariant): whether the static headroom
/// bound holds for this format pair and block count, and the exponent grid
/// window an output element's `E_a + E_b` must land in to defer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeferCtx {
    pub(crate) enabled: bool,
    pub(crate) e_lo: i32,
    pub(crate) e_hi: i32,
}

/// Panel width a B-side pack of this block size should use under the
/// currently selected backend: [`PANEL_N_512`] for the AVX-512 kernel,
/// [`PANEL_N`] for AVX2, `0` (vector-major) otherwise — each panel layout
/// exists only for the backend whose kernels consume it.
#[cfg(target_arch = "x86_64")]
fn panel_layout(k1: usize) -> usize {
    match selected_backend() {
        KernelBackend::Avx512 if k1 == avx512::K1 => PANEL_N_512,
        KernelBackend::Avx2 if k1 == avx2::K1 => PANEL_N,
        _ => 0,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn panel_layout(_k1: usize) -> usize {
    0
}

/// Runs `kernel(start_row, rows, out_span)` over row spans of the `m × n`
/// output, serially or on `workers` threads. Each span writes its own
/// disjoint rows of `out` in place — the first span on the calling thread,
/// every other on a scoped thread — and spans are whole rows, so the
/// output is bit-identical either way. Shared with the blocked FP32 kernel
/// in [`crate::fgemm`].
pub(crate) fn dispatch_rows(
    m: usize,
    n: usize,
    workers: usize,
    out: &mut [f32],
    kernel: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    if n == 0 {
        return;
    }
    parallel::for_each_span_at(&mut out[..m * n], n, workers, |at, part| {
        kernel(at / n, part.len() / n, part);
    });
}

/// Worker count for an `m × n × k` GEMM under a `threads` budget (`0` = all
/// cores): the same grain policy as the engine's kernels — every worker
/// must receive at least [`PARALLEL_GRAIN`] multiply-accumulates, so a
/// small layer never pays scoped-thread spawn cost for microseconds of
/// work. Shared with [`crate::fgemm`].
pub(crate) fn gemm_workers(m: usize, n: usize, k: usize, threads: usize) -> usize {
    let threads = if threads == 0 {
        parallel::default_threads()
    } else {
        threads
    };
    let macs = m.saturating_mul(n).saturating_mul(k);
    if threads <= 1 || macs < 2 * PARALLEL_GRAIN {
        1
    } else {
        threads.min(m).min(macs / PARALLEL_GRAIN).max(1)
    }
}

/// Activation rows quantized per strip of the fused loop. Strips are as
/// tall as a coalesced serving micro-batch, so the kernel sees the widest
/// row span it can block over — the kernel's own row tiling (not the strip
/// height) decides how often the B plane is re-streamed — while a strip's
/// codes (≈ 32 KiB at `K = 512`) still stay cache-hot between lowering and
/// consumption.
const STRIP_M: usize = 32;

/// Everything one fused GEMM shares across its row spans: the activation
/// operand, the execute geometry, and the deferral context.
struct FusedGemm<'a> {
    a: &'a [f32],
    k: usize,
    n: usize,
    fa: &'a BdrFormat,
    c: i32,
    ctx: DeferCtx,
}

impl FusedGemm<'_> {
    /// Runs [`Self::span`] over all `m` rows, serially through the
    /// caller's tile ring, or row-parallel with a small ring per span (at
    /// most [`STRIP_M`] rows each), every span writing its own rows of the
    /// output in place. Spans are whole rows, so the output is
    /// bit-identical either way.
    fn run<C: Code>(
        &self,
        m: usize,
        workers: usize,
        bp: PlaneView<'_, C>,
        ring: &mut StripRing<C>,
        kernel: SpanKernel<C>,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * self.n];
        if m == 0 || self.n == 0 || self.k == 0 {
            return out;
        }
        if workers <= 1 {
            self.span(bp, 0, m, ring, &mut out, kernel);
        } else {
            dispatch_rows(m, self.n, workers, &mut out, |r0, rows, part| {
                self.span(bp, r0, rows, &mut StripRing::default(), part, kernel);
            });
        }
        out
    }

    /// The fused inner loop over output rows `r0 .. r0 + rows`: for each
    /// strip of up to [`STRIP_M`] rows, lower the strip's A rows block by
    /// block through [`engine::lower_block_into`] into the tile ring
    /// (reused across strips), then execute `kernel` over the freshly
    /// quantized strip against the cached B plane. The per-row
    /// uniform-exponent metadata the deferral decision needs is collected
    /// during lowering, so the fused strips see the same [`DeferCtx`]
    /// coverage as a prepacked plane. Per output element the K-block loop
    /// order, rounding points, and accumulation are those of
    /// [`reference_gemm`], so the result is bit-identical to it.
    fn span<C: Code>(
        &self,
        bp: PlaneView<'_, C>,
        r0: usize,
        rows: usize,
        ring: &mut StripRing<C>,
        out: &mut [f32],
        kernel: SpanKernel<C>,
    ) {
        let (k, n, fa) = (self.k, self.n, self.fa);
        let k1 = fa.k1();
        let blocks = blocks_of(k, fa);
        let ring_rows = STRIP_M.min(rows);
        ring.codes.clear();
        ring.codes.resize(ring_rows * blocks * k1, C::ZERO);
        ring.exps.clear();
        ring.exps.resize(ring_rows * blocks, 0);
        ring.uexp.clear();
        ring.uexp.resize(ring_rows, 0);
        let mut i0 = 0;
        while i0 < rows {
            let tm = ring_rows.min(rows - i0);
            for t in 0..tm {
                let row = &self.a[(r0 + i0 + t) * k..][..k];
                let slot0 = t * blocks;
                let mut seen: Option<i32> = None;
                let mut mixed = false;
                for kb in 0..blocks {
                    let start = kb * k1;
                    let blen = k1.min(k - start);
                    // `lower_block_into` writes every slot of its block
                    // (zeroing the ragged tail and all-zero blocks), so the
                    // ring needs no per-strip clear.
                    let e = engine::lower_block_into(
                        fa,
                        &row[start..start + blen],
                        &mut ring.shifts,
                        &mut ring.codes[(slot0 + kb) * k1..][..k1],
                    );
                    ring.exps[slot0 + kb] = e.unwrap_or(0);
                    if let Some(e) = e {
                        match seen {
                            None => seen = Some(e),
                            Some(u) if u != e => mixed = true,
                            _ => {}
                        }
                    }
                }
                ring.uexp[t] = if mixed { MIXED_EXP } else { seen.unwrap_or(0) };
            }
            let ap = PlaneView {
                codes: &ring.codes,
                exps: &ring.exps,
                uexp: &ring.uexp,
                blocks,
                k1,
            };
            let part = &mut out[i0 * n..][..tm * n];
            kernel(ap, tm, bp, n, self.c, self.ctx, part);
            i0 += tm;
        }
    }
}

/// Quantized matrix product `A[m,k] × B[k,n]` against a **prepacked** B
/// operand — the execute entry every caller runs. Only A is quantized,
/// one row strip at a time *inside* the execute loop (pack-on-the-fly, see
/// the module docs): each strip is lowered into `scratch`'s tile ring and
/// consumed immediately by the integer kernels, so the A code plane is
/// never materialized and a steady-state call allocates nothing for the
/// activation side. Weights are static, so their [`PackedOperand`] is
/// built once and reused across forward passes.
///
/// `threads` follows [`quantized_gemm`]'s convention (`0` = all cores; the
/// row split is whole rows, so the result is bit-identical regardless of
/// thread count). Bit-identical to [`reference_gemm`] for every supported
/// pairing.
///
/// Returns `None` exactly when `packed_b` does not
/// [`accept`](PackedOperand::accepts) `fa`: it is not a [`Side::Cols`]
/// plane, the `(fa, packed_b.format())` pair is unsupported, or that pair
/// needs a different code width than `packed_b` holds (it was packed for a
/// partner in the other kernel class). The rejection does not depend on
/// the shape: it holds at degenerate dims too.
///
/// # Panics
///
/// Panics if `a.len() != m · packed_b.k()`.
///
/// # Examples
///
/// ```
/// use mx_core::bdr::BdrFormat;
/// use mx_core::gemm::{quantized_gemm_prepacked_scratch, reference_gemm, PackScratch, PackedOperand};
///
/// let fmt = BdrFormat::MX6;
/// let b: Vec<f32> = (0..48 * 5).map(|i| (i as f32 * 0.11).cos()).collect();
/// let pb = PackedOperand::pack_cols(&b, 48, 5, fmt, fmt).unwrap();
/// let mut scratch = PackScratch::new();
/// for m in [1, 33] {
///     let a: Vec<f32> = (0..m * 48).map(|i| (i as f32 * 0.23).sin()).collect();
///     let y = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, 1, &mut scratch).unwrap();
///     // Same plan, same rounding, same order as the dequantize reference.
///     let want = reference_gemm(&a, &b, m, 48, 5, fmt, fmt);
///     assert!(y.iter().zip(&want).all(|(x, w)| x.to_bits() == w.to_bits()));
/// }
/// ```
pub fn quantized_gemm_prepacked_scratch(
    a: &[f32],
    m: usize,
    fa: BdrFormat,
    packed_b: &PackedOperand,
    threads: usize,
    scratch: &mut PackScratch,
) -> Option<Vec<f32>> {
    if !packed_b.accepts(&fa) {
        return None;
    }
    let (k, n) = (packed_b.len, packed_b.vectors);
    assert_eq!(a.len(), m * k, "A is not {m}x{k}");
    let c = c_half(&fa) + packed_b.c_half;
    let gemm = FusedGemm {
        a,
        k,
        n,
        fa: &fa,
        c,
        ctx: backend::defer_ctx(&fa, &packed_b.fmt, blocks_of(k, &fa), c),
    };
    let workers = gemm_workers(m, n, k, threads);
    Some(match &packed_b.plane {
        Plane::Narrow(bp) => gemm.run(
            m,
            workers,
            bp.view(),
            &mut scratch.narrow,
            backend::narrow_span_kernel(packed_b.panel_n),
        ),
        Plane::Wide(bp) => gemm.run(
            m,
            workers,
            bp.view(),
            &mut scratch.wide,
            backend::wide_span_kernel(),
        ),
    })
}

/// Block count per vector of a `len`-long reduction in `fmt`.
fn blocks_of(len: usize, fmt: &BdrFormat) -> usize {
    len.div_ceil(fmt.k1())
}

/// Quantized matrix product `A[m,k] × B[k,n]` computed entirely in the
/// integer code domain (see the module docs for the datapath mapping).
///
/// A thin wrapper over the prepack/execute split that packs B ad hoc:
/// B's columns are quantized to aligned integer codes once per call, then
/// [`quantized_gemm_prepacked_scratch`] quantizes A's rows inside the
/// execute loop and dispatches row-parallel across `threads` workers
/// (`0` = all cores; the split is whole rows, so the result is
/// bit-identical regardless of thread count). Callers with a static B
/// should pack it once with [`PackedOperand::pack_cols`] and call
/// [`quantized_gemm_prepacked_scratch`] instead.
///
/// Returns `None` when [`code_domain_supported`] rejects the format pair —
/// callers fall back to the dequantize path.
///
/// # Panics
///
/// Panics if `a.len() != m·k` or `b.len() != k·n`.
#[allow(clippy::too_many_arguments)] // a GEMM is dims + operands + formats
pub fn quantized_gemm(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    fa: BdrFormat,
    fb: BdrFormat,
    threads: usize,
) -> Option<Vec<f32>> {
    if !code_domain_supported(&fa, &fb) {
        return None;
    }
    assert_eq!(a.len(), m * k, "A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "B is not {k}x{n}");
    let pb = PackedOperand::pack_cols(b, k, n, fa, fb).expect("pair gated above");
    quantized_gemm_prepacked_scratch(a, m, fa, &pb, threads, &mut PackScratch::new())
}

/// The quantize → dequantize → `f32` matmul reference the code-domain path
/// is proven against: A's rows and B's columns are fake-quantized through
/// the engine's strided kernels, then multiplied block by block — each
/// `k1`-block pair's products summed exactly in `f64`, rounded to `f32`
/// once, and accumulated across K blocks in `f32`, the same order and
/// rounding points as [`quantized_gemm`].
///
/// # Panics
///
/// Panics if the operand lengths disagree with `m·k` / `k·n`, or if the two
/// formats have different `k1` (the block tilings would not line up).
///
/// # Examples
///
/// ```
/// use mx_core::bdr::BdrFormat;
/// use mx_core::gemm::{quantized_gemm, reference_gemm};
///
/// let fmt = BdrFormat::MX9;
/// let a: Vec<f32> = (0..3 * 40).map(|i| (i as f32 * 0.19).sin()).collect();
/// let b: Vec<f32> = (0..40 * 2).map(|i| (i as f32 * 0.23).cos()).collect();
/// let want = reference_gemm(&a, &b, 3, 40, 2, fmt, fmt);
/// // The integer code-domain path reproduces the reference bit for bit.
/// assert_eq!(quantized_gemm(&a, &b, 3, 40, 2, fmt, fmt, 1).unwrap(), want);
/// ```
pub fn reference_gemm(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    fa: BdrFormat,
    fb: BdrFormat,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "B is not {k}x{n}");
    assert_eq!(fa.k1(), fb.k1(), "mismatched block sizes");
    let mut aq = a.to_vec();
    let mut bq = b.to_vec();
    if !aq.is_empty() {
        QuantEngine::new(fa).quantize_dequantize_rows(&mut aq, k);
    }
    if !bq.is_empty() {
        QuantEngine::new(fb).quantize_dequantize_cols(&mut bq, n);
    }
    let k1 = fa.k1();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k0 in (0..k).step_by(k1) {
                let blen = k1.min(k - k0);
                let mut s = 0.0f64;
                for p in k0..k0 + blen {
                    s += aq[i * k + p] as f64 * bq[p * n + j] as f64;
                }
                acc += s as f32;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i.wrapping_mul(37).wrapping_add(salt * 13) % 101) as f32 - 50.0) * 0.037)
            .collect()
    }

    /// The execute entry with a fresh scratch.
    fn prepacked(
        a: &[f32],
        m: usize,
        fa: BdrFormat,
        pb: &PackedOperand,
        threads: usize,
    ) -> Option<Vec<f32>> {
        quantized_gemm_prepacked_scratch(a, m, fa, pb, threads, &mut PackScratch::new())
    }

    /// A wide-but-supported custom format: `m + β = 16 > 15` forces the
    /// `i32` code plane while every support requirement still holds.
    fn wide_fmt() -> BdrFormat {
        let fmt = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
        assert_eq!(pair_class(&fmt, &fmt), Some(PairClass::Wide));
        fmt
    }

    #[test]
    fn presets_are_supported() {
        for fa in [
            BdrFormat::MX4,
            BdrFormat::MX6,
            BdrFormat::MX9,
            BdrFormat::MSFP12,
            BdrFormat::MSFP16,
        ] {
            for fb in [BdrFormat::MX4, BdrFormat::MX9, BdrFormat::MSFP16] {
                assert_eq!(pair_class(&fa, &fb), Some(PairClass::Narrow), "{fa} x {fb}");
            }
        }
    }

    #[test]
    fn unsupported_pairs_are_rejected() {
        // Mismatched k1.
        let k32 = BdrFormat::new(4, 8, 1, 32, 2).unwrap();
        assert!(!code_domain_supported(&BdrFormat::MX6, &k32));
        assert!(quantized_gemm(&[0.0; 16], &[0.0; 16], 1, 16, 1, BdrFormat::MX6, k32, 1).is_none());
        assert!(PackedOperand::pack_cols(&[0.0; 16], 16, 1, BdrFormat::MX6, k32).is_none());
        // m + β too wide for an i32 aligned code.
        let wide = BdrFormat::new(23, 8, 4, 16, 2).unwrap();
        assert!(!code_domain_supported(&wide, &wide));
        // Ulp below f32's subnormal floor: dequantize would round.
        let deep = BdrFormat::new(20, 8, 4, 16, 2).unwrap();
        assert!(!exact_dequantize(&deep));
    }

    #[test]
    fn matches_reference_exactly() {
        for fmt in [BdrFormat::MX4, BdrFormat::MX6, BdrFormat::MX9] {
            let (m, k, n) = (5, 48, 7);
            let a = ramp(m * k, 1);
            let b = ramp(k * n, 2);
            let got = quantized_gemm(&a, &b, m, k, n, fmt, fmt, 1).unwrap();
            let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
            assert!(
                got.iter()
                    .zip(want.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{fmt}"
            );
        }
    }

    #[test]
    fn mixed_format_operands() {
        let (m, k, n) = (3, 40, 4);
        let a = ramp(m * k, 3);
        let b = ramp(k * n, 4);
        let got = quantized_gemm(&a, &b, m, k, n, BdrFormat::MX9, BdrFormat::MX4, 1).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, BdrFormat::MX9, BdrFormat::MX4);
        assert_eq!(got, want);
    }

    #[test]
    fn prepacked_matches_ad_hoc_packing() {
        for (fa, fb) in [
            (BdrFormat::MX6, BdrFormat::MX6),
            (BdrFormat::MX9, BdrFormat::MX4),
            (BdrFormat::MSFP12, BdrFormat::MX6),
        ] {
            let (m, k, n) = (5, 40, 7); // ragged K tail
            let a = ramp(m * k, 21);
            let b = ramp(k * n, 22);
            let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
            let via_prepack = prepacked(&a, m, fa, &pb, 1).unwrap();
            let ad_hoc = quantized_gemm(&a, &b, m, k, n, fa, fb, 1).unwrap();
            assert!(
                via_prepack
                    .iter()
                    .zip(ad_hoc.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{fa}/{fb}"
            );
            // A prepacked B is reusable: a second call sees identical bits.
            let again = prepacked(&a, m, fa, &pb, 1).unwrap();
            assert_eq!(via_prepack, again);
        }
    }

    #[test]
    fn packed_pair_execute_matches_reference() {
        let fmt = BdrFormat::MX6;
        let (m, k, n) = (4, 48, 6);
        let a = ramp(m * k, 31);
        let b = ramp(k * n, 32);
        let pa = PackedOperand::pack_rows(&a, m, k, fmt, fmt).unwrap();
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        let got = prepacked(&a, m, fmt, &pb, 1).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
        assert!(got
            .iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        // `pack_rows` has no executor of its own, so pin it to the fused
        // lowering: for `m ≤ STRIP_M` the serial tile ring holds the whole
        // A side after the call, in the same vector-major layout.
        let mut scratch = PackScratch::new();
        quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, 1, &mut scratch).unwrap();
        let Plane::Narrow(ref rows) = pa.plane else {
            panic!("preset pair must pack narrow");
        };
        assert_eq!(rows.codes, scratch.narrow.codes);
        assert_eq!(rows.exps, scratch.narrow.exps);
        assert_eq!(rows.uexp, scratch.narrow.uexp);
        assert_eq!(pa.side(), Side::Rows);
        assert_eq!((pa.k(), pa.vectors()), (k, m));
        assert_eq!(pb.side(), Side::Cols);
        assert_eq!((pb.k(), pb.vectors()), (k, n));
        assert_eq!(pb.format(), fmt);
        assert!(pb.packed_bytes() > 0);
    }

    #[test]
    fn wide_format_pair_takes_i32_plane_and_matches_reference() {
        let fmt = wide_fmt();
        let (m, k, n) = (3, 40, 5);
        let a = ramp(m * k, 41);
        let b = ramp(k * n, 42);
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        assert!(matches!(pb.plane, Plane::Wide(_)));
        assert_eq!(pb.panel_n, 0);
        let got = prepacked(&a, m, fmt, &pb, 1).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
        assert!(got
            .iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn same_class_partner_swap_is_allowed_and_exact() {
        // Codes depend only on the operand's own format: a B plane packed
        // for an MX6 partner serves MX9 activations too (both pairs are
        // narrow), bit-identical to packing for MX9 directly.
        let (m, k, n) = (3, 40, 4);
        let a = ramp(m * k, 61);
        let b = ramp(k * n, 62);
        let pb_for_mx6 =
            PackedOperand::pack_cols(&b, k, n, BdrFormat::MX6, BdrFormat::MX4).unwrap();
        let got = prepacked(&a, m, BdrFormat::MX9, &pb_for_mx6, 1).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, BdrFormat::MX9, BdrFormat::MX4);
        assert!(got
            .iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn mismatched_packing_is_rejected_not_repacked() {
        let narrow = BdrFormat::MX6;
        let wide = wide_fmt();
        let (m, k, n) = (2, 16, 3);
        let a = ramp(m * k, 51);
        let b = ramp(k * n, 52);
        // B packed for a narrow partner cannot execute against a wide A.
        let pb = PackedOperand::pack_cols(&b, k, n, narrow, narrow).unwrap();
        assert!(prepacked(&a, m, wide, &pb, 1).is_none());
        // A Rows plane is not a valid B operand.
        let pa = PackedOperand::pack_rows(&a, m, k, narrow, narrow).unwrap();
        assert!(prepacked(&a, m, narrow, &pa, 1).is_none());
    }

    #[test]
    fn scratch_packing_is_bit_identical_and_reusable() {
        // One scratch serves alternating shapes, formats, and kernel
        // classes; every call is bit-identical to the allocating path.
        let mut scratch = PackScratch::new();
        let wide = wide_fmt();
        for (round, (fa, fb, m, k, n)) in [
            (BdrFormat::MX6, BdrFormat::MX6, 5, 40, 7),
            (BdrFormat::MX9, BdrFormat::MX4, 3, 48, 4),
            (wide, wide, 2, 40, 3),
            (BdrFormat::MX6, BdrFormat::MX6, 9, 16, 2),
        ]
        .into_iter()
        .enumerate()
        {
            let a = ramp(m * k, 70 + round);
            let b = ramp(k * n, 80 + round);
            let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
            let with_scratch =
                quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch).unwrap();
            let fresh = prepacked(&a, m, fa, &pb, 1).unwrap();
            assert!(
                with_scratch
                    .iter()
                    .zip(fresh.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{fa}/{fb} round {round}"
            );
        }
        // Class mismatch is still rejected, not silently repacked.
        let b = ramp(16 * 3, 90);
        let pb = PackedOperand::pack_cols(&b, 16, 3, BdrFormat::MX6, BdrFormat::MX6).unwrap();
        let a = ramp(2 * 16, 91);
        assert!(quantized_gemm_prepacked_scratch(&a, 2, wide, &pb, 1, &mut scratch).is_none());
    }

    #[test]
    fn single_block_matches_naive_f32_matmul() {
        // With K ≤ k1 every f32 partial sum is exact, so the code path, the
        // blocked reference, and a plain f32 triple loop all agree exactly.
        let fmt = BdrFormat::MX6;
        let (m, k, n) = (4, 16, 4);
        let a = ramp(m * k, 5);
        let b = ramp(k * n, 6);
        let got = quantized_gemm(&a, &b, m, k, n, fmt, fmt, 1).unwrap();
        let e = QuantEngine::new(fmt);
        let mut aq = a.clone();
        e.quantize_dequantize_rows(&mut aq, k);
        let mut bq = b.clone();
        e.quantize_dequantize_cols(&mut bq, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += aq[i * k + p] * bq[p * n + j];
                }
                assert_eq!(got[i * n + j], acc, "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_and_degenerate_dims() {
        let fmt = BdrFormat::MX6;
        assert_eq!(
            quantized_gemm(&[], &[], 0, 16, 0, fmt, fmt, 1).unwrap(),
            vec![]
        );
        let a = ramp(16, 7);
        assert_eq!(
            quantized_gemm(&a, &[], 1, 16, 0, fmt, fmt, 1).unwrap(),
            vec![]
        );
        // k = 0: all-zero output.
        assert_eq!(
            quantized_gemm(&[], &[], 2, 0, 3, fmt, fmt, 1).unwrap(),
            vec![0.0; 6]
        );
        // Degenerate dims through the prepacked entry points too.
        let pb = PackedOperand::pack_cols(&[], 0, 3, fmt, fmt).unwrap();
        assert_eq!(prepacked(&[], 2, fmt, &pb, 1).unwrap(), vec![0.0; 6]);
        let pb = PackedOperand::pack_cols(&[], 16, 0, fmt, fmt).unwrap();
        assert_eq!(prepacked(&a, 1, fmt, &pb, 1).unwrap(), vec![]);
    }

    #[test]
    fn zero_operand_gives_zero_output() {
        let fmt = BdrFormat::MX9;
        let a = vec![0.0f32; 3 * 33];
        let b = ramp(33 * 5, 9);
        let got = quantized_gemm(&a, &b, 3, 33, 5, fmt, fmt, 1).unwrap();
        assert!(got.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn parallel_dispatch_is_bit_identical() {
        let fmt = BdrFormat::MX6;
        // Large enough to cross the parallel work threshold.
        let (m, k, n) = (64, 96, 48);
        let a = ramp(m * k, 11);
        let b = ramp(k * n, 12);
        let serial = quantized_gemm(&a, &b, m, k, n, fmt, fmt, 1).unwrap();
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        for threads in [2usize, 3, 7, 0] {
            let par = quantized_gemm(&a, &b, m, k, n, fmt, fmt, threads).unwrap();
            assert!(
                serial
                    .iter()
                    .zip(par.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads}"
            );
            let pre = prepacked(&a, m, fmt, &pb, threads).unwrap();
            assert!(
                serial
                    .iter()
                    .zip(pre.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "prepacked threads={threads}"
            );
        }
    }

    #[test]
    fn ragged_row_splits_are_bit_identical() {
        // `k · n` is just over one parallel grain per row, so every m ≥ 2
        // splits: m < threads, a short last span (33 rows over 7 workers
        // is six spans of 5 and one of 3), and m = 1 (no thread spawned).
        let fmt = BdrFormat::MX6;
        let (k, n) = (160, 112);
        let b = ramp(k * n, 14);
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        for m in [1usize, 2, 3, 33] {
            let a = ramp(m * k, 13 + m);
            let serial = prepacked(&a, m, fmt, &pb, 1).unwrap();
            for threads in [2usize, 3, 7] {
                assert_eq!(gemm_workers(m, n, k, threads) > 1, m > 1, "m={m}");
                let par = prepacked(&a, m, fmt, &pb, threads).unwrap();
                assert!(
                    serial
                        .iter()
                        .zip(par.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "m={m} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn dispatch_rows_writes_each_row_once_in_place() {
        let n = 3;
        for m in [0usize, 1, 2, 3, 33] {
            for workers in [1usize, 2, 3, 7] {
                // One spare row past `m · n` must stay untouched.
                let mut out = vec![-1.0f32; (m + 1) * n];
                dispatch_rows(m, n, workers, &mut out, |r0, rows, part| {
                    assert_eq!(part.len(), rows * n);
                    for (i, v) in part.iter_mut().enumerate() {
                        *v += (r0 * n + i) as f32 + 1.0;
                    }
                });
                for (i, &v) in out.iter().enumerate() {
                    let want = if i < m * n { i as f32 } else { -1.0 };
                    assert_eq!(v, want, "m={m} workers={workers} slot {i}");
                }
            }
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(17), 5);
    }

    #[test]
    fn uniform_exponent_metadata_is_recorded() {
        // One column per uexp case: uniform nonzero, mixed, all-zero.
        let fmt = BdrFormat::MX6;
        let k = 32; // two blocks
        let mut b = vec![0.0f32; k * 3];
        for i in 0..k {
            b[i * 3] = 1.5; // both blocks share exponent 0
            b[i * 3 + 1] = if i < 16 { 1.5 } else { 100.0 }; // differing exponents
                                                             // column 2 stays all-zero
        }
        let pb = PackedOperand::pack_cols(&b, k, 3, fmt, fmt).unwrap();
        let Plane::Narrow(ref plane) = pb.plane else {
            panic!("preset pair must pack narrow");
        };
        assert_eq!(plane.uexp.len(), 3);
        assert_ne!(plane.uexp[0], MIXED_EXP);
        assert_eq!(plane.uexp[1], MIXED_EXP);
        assert_eq!(plane.uexp[2], 0);
    }

    #[test]
    fn forced_backends_and_deferral_match_reference() {
        // The in-module smoke version of the `gemm_backends` suite: every
        // backend × deferral on/off reproduces the reference bit for bit.
        // (Serialized against other tests by the env override being
        // process-wide: this is the only in-module test that touches it.)
        let fmt = BdrFormat::MX6;
        let (m, k, n) = (9, 80, 11);
        let a = ramp(m * k, 101);
        let b = ramp(k * n, 102);
        let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
        for backend in [
            KernelBackend::Scalar,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            for defer in [true, false] {
                if force_kernel_backend(Some(backend)).is_err() {
                    // This CPU lacks the ISA; the integration suite skips
                    // it the same way.
                    continue;
                }
                force_deferred_scale_out(Some(defer));
                let got = quantized_gemm(&a, &b, m, k, n, fmt, fmt, 1).unwrap();
                force_kernel_backend(None).unwrap();
                force_deferred_scale_out(None);
                assert!(
                    got.iter()
                        .zip(want.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "backend={} defer={defer}",
                    backend.name()
                );
            }
        }
    }
}
