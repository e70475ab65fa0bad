//! Operand lowering: code planes, the prepack entry points, and the
//! reusable scratch the fused activation strips lower into.
//!
//! Packing is the only stage of the integer GEMM that reads `f32` data.
//! Every pack in this module lowers blocks through the engine's
//! single-pass strided entry (`engine::lower_block_strided_into` — one
//! branch-light integer scan for the plan, a hoisted reciprocal multiply
//! and branch-free round-to-even per element), the same substitutions the
//! fused path quantizes activation strips with, so prepacked planes and
//! fused strips are bit-identical by construction.
//!
//! While lowering, the packer also records the per-vector **exponent
//! uniformity** metadata ([`PlaneView::uexp`]) the deferred-scale-out
//! decision consumes: for each packed vector, the one shared exponent all
//! its nonzero blocks agree on, or [`MIXED_EXP`] when they differ (all-zero
//! vectors report 0 — their dots vanish, so any grid is correct).

use super::{c_half, pair_class, panel_layout, Code, PairClass, Side, PANEL_N_512};
use crate::bdr::BdrFormat;
use crate::engine;

/// Sentinel for "this vector's nonzero blocks do not share one exponent":
/// deferral is off for every output element the vector touches.
pub(super) const MIXED_EXP: i32 = i32::MIN;

/// One GEMM operand lowered to shift-aligned integer codes: `vectors`
/// reduction-dimension vectors (A rows or B columns), each split into
/// `blocks` `k1`-blocks, zero-padded so every block is exactly `k1` codes.
#[derive(Clone)]
pub(super) struct CodePlane<C> {
    /// Signed, shift-aligned codes `± code · 2^(β − τ)`, laid out
    /// `[vector][block][k1]` — contiguous along the reduction dimension —
    /// or panel-major for the AVX2/AVX-512 panel kernels (see
    /// [`PackedOperand::pack_cols`] and [`panel_slot`]).
    pub(super) codes: Vec<C>,
    /// Shared exponent per `[vector][block]` slot (0 for all-zero blocks,
    /// whose codes are all zero anyway).
    pub(super) exps: Vec<i32>,
    /// Per-vector uniform shared exponent, or [`MIXED_EXP`] — the
    /// deferred-scale-out metadata.
    pub(super) uexp: Vec<i32>,
    pub(super) blocks: usize,
    pub(super) k1: usize,
}

impl<C> CodePlane<C> {
    pub(super) fn view(&self) -> PlaneView<'_, C> {
        PlaneView {
            codes: &self.codes,
            exps: &self.exps,
            uexp: &self.uexp,
            blocks: self.blocks,
            k1: self.k1,
        }
    }
}

/// Borrowed view of a code plane — what the execute kernels actually
/// consume. Owned [`CodePlane`]s (inside a [`PackedOperand`]) and the
/// [`PackScratch`]-backed fused strips both lower to this, so the kernels
/// are oblivious to who owns the buffers.
#[derive(Clone, Copy)]
pub(super) struct PlaneView<'a, C> {
    pub(super) codes: &'a [C],
    pub(super) exps: &'a [i32],
    /// Per-vector uniform exponent or [`MIXED_EXP`].
    pub(super) uexp: &'a [i32],
    pub(super) blocks: usize,
    pub(super) k1: usize,
}

/// Lowers `vectors` strided vectors of `len` elements to an owned plane of
/// aligned codes. Vector `v` reads `data[base_of(v) + i·stride]` — rows use
/// `(|i| i·len, 1)`, columns of a `[len, vectors]` matrix use
/// `(|j| j, vectors)`. `slot_of(v, kb)` picks the storage layout: the
/// generic kernels use vector-major `v·blocks + kb`, the panel kernels
/// consume B packed panel-major (see [`PackedOperand::pack_cols`]). The
/// plane's `uexp` receives one entry per vector (see [`MIXED_EXP`]).
fn pack<C: Code>(
    data: &[f32],
    vectors: usize,
    len: usize,
    base_of: impl Fn(usize) -> usize,
    stride: usize,
    slot_of: impl Fn(usize, usize) -> usize,
    fmt: &BdrFormat,
) -> CodePlane<C> {
    let k1 = fmt.k1();
    let blocks = len.div_ceil(k1);
    let mut codes = vec![C::ZERO; vectors * blocks * k1];
    let mut exps = vec![0; vectors * blocks];
    let mut uexp = vec![0; vectors];
    let mut shifts = Vec::new();
    for (v, u) in uexp.iter_mut().enumerate() {
        let base = base_of(v);
        let mut seen: Option<i32> = None;
        let mut mixed = false;
        for kb in 0..blocks {
            let start = kb * k1;
            let blen = k1.min(len - start);
            let slot = slot_of(v, kb);
            // The single-pass lowering writes all k1 slots (zeroing the
            // ragged tail, and the whole block when it is all-zero).
            if let Some(e) = engine::lower_block_strided_into(
                fmt,
                data,
                base + start * stride,
                stride,
                blen,
                &mut shifts,
                &mut codes[slot * k1..][..k1],
            ) {
                exps[slot] = e;
                match seen {
                    None => seen = Some(e),
                    Some(prev) if prev != e => mixed = true,
                    _ => {}
                }
            }
        }
        *u = if mixed { MIXED_EXP } else { seen.unwrap_or(0) };
    }
    CodePlane {
        codes,
        exps,
        uexp,
        blocks,
        k1,
    }
}

/// Block-slot index of `(column v, block kb)` in a panel-major plane of
/// `vectors` columns × `blocks` blocks with panels `panel_n` columns wide
/// (the last one `vectors mod panel_n` wide). Both the codes (scaled by
/// `k1`) and the per-block exponents use this slot order.
///
/// The AVX2 layout (`panel_n == `[`super::PANEL_N`]) is `[block][lane]`
/// inside each panel, so a panel's exponents for one block are `panel_n`
/// contiguous entries.
///
/// The AVX-512 layout (`panel_n == `[`PANEL_N_512`]) is additionally
/// **chunk-paired**: blocks `2t` and `2t+1` of one lane occupy adjacent
/// slots (`[chunk row t][lane][block parity]`), so with `k1 = 16` one
/// column's two consecutive blocks are 32 contiguous `i16` codes — exactly
/// one 512-bit load in the kernel's K loop. When `blocks` is odd the lone
/// final block falls back to `[block][lane]` order (a compact half-chunk
/// row the kernel reads with a 16-lane masked load); slot count stays
/// exactly `blocks · width` either way.
pub(super) fn panel_slot(
    v: usize,
    kb: usize,
    vectors: usize,
    blocks: usize,
    panel_n: usize,
) -> usize {
    let p = v / panel_n;
    let width = panel_n.min(vectors - p * panel_n);
    let lane = v - p * panel_n;
    let base = p * panel_n * blocks;
    if panel_n == PANEL_N_512 && !(kb == blocks - 1 && blocks % 2 == 1) {
        base + (kb / 2) * (width * 2) + lane * 2 + (kb & 1)
    } else {
        base + kb * width + lane
    }
}

/// The concrete code storage behind a [`PackedOperand`].
#[derive(Clone)]
pub(super) enum Plane {
    /// `i16` codes (narrow pairs — every MX/MSFP preset).
    Narrow(CodePlane<i16>),
    /// `i32` codes (wide custom formats).
    Wide(CodePlane<i32>),
}

/// A GEMM operand lowered **once** to shift-aligned sign/magnitude codes
/// plus per-block shared exponents — the reusable "prepack" half of the
/// prepack/execute split.
///
/// Built by [`PackedOperand::pack_rows`] (A side) or
/// [`PackedOperand::pack_cols`] (B side) against a *partner* format. The
/// codes themselves depend only on the operand's own format; the partner
/// decides the code width (`i16` vs `i32`) and, for the B side, the
/// storage layout (panel-major when the AVX2 kernels will consume it). A
/// plane is therefore executable against any partner format that lands in
/// the same kernel class as the one it was packed for — e.g. a plane
/// packed for an MX6 partner also serves MX9 activations, since every
/// preset pair is narrow — and
/// [`super::quantized_gemm_prepacked_scratch`] returns `None` (rather than
/// silently re-lowering) when the executed pair needs a different code
/// width than the plane holds.
///
/// The execute entry takes a [`Side::Cols`] plane as its B operand and
/// quantizes A itself, strip by strip; a [`Side::Rows`] plane holds the
/// same codes those strips lower (a standalone measure of the activation
/// lowering cost). Weights are static across inference steps, so `mx-nn`
/// caches the weight-side plane and amortizes its packing to zero.
#[derive(Clone)]
pub struct PackedOperand {
    pub(super) side: Side,
    pub(super) fmt: BdrFormat,
    /// Reduction-dimension length `K`.
    pub(super) len: usize,
    /// Number of packed vectors: `M` for a [`Side::Rows`] plane, `N` for a
    /// [`Side::Cols`] plane.
    pub(super) vectors: usize,
    /// Panel width of the codes' layout: 0 for vector-major, else the
    /// columns-per-panel the plane was packed with ([`super::PANEL_N`] for
    /// the AVX2 kernels, [`PANEL_N_512`] chunk-paired for AVX-512 — see
    /// [`panel_slot`]). Execution always follows this recorded width, not
    /// the currently selected backend.
    pub(super) panel_n: usize,
    /// This operand's half of the scale-out constant: `−(m − 1) − β`.
    pub(super) c_half: i32,
    pub(super) plane: Plane,
}

impl std::fmt::Debug for PackedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PackedOperand({:?}, {} x{} vectors, k={}, {}{})",
            self.side,
            self.fmt,
            self.vectors,
            self.len,
            match self.plane {
                Plane::Narrow(_) => "i16",
                Plane::Wide(_) => "i32",
            },
            match self.panel_n {
                0 => String::new(),
                w => format!(", panel-major x{w}"),
            },
        )
    }
}

impl PackedOperand {
    /// Lowers `A[m,k]`'s rows to aligned integer codes for multiplication
    /// against a `fb`-format B operand. Returns `None` when the `(fa, fb)`
    /// pair is unsupported (see [`super::code_domain_supported`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m·k`.
    pub fn pack_rows(a: &[f32], m: usize, k: usize, fa: BdrFormat, fb: BdrFormat) -> Option<Self> {
        let class = pair_class(&fa, &fb)?;
        assert_eq!(a.len(), m * k, "A is not {m}x{k}");
        let blocks = k.div_ceil(fa.k1());
        let plane = match class {
            PairClass::Narrow => Plane::Narrow(pack::<i16>(
                a,
                m,
                k,
                |i| i * k,
                1,
                |v, kb| v * blocks + kb,
                &fa,
            )),
            PairClass::Wide => Plane::Wide(pack::<i32>(
                a,
                m,
                k,
                |i| i * k,
                1,
                |v, kb| v * blocks + kb,
                &fa,
            )),
        };
        Some(PackedOperand {
            side: Side::Rows,
            fmt: fa,
            len: k,
            vectors: m,
            panel_n: 0,
            c_half: c_half(&fa),
            plane,
        })
    }

    /// Lowers `B[k,n]`'s columns to aligned integer codes for multiplication
    /// against `fa`-format activations. Returns `None` when the `(fa, fb)`
    /// pair is unsupported (see [`super::code_domain_supported`]).
    ///
    /// When a narrow panel kernel will consume the plane (the selected
    /// backend — see [`super::kernel_backend_name`] — is a panel backend
    /// and the block size matches), columns are laid out **panel-major**:
    /// columns are grouped into panels of the backend's width
    /// ([`super::PANEL_N`] for AVX2, [`PANEL_N_512`] for AVX-512), and
    /// within a panel the codes are ordered `[block][lane][k1]` (AVX2) or
    /// chunk-paired `[chunk row][lane][block parity][k1]` (AVX-512 — see
    /// [`panel_slot`]) — so one panel's entire reduction
    /// (`blocks · panel_n · k1` codes, ≈ 4–8 KB at the serving shapes) is
    /// a single contiguous, L1-resident streak. The last panel is simply
    /// narrower when `n mod panel_n ≠ 0`. (A plain `[block][column][k1]`
    /// block-major order would put consecutive blocks of one panel `n·k1`
    /// codes apart — a large power-of-two stride at typical layer widths
    /// that aliases the same L1 sets and thrashes the cache.)
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k·n`.
    pub fn pack_cols(b: &[f32], k: usize, n: usize, fa: BdrFormat, fb: BdrFormat) -> Option<Self> {
        let class = pair_class(&fa, &fb)?;
        assert_eq!(b.len(), k * n, "B is not {k}x{n}");
        let blocks = k.div_ceil(fb.k1());
        let panel_n = if class == PairClass::Narrow {
            panel_layout(fb.k1())
        } else {
            0
        };
        let plane = match class {
            PairClass::Narrow => Plane::Narrow(pack::<i16>(
                b,
                n,
                k,
                |j| j,
                n,
                |v, kb| {
                    if panel_n != 0 {
                        panel_slot(v, kb, n, blocks, panel_n)
                    } else {
                        v * blocks + kb
                    }
                },
                &fb,
            )),
            PairClass::Wide => {
                Plane::Wide(pack::<i32>(b, n, k, |j| j, n, |v, kb| v * blocks + kb, &fb))
            }
        };
        Some(PackedOperand {
            side: Side::Cols,
            fmt: fb,
            len: k,
            vectors: n,
            panel_n,
            c_half: c_half(&fb),
            plane,
        })
    }

    /// The operand side this plane packs ([`Side::Rows`] for A,
    /// [`Side::Cols`] for B).
    pub fn side(&self) -> Side {
        self.side
    }

    /// The BDR format the codes were quantized in.
    pub fn format(&self) -> BdrFormat {
        self.fmt
    }

    /// Whether `fa`-format activations can execute against this plane: it
    /// is a [`Side::Cols`] plane and the `(fa, format())` pair needs the
    /// code width it holds. A plane packed for a partner in the other
    /// kernel class answers `false`, exactly when
    /// [`super::quantized_gemm_prepacked_scratch`] would return `None`.
    pub fn accepts(&self, fa: &BdrFormat) -> bool {
        self.side == Side::Cols
            && matches!(
                (pair_class(fa, &self.fmt), &self.plane),
                (Some(PairClass::Narrow), Plane::Narrow(_))
                    | (Some(PairClass::Wide), Plane::Wide(_))
            )
    }

    /// Reduction-dimension length `K`.
    pub fn k(&self) -> usize {
        self.len
    }

    /// Number of packed vectors (`M` rows or `N` columns).
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Bytes of code and exponent storage the plane holds — the memory the
    /// weight cache retains to skip per-call packing.
    pub fn packed_bytes(&self) -> usize {
        match &self.plane {
            Plane::Narrow(p) => {
                std::mem::size_of_val(&p.codes[..]) + std::mem::size_of_val(&p.exps[..])
            }
            Plane::Wide(p) => {
                std::mem::size_of_val(&p.codes[..]) + std::mem::size_of_val(&p.exps[..])
            }
        }
    }
}

/// Reusable buffers for the fused activation lowering of
/// [`super::quantized_gemm_prepacked_scratch`]: each call quantizes A one
/// row strip at a time into a small tile ring held here, so a steady-state
/// forward pass allocates nothing for the activation side. Narrow and wide
/// code widths keep separate rings, so one scratch serves interleaved
/// format classes without reallocation churn.
///
/// A scratch is plain storage — it carries no format or shape state, so one
/// instance can serve any sequence of GEMMs (`mx-nn` keeps one per thread).
#[derive(Default)]
pub struct PackScratch {
    pub(super) narrow: StripRing<i16>,
    pub(super) wide: StripRing<i32>,
}

impl PackScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One code width's tile ring: a strip of activation rows lowered in the
/// vector-major [`CodePlane`] layout, consumed as a [`PlaneView`].
pub(super) struct StripRing<C> {
    pub(super) codes: Vec<C>,
    pub(super) exps: Vec<i32>,
    /// Per-row uniform exponent or [`MIXED_EXP`].
    pub(super) uexp: Vec<i32>,
    /// Per-block microexponent shift workspace for the engine's planner.
    pub(super) shifts: Vec<u32>,
}

impl<C> Default for StripRing<C> {
    fn default() -> Self {
        StripRing {
            codes: Vec::new(),
            exps: Vec::new(),
            uexp: Vec::new(),
            shifts: Vec::new(),
        }
    }
}
