//! Consistency suite for the fused (pack-on-the-fly) activation path —
//! the one execute entry, `quantized_gemm_prepacked_scratch`: for every
//! supported format pair and shape — M = 1 decode strips, strip-boundary
//! and training-sized row counts, ragged K tails, all-zero blocks, wide
//! custom formats, every thread count — the fused execute loop must be
//! **bit-identical** to the quantize → dequantize → `f32` matmul reference
//! and to the ad-hoc `quantized_gemm`, its rejections must not depend on
//! the shape, and the `mx-nn` matmul that serving rides must reach it with
//! no call-site changes.

use mx::core::bdr::BdrFormat;
use mx::core::gemm::{
    quantized_gemm, quantized_gemm_prepacked_scratch, reference_gemm, PackScratch, PackedOperand,
};
use mx::nn::format::TensorFormat;
use mx::nn::qflow::quantized_matmul_ab;
use mx::nn::tensor::Tensor;

const PRESETS: [BdrFormat; 5] = [
    BdrFormat::MX4,
    BdrFormat::MX6,
    BdrFormat::MX9,
    BdrFormat::MSFP12,
    BdrFormat::MSFP16,
];

/// Deterministic stress data: outliers, sign flips, scattered zeros, wide
/// magnitude spread, and every fourth `k1 = 16` block entirely zero (the
/// all-zero-block case the planner answers with `None`).
fn stress_vector(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if (i / 16) % 4 == 3 {
                return 0.0;
            }
            let h = (i.wrapping_mul(2654435761).wrapping_add(salt * 97)) % 10_007;
            let base = h as f32 / 10_007.0 - 0.5;
            match i % 7 {
                0 => 0.0,
                1 => base * 1e4,
                2 => -base * 1e-4,
                3 => -0.0,
                _ => base,
            }
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: element {i} differs: {g} ({:#x}) vs {w} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs one shape through the fused entry (reused and fresh scratch) and
/// the ad-hoc entry, asserting bit equality with the reference everywhere.
fn check_fused(m: usize, k: usize, n: usize, fa: BdrFormat, fb: BdrFormat, salt: usize) {
    let a = stress_vector(m * k, salt);
    let b = stress_vector(k * n, salt + 1);
    let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).expect("supported pair");
    let want = reference_gemm(&a, &b, m, k, n, fa, fb);
    let ctx = format!("{fa}/{fb} {m}x{k}x{n}");
    let mut scratch = PackScratch::new();
    for pass in 0..2 {
        let fused = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch).unwrap();
        assert_bits_eq(
            &fused,
            &want,
            &format!("{ctx} fused pass {pass} vs reference"),
        );
    }
    let ad_hoc = quantized_gemm(&a, &b, m, k, n, fa, fb, 1).unwrap();
    assert_bits_eq(&ad_hoc, &want, &format!("{ctx} ad hoc vs reference"));
}

/// Every preset × preset pair (mixed activation/weight formats included),
/// at an M = 1 decode shape with a ragged K tail, a multi-tile row count,
/// a single-block K, and a row count spanning two strips.
#[test]
fn fused_matches_reference_across_preset_pairs() {
    for fa in PRESETS {
        for fb in PRESETS {
            check_fused(1, 40, 7, fa, fb, 11);
            check_fused(9, 48, 5, fa, fb, 23);
            check_fused(4, 16, 3, fa, fb, 37);
            check_fused(33, 40, 3, fa, fb, 47);
        }
    }
}

/// Zero activations (every block all-zero) and a zero weight operand both
/// produce exact +0.0 outputs on the fused path.
#[test]
fn fused_zero_operands_give_zero_bits() {
    let fmt = BdrFormat::MX6;
    let (m, k, n) = (3, 40, 5);
    let b = stress_vector(k * n, 41);
    let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
    let mut scratch = PackScratch::new();
    let y =
        quantized_gemm_prepacked_scratch(&vec![0.0; m * k], m, fmt, &pb, 1, &mut scratch).unwrap();
    assert!(y.iter().all(|v| v.to_bits() == 0), "zero A");
    let pb0 = PackedOperand::pack_cols(&vec![0.0; k * n], k, n, fmt, fmt).unwrap();
    let a = stress_vector(m * k, 42);
    let y = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb0, 1, &mut scratch).unwrap();
    assert!(y.iter().all(|v| v.to_bits() == 0), "zero B");
}

/// Degenerate dimensions flow through the fused entry unchanged.
#[test]
fn fused_degenerate_dims() {
    let fmt = BdrFormat::MX9;
    let mut scratch = PackScratch::new();
    let pb = PackedOperand::pack_cols(&[], 0, 3, fmt, fmt).unwrap();
    assert_eq!(
        quantized_gemm_prepacked_scratch(&[], 2, fmt, &pb, 1, &mut scratch).unwrap(),
        vec![0.0; 6]
    );
    let pb = PackedOperand::pack_cols(&[], 16, 0, fmt, fmt).unwrap();
    let a = stress_vector(16, 43);
    assert_eq!(
        quantized_gemm_prepacked_scratch(&a, 1, fmt, &pb, 1, &mut scratch).unwrap(),
        vec![]
    );
    let pb = PackedOperand::pack_cols(&stress_vector(16 * 4, 44), 16, 4, fmt, fmt).unwrap();
    assert_eq!(
        quantized_gemm_prepacked_scratch(&[], 0, fmt, &pb, 1, &mut scratch).unwrap(),
        vec![]
    );
}

/// Row-parallel fused execution matches the reference at every thread
/// count, at one full strip, one row past it, and training-sized row
/// counts that span several strips (the last one ragged).
#[test]
fn fused_thread_counts_are_bit_identical() {
    let fmt = BdrFormat::MX6;
    let (k, n) = (96, 48);
    for m in [32usize, 33, 64, 129] {
        let a = stress_vector(m * k, 51);
        let b = stress_vector(k * n, 52);
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
        let mut scratch = PackScratch::new();
        for threads in [1usize, 2, 3, 7, 0] {
            let got =
                quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, threads, &mut scratch).unwrap();
            assert_bits_eq(&got, &want, &format!("m={m} threads={threads}"));
        }
    }
}

/// A wide custom format pair (i32 codes, i64 accumulation) takes the
/// generic fused kernel and still matches the reference exactly.
#[test]
fn fused_wide_format_pair() {
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    check_fused(2, 40, 5, wide, wide, 61);
    check_fused(1, 16, 1, wide, wide, 62);
}

/// A narrow pair with a non-preset block size runs the generic
/// (vector-major, non-panel) fused kernel.
#[test]
fn fused_non_panel_major_narrow_pair() {
    let k32 = BdrFormat::new(4, 8, 1, 32, 2).unwrap();
    check_fused(3, 80, 4, k32, k32, 71);
    check_fused(1, 32, 6, k32, k32, 72);
}

/// The fused entry rejects a B plane it cannot execute — one packed for
/// the other kernel class, or a Rows plane — with `None`, never a repack,
/// and the class rejection comes before the degenerate-dims early return.
#[test]
fn fused_entry_rejects_unexecutable_planes() {
    let narrow = BdrFormat::MX6;
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    let (m, k, n) = (2, 16, 3);
    let a = stress_vector(m * k, 81);
    let b = stress_vector(k * n, 82);
    let mut scratch = PackScratch::new();
    // B packed for a narrow partner cannot execute against a wide A.
    let pb = PackedOperand::pack_cols(&b, k, n, narrow, narrow).unwrap();
    assert!(quantized_gemm_prepacked_scratch(&a, m, wide, &pb, 1, &mut scratch).is_none());
    // ... including at degenerate dims (k = 0): class rejection must come
    // before the empty-output early return.
    let pb0 = PackedOperand::pack_cols(&[], 0, n, narrow, narrow).unwrap();
    assert!(quantized_gemm_prepacked_scratch(&[], m, wide, &pb0, 1, &mut scratch).is_none());
    // The same plane still executes for a partner of its own class.
    assert_eq!(
        quantized_gemm_prepacked_scratch(&[], m, narrow, &pb0, 1, &mut scratch).unwrap(),
        vec![0.0; m * n]
    );
    // A Rows plane is not a valid B operand.
    let pa = PackedOperand::pack_rows(&a, m, k, narrow, narrow).unwrap();
    assert!(quantized_gemm_prepacked_scratch(&a, m, narrow, &pa, 1, &mut scratch).is_none());
}

/// One scratch serves interleaved shapes, formats, and kernel classes
/// without cross-talk: every call is bit-identical to a fresh-scratch run
/// and to the reference.
#[test]
fn fused_scratch_reuse_is_bit_identical() {
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    let mut scratch = PackScratch::new();
    for (round, (fa, fb, m, k, n)) in [
        (BdrFormat::MX6, BdrFormat::MX6, 5, 40, 7),
        (BdrFormat::MX9, BdrFormat::MX4, 1, 48, 4),
        (wide, wide, 2, 40, 3),
        (BdrFormat::MSFP12, BdrFormat::MX6, 9, 16, 2),
        (BdrFormat::MX6, BdrFormat::MX6, 40, 32, 3),
    ]
    .into_iter()
    .enumerate()
    {
        let a = stress_vector(m * k, 90 + round);
        let b = stress_vector(k * n, 95 + round);
        let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
        let reused = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch).unwrap();
        let fresh =
            quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut PackScratch::new()).unwrap();
        assert_bits_eq(&reused, &fresh, &format!("round {round} {fa}/{fb}"));
        let want = reference_gemm(&a, &b, m, k, n, fa, fb);
        assert_bits_eq(&reused, &want, &format!("round {round} vs reference"));
    }
}

/// The nn-layer matmul — the call site serving and training ride — reaches
/// the fused entry with no call-site changes and stays bit-identical to
/// the reference at serving and training shapes.
#[test]
fn nn_matmul_routes_through_fused_dispatch() {
    let (k, n) = (40, 6);
    for m in [1, 33] {
        let a = Tensor::from_vec(stress_vector(m * k, 101), &[m, k]);
        let b = Tensor::from_vec(stress_vector(k * n, 102), &[k, n]);
        for (fa, fb) in [
            (TensorFormat::MX6, TensorFormat::MX6),
            (TensorFormat::MX9, TensorFormat::MX4),
        ] {
            let y = quantized_matmul_ab(&a, &b, fa, fb);
            let (TensorFormat::Bdr(ba), TensorFormat::Bdr(bb)) = (fa, fb) else {
                unreachable!()
            };
            let want = reference_gemm(a.data(), b.data(), m, k, n, ba, bb);
            assert_bits_eq(y.data(), &want, &format!("{fa}/{fb} m={m} through mx-nn"));
        }
    }
}
