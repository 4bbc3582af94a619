//! Swappable compute backends behind one kernel API.
//!
//! Every inference entry point — [`crate::Tensor::matmul`],
//! [`crate::Layer::infer_into`], [`crate::Sequential::infer_scratch`] —
//! routes through a [`ComputeBackend`] handle instead of calling the
//! [`crate::kernels`] free functions directly. Two implementations ship:
//!
//! - [`ScalarBackend`] — the PR-5 kernels verbatim. This is the bit-exact
//!   reference path the lane kernels are cross-checked against, and the
//!   default everywhere.
//! - [`SimdBackend`] — manual `f32x8`-style lane unrolling with a scalar
//!   tail. Lanes run across *independent output elements* (GEMM columns,
//!   conv output positions), never across a reduction, so each output
//!   element sees the exact term sequence of the scalar kernel and the
//!   result is **bit-identical** to [`ScalarBackend`]. The lanes are
//!   portable safe Rust, so the backend builds everywhere.
//!
//! Backends are zero-sized unit structs handed around as
//! `&'static dyn ComputeBackend` ([`BackendKind::handle`]), so selection
//! is a plain `Copy` enum that flows through configuration like
//! `threads`/`shards` do.

use crate::kernels;

/// A dense layer's weights as a backend sees them: the cached transpose
/// in `[in_dim, out_dim]` row-major layout and the bias.
#[derive(Debug, Clone, Copy)]
pub struct DenseWeights<'a> {
    /// Pre-transposed weight, `[in_dim, out_dim]` row-major.
    pub w_t: &'a [f32],
    /// Bias, `[out_dim]`.
    pub bias: &'a [f32],
}

/// A conv1d layer's weights as a backend sees them.
#[derive(Debug, Clone, Copy)]
pub struct ConvWeights<'a> {
    /// Weight, `[out_ch, in_ch, kernel]` row-major.
    pub weight: &'a [f32],
    /// Bias, `[out_ch]`.
    pub bias: &'a [f32],
}

/// Geometry of one conv1d inference call.
#[derive(Debug, Clone, Copy)]
pub struct ConvDims {
    /// Batch rows.
    pub batch: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Input length per channel.
    pub in_len: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Output length, `(in_len - kernel) / stride + 1`.
    pub out_len: usize,
}

/// One set of inference kernels. All methods operate on the flat buffers
/// of the caller's [`crate::Scratch`] arena and must uphold each kernel's
/// shape contract (documented on the [`crate::kernels`] reference
/// implementations).
pub trait ComputeBackend: Send + Sync {
    /// Short stable identifier (`scalar`, `simd`) recorded in run
    /// manifests and bench documents.
    fn name(&self) -> &'static str;

    /// `out[m, n] = a[m, k] x b[k, n]`, skipping zero elements of `a`.
    /// Serves [`crate::Tensor::matmul`].
    fn gemm_zero_skip(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Dense inference: `out[batch, out_dim] = input x w_t + bias`.
    fn dense_infer(
        &self,
        input: &[f32],
        weights: DenseWeights<'_>,
        out: &mut [f32],
        batch: usize,
        in_dim: usize,
        out_dim: usize,
    );

    /// Conv1d inference over `[batch, in_ch, in_len]`; `patch` is the
    /// backend's im2col workspace from the scratch arena.
    fn conv1d_infer(
        &self,
        input: &[f32],
        weights: ConvWeights<'_>,
        out: &mut [f32],
        patch: &mut Vec<f32>,
        dims: ConvDims,
    );

    /// Elementwise ReLU with the reference NaN semantics (`v <= 0.0`
    /// maps to `0.0`, NaN propagates).
    fn relu(&self, input: &[f32], out: &mut Vec<f32>);

    /// Elementwise tanh.
    fn tanh(&self, input: &[f32], out: &mut Vec<f32>);
}

/// The `&'static` scalar reference backend (also the internal default for
/// every training-path call site).
pub fn scalar() -> &'static dyn ComputeBackend {
    &ScalarBackend
}

/// The PR-5 allocation-free kernels, unchanged: the bit-exact reference
/// path and the default backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl ComputeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm_zero_skip(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        kernels::gemm_zero_skip(a, b, out, m, k, n);
    }

    fn dense_infer(
        &self,
        input: &[f32],
        weights: DenseWeights<'_>,
        out: &mut [f32],
        batch: usize,
        in_dim: usize,
        out_dim: usize,
    ) {
        kernels::dense_infer(
            input,
            weights.w_t,
            weights.bias,
            out,
            batch,
            in_dim,
            out_dim,
        );
    }

    fn conv1d_infer(
        &self,
        input: &[f32],
        weights: ConvWeights<'_>,
        out: &mut [f32],
        patch: &mut Vec<f32>,
        dims: ConvDims,
    ) {
        kernels::conv1d_infer(
            input,
            weights.weight,
            weights.bias,
            out,
            patch,
            dims.batch,
            dims.in_ch,
            dims.in_len,
            dims.out_ch,
            dims.kernel,
            dims.stride,
            dims.out_len,
        );
    }

    fn relu(&self, input: &[f32], out: &mut Vec<f32>) {
        out.clear();
        // `v <= 0.0` (not `max`) so NaN propagates.
        out.extend(input.iter().map(|&v| if v <= 0.0 { 0.0 } else { v }));
    }

    fn tanh(&self, input: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(input.iter().map(|v| v.tanh()));
    }
}

/// Lane-unrolled kernels. Lanes always run across independent output
/// elements — each element's accumulation sequence is exactly the scalar
/// kernel's, so results are bit-identical; only *which element* advances
/// next changes.
mod lanes {
    use super::ConvDims;

    pub(super) const LANES: usize = 8;

    /// `dst[j] += a * src[j]` in 8-wide lanes with a scalar tail. No zero
    /// skip — callers that need one (the GEMM) apply it per `a`.
    #[inline]
    pub(super) fn axpy(dst: &mut [f32], src: &[f32], a: f32) {
        let mut d_chunks = dst.chunks_exact_mut(LANES);
        let mut s_chunks = src.chunks_exact(LANES);
        for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
            let mut dv = [0.0f32; LANES];
            let mut sv = [0.0f32; LANES];
            dv.copy_from_slice(d);
            sv.copy_from_slice(s);
            for l in 0..LANES {
                dv[l] += a * sv[l];
            }
            d.copy_from_slice(&dv);
        }
        for (d, &s) in d_chunks
            .into_remainder()
            .iter_mut()
            .zip(s_chunks.remainder())
        {
            *d += a * s;
        }
    }

    /// The scalar GEMM's loop structure with the inner axpy lane-unrolled.
    /// Per output element the same terms accumulate in the same
    /// increasing-`p` order from a `0.0` start: bit-identical.
    pub(super) fn gemm_zero_skip(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        const GEMM_BLOCK: usize = 64;
        for i in 0..m {
            let dst = &mut out[i * n..(i + 1) * n];
            dst.fill(0.0);
            let a_row = &a[i * k..(i + 1) * k];
            let mut j0 = 0;
            while j0 < n {
                let jw = GEMM_BLOCK.min(n - j0);
                for (p, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    axpy(&mut dst[j0..j0 + jw], &b[p * n + j0..p * n + j0 + jw], av);
                }
                j0 += jw;
            }
        }
    }

    /// Widest `out_ch` the stack accumulator covers; wider convolutions
    /// (none exist in the codebase today) fall back to the scalar kernel.
    const MAX_LANED_OUT_CH: usize = 64;

    /// Conv1d as a per-position row-GEMM: the scalar kernel's t-major
    /// im2col rows multiplied against a transposed weight `w_t[i][oc]`,
    /// so the innermost loop runs across the contiguous `out_ch` lane
    /// dimension instead of the scalar kernel's serial length-`ick` dot
    /// reduction (which an f32 compiler may not reassociate). Per output
    /// element the accumulator starts at `bias[oc]` and adds
    /// `w[i] * x[i]` in increasing `i` (`ic`-major / `k`-minor) order —
    /// the exact sequence of the scalar kernel, hence bit-identical
    /// despite the different memory walk.
    pub(super) fn conv1d_infer(
        input: &[f32],
        weight: &[f32],
        bias: &[f32],
        out: &mut [f32],
        patch: &mut Vec<f32>,
        dims: ConvDims,
    ) {
        let ConvDims {
            batch,
            in_ch,
            in_len,
            out_ch,
            kernel,
            stride,
            out_len,
        } = dims;
        let ick = in_ch * kernel;
        debug_assert_eq!(input.len(), batch * in_ch * in_len);
        debug_assert_eq!(weight.len(), out_ch * ick);
        debug_assert_eq!(bias.len(), out_ch);
        debug_assert_eq!(out.len(), batch * out_ch * out_len);
        if out_ch > MAX_LANED_OUT_CH {
            crate::kernels::conv1d_infer(
                input, weight, bias, out, patch, batch, in_ch, in_len, out_ch, kernel, stride,
                out_len,
            );
            return;
        }
        // One scratch buffer holds the transposed weight followed by one
        // sample's im2col rows, keeping the backend allocation-free in
        // steady state.
        patch.clear();
        patch.resize(ick * out_ch + out_len * ick, 0.0);
        let (w_t, rows) = patch.split_at_mut(ick * out_ch);
        for (oc, wrow) in weight.chunks_exact(ick).enumerate() {
            for (i, &wv) in wrow.iter().enumerate() {
                w_t[i * out_ch + oc] = wv;
            }
        }
        let mut acc = [0.0f32; MAX_LANED_OUT_CH];
        let acc = &mut acc[..out_ch];
        for b in 0..batch {
            let x = &input[b * in_ch * in_len..(b + 1) * in_ch * in_len];
            crate::kernels::im2col_rows(x, rows, in_ch, in_len, kernel, stride, out_len);
            let dst = &mut out[b * out_ch * out_len..(b + 1) * out_ch * out_len];
            for t in 0..out_len {
                let row = &rows[t * ick..(t + 1) * ick];
                acc.copy_from_slice(bias);
                for (i, &pv) in row.iter().enumerate() {
                    let wt_row = &w_t[i * out_ch..(i + 1) * out_ch];
                    for (a, &wv) in acc.iter_mut().zip(wt_row) {
                        *a += wv * pv;
                    }
                }
                for (oc, &av) in acc.iter().enumerate() {
                    dst[oc * out_len + t] = av;
                }
            }
        }
    }

    /// Elementwise lane ReLU with the reference NaN semantics.
    pub(super) fn relu(input: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(input.len());
        let mut chunks = input.chunks_exact(LANES);
        for s in &mut chunks {
            let mut v = [0.0f32; LANES];
            v.copy_from_slice(s);
            for x in &mut v {
                if *x <= 0.0 {
                    *x = 0.0;
                }
            }
            out.extend_from_slice(&v);
        }
        out.extend(
            chunks
                .remainder()
                .iter()
                .map(|&v| if v <= 0.0 { 0.0 } else { v }),
        );
    }
}

/// Manual `f32x8`-style lane unrolling with a scalar tail; bit-identical
/// to [`ScalarBackend`] by construction (lanes run across independent
/// output elements only).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

impl ComputeBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn gemm_zero_skip(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        lanes::gemm_zero_skip(a, b, out, m, k, n);
    }

    fn dense_infer(
        &self,
        input: &[f32],
        weights: DenseWeights<'_>,
        out: &mut [f32],
        batch: usize,
        in_dim: usize,
        out_dim: usize,
    ) {
        debug_assert_eq!(input.len(), batch * in_dim);
        debug_assert_eq!(weights.w_t.len(), in_dim * out_dim);
        debug_assert_eq!(weights.bias.len(), out_dim);
        debug_assert_eq!(out.len(), batch * out_dim);
        self.gemm_zero_skip(input, weights.w_t, out, batch, in_dim, out_dim);
        // Elementwise bias add after the sum, exactly as the scalar
        // kernel orders it.
        for dst in out.chunks_exact_mut(out_dim) {
            for (d, &bv) in dst.iter_mut().zip(weights.bias) {
                *d += bv;
            }
        }
    }

    fn conv1d_infer(
        &self,
        input: &[f32],
        weights: ConvWeights<'_>,
        out: &mut [f32],
        patch: &mut Vec<f32>,
        dims: ConvDims,
    ) {
        lanes::conv1d_infer(input, weights.weight, weights.bias, out, patch, dims);
    }

    fn relu(&self, input: &[f32], out: &mut Vec<f32>) {
        lanes::relu(input, out);
    }

    fn tanh(&self, input: &[f32], out: &mut Vec<f32>) {
        // Elementwise transcendental: the scalar path is already
        // per-element, so there is nothing to lane-unroll without
        // changing bits.
        ScalarBackend.tanh(input, out);
    }
}

/// Backend selection as configuration: a `Copy` enum that flows through
/// `SimulationConfig` → runner → predictor exactly like `threads` and
/// `shards` do, resolved to a handle only at the kernel call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The bit-exact reference kernels (the default).
    #[default]
    Scalar,
    /// Lane-unrolled kernels, bit-identical to scalar.
    Simd,
}

impl BackendKind {
    /// Every backend, in cross-check order (scalar first).
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// The stable identifier used on CLIs, in `MSVS_BACKEND`, and in
    /// bench/manifest documents.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// Parses an identifier (`scalar` or `simd`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// The backend implementation this kind names.
    pub fn handle(self) -> &'static dyn ComputeBackend {
        match self {
            BackendKind::Scalar => &ScalarBackend,
            BackendKind::Simd => &SimdBackend,
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown backend `{s}` (expected scalar|simd)"))
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: u64 = 48;

    /// Seeded per-(property, case) RNG, mirroring `tests/properties.rs`.
    fn case_rng(property: u64, case: u64) -> StdRng {
        StdRng::seed_from_u64(property.wrapping_mul(0x9E37_79B9) ^ case)
    }

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                // Exact zeros exercise the zero-skip branches.
                if rng.gen_range(0..5) == 0 {
                    0.0f32
                } else {
                    rng.gen_range(-2.0..2.0) as f32
                }
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn kind_round_trips_names_and_handles() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.handle().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(BackendKind::default(), BackendKind::Scalar);
        for unknown in ["gpu", "int8", "quantized"] {
            assert!(BackendKind::parse(unknown).is_none(), "{unknown}");
            assert!(unknown.parse::<BackendKind>().is_err(), "{unknown}");
        }
    }

    /// Randomized-shape property: SIMD GEMM is bit-identical to scalar.
    #[test]
    fn simd_gemm_bit_identical_across_random_shapes() {
        for case in 0..CASES {
            let mut rng = case_rng(0x51, case);
            let (m, k, n) = (
                rng.gen_range(1..9usize),
                rng.gen_range(1..40usize),
                rng.gen_range(1..150usize),
            );
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let mut want = vec![f32::NAN; m * n];
            let mut got = vec![f32::NAN; m * n];
            ScalarBackend.gemm_zero_skip(&a, &b, &mut want, m, k, n);
            SimdBackend.gemm_zero_skip(&a, &b, &mut got, m, k, n);
            assert_bits_eq(&got, &want, &format!("gemm case {case} ({m}x{k}x{n})"));
        }
    }

    /// Randomized-shape property: SIMD dense is bit-identical to scalar.
    #[test]
    fn simd_dense_bit_identical_across_random_shapes() {
        for case in 0..CASES {
            let mut rng = case_rng(0xDE, case);
            let (batch, in_dim, out_dim) = (
                rng.gen_range(1..7usize),
                rng.gen_range(1..33usize),
                rng.gen_range(1..90usize),
            );
            let input = random_vec(&mut rng, batch * in_dim);
            let w_t = random_vec(&mut rng, in_dim * out_dim);
            let bias = random_vec(&mut rng, out_dim);
            let weights = DenseWeights {
                w_t: &w_t,
                bias: &bias,
            };
            let mut want = vec![f32::NAN; batch * out_dim];
            let mut got = vec![f32::NAN; batch * out_dim];
            ScalarBackend.dense_infer(&input, weights, &mut want, batch, in_dim, out_dim);
            SimdBackend.dense_infer(&input, weights, &mut got, batch, in_dim, out_dim);
            assert_bits_eq(&got, &want, &format!("dense case {case}"));
        }
    }

    fn random_conv_case(case: u64) -> (ConvDims, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = case_rng(0xC0, case);
        let (batch, in_ch, out_ch) = (
            rng.gen_range(1..5usize),
            rng.gen_range(1..6usize),
            rng.gen_range(1..9usize),
        );
        let kernel = rng.gen_range(1..6usize);
        let stride = rng.gen_range(1..4usize);
        let in_len = kernel + rng.gen_range(0..40usize);
        let out_len = (in_len - kernel) / stride + 1;
        let dims = ConvDims {
            batch,
            in_ch,
            in_len,
            out_ch,
            kernel,
            stride,
            out_len,
        };
        let input = random_vec(&mut case_rng(0xC1, case), batch * in_ch * in_len);
        let weight = random_vec(&mut case_rng(0xC2, case), out_ch * in_ch * kernel);
        let bias = random_vec(&mut case_rng(0xC3, case), out_ch);
        (dims, input, weight, bias)
    }

    /// Randomized-shape property: SIMD conv1d (transposed-patch axpy) is
    /// bit-identical to the scalar im2col kernel.
    #[test]
    fn simd_conv_bit_identical_across_random_shapes() {
        for case in 0..CASES {
            let (dims, input, weight, bias) = random_conv_case(case);
            let n = dims.batch * dims.out_ch * dims.out_len;
            let (mut want, mut got) = (vec![f32::NAN; n], vec![f32::NAN; n]);
            let (mut p1, mut p2) = (Vec::new(), Vec::new());
            let weights = ConvWeights {
                weight: &weight,
                bias: &bias,
            };
            ScalarBackend.conv1d_infer(&input, weights, &mut want, &mut p1, dims);
            SimdBackend.conv1d_infer(&input, weights, &mut got, &mut p2, dims);
            assert_bits_eq(&got, &want, &format!("conv case {case} ({dims:?})"));
        }
    }

    /// Activations: SIMD relu is bit-identical (NaN semantics included);
    /// every backend's tanh is the scalar tanh.
    #[test]
    fn activations_cross_check() {
        let mut rng = case_rng(0xAC, 0);
        let mut input = random_vec(&mut rng, 1027);
        input[13] = f32::NAN;
        input[14] = -0.0;
        for kind in BackendKind::ALL {
            let backend = kind.handle();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            ScalarBackend.relu(&input, &mut want);
            backend.relu(&input, &mut got);
            assert_bits_eq(&got, &want, &format!("relu {}", kind.name()));
            ScalarBackend.tanh(&input, &mut want);
            backend.tanh(&input, &mut got);
            assert_bits_eq(&got, &want, &format!("tanh {}", kind.name()));
        }
    }
}
