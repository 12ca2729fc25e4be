#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "tensor/simd_kernels.hpp"

namespace semcache::tensor {

namespace {
void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  SEMCACHE_CHECK(a.same_shape(b), std::string(op) + ": shape mismatch " +
                                      a.shape_string() + " vs " +
                                      b.shape_string());
}

void require_matmul_shapes(const Tensor& a, const Tensor& b, const char* op) {
  SEMCACHE_CHECK(a.rank() == 2 && b.rank() == 2,
                 std::string(op) + ": rank-2 required");
  SEMCACHE_CHECK(a.dim(1) == b.dim(0),
                 std::string(op) + ": inner dims differ, " + a.shape_string() +
                     " * " + b.shape_string());
}

void require_no_alias(const Tensor& c, const Tensor& a, const Tensor& b,
                      const char* op) {
  SEMCACHE_CHECK(c.data() != a.data() && c.data() != b.data(),
                 std::string(op) + ": output must not alias an input");
}

// Register-tiled ikj matmul micro-kernel: c (m x n) += a (m x k) * b (k x n).
//
// Four C rows are carried per pass, so every streamed B row is reused four
// times from registers (4x the arithmetic intensity of the naive ikj loop);
// the contiguous j-loop auto-vectorizes. Per C-element the summation is
// still a_i0*b_0j + a_i1*b_1j + ... in ascending k order — exactly the
// reference order — and each step is one fused multiply-add, spelled
// std::fma here and in matmul_reference (the AVX2 kernels spell the same),
// so no build's contraction setting can change a bit. Results are
// bit-identical to matmul_reference.
constexpr std::size_t kRowTile = 4;

void gemm_nn(std::size_t m, std::size_t k, std::size_t n,
             const float* __restrict a, const float* __restrict b,
             float* __restrict c) {
  std::size_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    float* __restrict c0 = c + (i + 0) * n;
    float* __restrict c1 = c + (i + 1) * n;
    float* __restrict c2 = c + (i + 2) * n;
    float* __restrict c3 = c + (i + 3) * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float a0 = a[(i + 0) * k + kk];
      const float a1 = a[(i + 1) * k + kk];
      const float a2 = a[(i + 2) * k + kk];
      const float a3 = a[(i + 3) * k + kk];
      const float* __restrict brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float bv = brow[j];
        c0[j] = std::fma(a0, bv, c0[j]);
        c1[j] = std::fma(a1, bv, c1[j]);
        c2[j] = std::fma(a2, bv, c2[j]);
        c3[j] = std::fma(a3, bv, c3[j]);
      }
    }
  }
  for (; i < m; ++i) {
    float* __restrict crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      const float* __restrict brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

// Transposed-A variant: c (m x n) += aᵀ * b with a stored (k x m). Same
// tiling as gemm_nn; A is read down a column (stride m), which is the
// natural layout for dW = xᵀ·dy without materializing the transpose.
void gemm_tn(std::size_t m, std::size_t k, std::size_t n,
             const float* __restrict a, const float* __restrict b,
             float* __restrict c) {
  std::size_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    float* __restrict c0 = c + (i + 0) * n;
    float* __restrict c1 = c + (i + 1) * n;
    float* __restrict c2 = c + (i + 2) * n;
    float* __restrict c3 = c + (i + 3) * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* __restrict acol = a + kk * m + i;
      const float a0 = acol[0];
      const float a1 = acol[1];
      const float a2 = acol[2];
      const float a3 = acol[3];
      const float* __restrict brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float bv = brow[j];
        c0[j] = std::fma(a0, bv, c0[j]);
        c1[j] = std::fma(a1, bv, c1[j]);
        c2[j] = std::fma(a2, bv, c2[j]);
        c3[j] = std::fma(a3, bv, c3[j]);
      }
    }
  }
  for (; i < m; ++i) {
    float* __restrict crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[kk * m + i];
      const float* __restrict brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

// Transposed-B products run through gemm_nn on a thread-local transposed
// copy of B. The scratch is reused across calls (no steady-state
// allocation), and going through gemm_nn keeps the summation order — and
// therefore bit-exactness vs. matmul(a, transpose(b)) — intact, while the
// inner loop stays contiguous/vectorizable instead of a strided dot.
const float* transpose_scratch(const Tensor& b) {
  static thread_local std::vector<float> scratch;
  const std::size_t rows = b.dim(0);
  const std::size_t cols = b.dim(1);
  if (scratch.size() < b.size()) scratch.resize(b.size());
  const float* __restrict pb = b.data();
  float* __restrict ps = scratch.data();
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) ps[j * rows + i] = pb[i * cols + j];
  }
  return ps;
}

void bias_epilogue(std::size_t m, std::size_t n, const float* __restrict bias,
                   float* __restrict c) {
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] += bias[j];
  }
}

// Fused bias+ReLU epilogue. `v < 0 ? 0 : v` (not max) so NaN and -0.0f pass
// through unchanged, matching both the standalone ReLU layer and the AVX2
// epilogue's maxps semantics bit-for-bit.
void bias_relu_epilogue(std::size_t m, std::size_t n,
                        const float* __restrict bias, float* __restrict c) {
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float v = crow[j] + bias[j];
      crow[j] = v < 0.0f ? 0.0f : v;
    }
  }
}

// Scalar reference for adam_update. The two moment updates are its only
// multiply-adds, and both are spelled fused, as in the AVX2 kernel.
void adam_scalar(std::size_t n, const AdamCoefficients& c, const float* grad,
                 float* m, float* v, float* value) {
  for (std::size_t j = 0; j < n; ++j) {
    const double g = grad[j];
    m[j] = static_cast<float>(std::fma(c.beta1, m[j], (1.0 - c.beta1) * g));
    v[j] = static_cast<float>(
        std::fma(c.beta2, v[j], (1.0 - c.beta2) * g * g));
    const double mhat = m[j] / c.bc1;
    const double vhat = v[j] / c.bc2;
    value[j] -= static_cast<float>(c.lr * mhat / (std::sqrt(vhat) + c.eps));
  }
}

}  // namespace

// glibc's expf, step for step. Its x86-64 build for FMA hardware fuses
// x * 32/ln2 into both the rounding add and the remainder, and the three
// polynomial steps; std::fma spells exactly those, and no other product
// here feeds an add, so every build type computes these bits (and the
// AVX2 kernel, which fuses the same steps, computes them per lane). The
// double arithmetic cannot overflow or lose a bit to a subnormal for
// |x| < 88; larger inputs and NaN take glibc's special cases first.
float expf(float x) {
  const auto bits = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t abstop = (bits >> 20) & 0x7ff;
  if (abstop >= 0x42b) {                       // |x| >= 88, or NaN
    if (bits == 0xff800000u) return 0.0f;      // -inf
    if (abstop >= 0x7f8) return x + x;         // NaN (quieted) or +inf
    if (x > detail::kExpfOverflow) {
      return std::numeric_limits<float>::infinity();
    }
    if (x < detail::kExpfUnderflow) return 0.0f;
  }
  const double xd = x;
  // x * 32/ln2 = k + r: adding the shift rounds to the integer k, which
  // then sits in the low mantissa bits of kd.
  const double kd = std::fma(detail::kExpfInvLn2N, xd, detail::kExpfShift);
  const auto ki = std::bit_cast<std::uint64_t>(kd);
  const double r =
      std::fma(detail::kExpfInvLn2N, xd, -(kd - detail::kExpfShift));
  const double s =
      std::bit_cast<double>(detail::kExpfTable[ki % 32] + (ki << 47));
  const double z = std::fma(detail::kExpfC0, r, detail::kExpfC1);
  const double r2 = r * r;
  const double y = std::fma(z, r2, std::fma(detail::kExpfC2, r, 1.0));
  return static_cast<float>(y * s);
}

namespace detail {

void softmax_row(const float* in, float* out, std::size_t cols) {
  float mx = in[0];
  for (std::size_t j = 1; j < cols; ++j) mx = std::max(mx, in[j]);
  float denom = 0.0f;
  for (std::size_t j = 0; j < cols; ++j) {
    const float e = expf(in[j] - mx);
    out[j] = e;
    denom += e;
  }
  const float inv = 1.0f / denom;
  for (std::size_t j = 0; j < cols; ++j) out[j] *= inv;
}

std::int32_t argmax_row(const float* row, std::size_t cols) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < cols; ++j) {
    if (row[j] > row[best]) best = j;
  }
  return static_cast<std::int32_t>(best);
}

}  // namespace detail

namespace {

void require_rows_and_cols(std::size_t rows, std::size_t cols,
                           const char* op) {
  SEMCACHE_CHECK(rows > 0 && cols > 0,
                 std::string(op) + ": needs at least one row and one column");
}

// row_softmax over a row-major (rows x cols) block into out.
void softmax_rows(std::size_t rows, std::size_t cols, const float* in,
                  float* out) {
  if (const auto* kt = detail::engaged_tensor_kernels()) {
    kt->softmax(rows, cols, in, out);
  } else {
    for (std::size_t i = 0; i < rows; ++i) {
      detail::softmax_row(in + i * cols, out + i * cols, cols);
    }
  }
}

void gemm_nn_d(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c) {
  if (const auto* kt = detail::engaged_tensor_kernels()) {
    kt->gemm_nn(m, k, n, a, b, c);
  } else {
    gemm_nn(m, k, n, a, b, c);
  }
}

void gemm_tn_d(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b, float* c) {
  if (const auto* kt = detail::engaged_tensor_kernels()) {
    kt->gemm_tn(m, k, n, a, b, c);
  } else {
    gemm_tn(m, k, n, a, b, c);
  }
}

void bias_epilogue_d(std::size_t m, std::size_t n, const float* bias,
                     float* c) {
  if (const auto* kt = detail::engaged_tensor_kernels()) {
    kt->bias(m, n, bias, c);
  } else {
    bias_epilogue(m, n, bias, c);
  }
}

void bias_relu_epilogue_d(std::size_t m, std::size_t n, const float* bias,
                          float* c) {
  if (const auto* kt = detail::engaged_tensor_kernels()) {
    kt->bias_relu(m, n, bias, c);
  } else {
    bias_relu_epilogue(m, n, bias, c);
  }
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < c.size(); ++i) pc[i] += pb[i];
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  float* pc = c.data();
  for (std::size_t i = 0; i < c.size(); ++i) pc[i] *= s;
  return c;
}

Tensor& axpy_inplace(Tensor& a, const Tensor& b, float s) {
  require_same_shape(a, b, "axpy_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    pa[i] = std::fma(pb[i], s, pa[i]);
  }
  return a;
}

void adam_update(Tensor& value, const Tensor& grad, Tensor& m, Tensor& v,
                 const AdamCoefficients& c) {
  require_same_shape(value, grad, "adam_update");
  require_same_shape(value, m, "adam_update");
  require_same_shape(value, v, "adam_update");
  if (const auto* kt = detail::engaged_tensor_kernels()) {
    kt->adam(value.size(), c, grad.data(), m.data(), v.data(), value.data());
  } else {
    adam_scalar(value.size(), c, grad.data(), m.data(), v.data(),
                value.data());
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matmul_shapes(a, b, "matmul");
  Tensor c({a.dim(0), b.dim(1)});  // zero-filled
  gemm_nn_d(a.dim(0), a.dim(1), b.dim(1), a.data(), b.data(), c.data());
  return c;
}

Tensor matmul_reference(const Tensor& a, const Tensor& b) {
  require_matmul_shapes(a, b, "matmul_reference");
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // ikj loop order: streams through b and c rows, cache-friendly. No
  // zero-skip anywhere in the matmul family: every path accumulates every
  // a*b product, so the fast kernels agree with this oracle bit-for-bit
  // even on non-finite inputs (a skipped 0 * Inf would hide a NaN).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
  return c;
}

void matmul_into(Tensor& c, const Tensor& a, const Tensor& b) {
  require_matmul_shapes(a, b, "matmul_into");
  require_no_alias(c, a, b, "matmul_into");
  c.resize({a.dim(0), b.dim(1)});
  std::memset(c.data(), 0, c.size() * sizeof(float));
  gemm_nn_d(a.dim(0), a.dim(1), b.dim(1), a.data(), b.data(), c.data());
}

void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b) {
  require_matmul_shapes(a, b, "matmul_acc");
  require_no_alias(c, a, b, "matmul_acc");
  SEMCACHE_CHECK(c.rank() == 2 && c.dim(0) == a.dim(0) && c.dim(1) == b.dim(1),
                 "matmul_acc: accumulator shape mismatch");
  gemm_nn_d(a.dim(0), a.dim(1), b.dim(1), a.data(), b.data(), c.data());
}

void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b) {
  SEMCACHE_CHECK(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0),
                 "matmul_tn_into: aᵀb requires matching row counts");
  require_no_alias(c, a, b, "matmul_tn_into");
  c.resize({a.dim(1), b.dim(1)});
  std::memset(c.data(), 0, c.size() * sizeof(float));
  gemm_tn_d(a.dim(1), a.dim(0), b.dim(1), a.data(), b.data(), c.data());
}

void matmul_tn_acc(Tensor& c, const Tensor& a, const Tensor& b) {
  SEMCACHE_CHECK(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0),
                 "matmul_tn_acc: aᵀb requires matching row counts");
  require_no_alias(c, a, b, "matmul_tn_acc");
  SEMCACHE_CHECK(c.rank() == 2 && c.dim(0) == a.dim(1) && c.dim(1) == b.dim(1),
                 "matmul_tn_acc: accumulator shape mismatch");
  gemm_tn_d(a.dim(1), a.dim(0), b.dim(1), a.data(), b.data(), c.data());
}

void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b) {
  SEMCACHE_CHECK(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1),
                 "matmul_nt_into: abᵀ requires matching column counts");
  require_no_alias(c, a, b, "matmul_nt_into");
  c.resize({a.dim(0), b.dim(0)});
  std::memset(c.data(), 0, c.size() * sizeof(float));
  gemm_nn_d(a.dim(0), a.dim(1), b.dim(0), a.data(), transpose_scratch(b),
            c.data());
}

void matmul_nt_acc(Tensor& c, const Tensor& a, const Tensor& b) {
  SEMCACHE_CHECK(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1),
                 "matmul_nt_acc: abᵀ requires matching column counts");
  require_no_alias(c, a, b, "matmul_nt_acc");
  SEMCACHE_CHECK(c.rank() == 2 && c.dim(0) == a.dim(0) && c.dim(1) == b.dim(0),
                 "matmul_nt_acc: accumulator shape mismatch");
  gemm_nn_d(a.dim(0), a.dim(1), b.dim(0), a.data(), transpose_scratch(b),
            c.data());
}

void affine_into(Tensor& y, const Tensor& x, const Tensor& w,
                 const Tensor& bias) {
  SEMCACHE_CHECK(bias.rank() == 1, "affine_into: bias must be rank-1");
  SEMCACHE_CHECK(w.rank() == 2 && bias.dim(0) == w.dim(1),
                 "affine_into: bias length must equal W cols");
  require_matmul_shapes(x, w, "affine_into");
  require_no_alias(y, x, w, "affine_into");
  SEMCACHE_CHECK(y.data() != bias.data(),
                 "affine_into: output must not alias bias");
  const std::size_t m = x.dim(0);
  const std::size_t k = x.dim(1);
  const std::size_t n = w.dim(1);
  y.resize({m, n});
  std::memset(y.data(), 0, y.size() * sizeof(float));
  gemm_nn_d(m, k, n, x.data(), w.data(), y.data());
  // Bias rides in the epilogue while y is still cache-hot (and without the
  // per-element bounds checks the old at(i,j) second pass paid).
  bias_epilogue_d(m, n, bias.data(), y.data());
}

void affine_relu_into(Tensor& y, const Tensor& x, const Tensor& w,
                      const Tensor& bias) {
  SEMCACHE_CHECK(bias.rank() == 1, "affine_relu_into: bias must be rank-1");
  SEMCACHE_CHECK(w.rank() == 2 && bias.dim(0) == w.dim(1),
                 "affine_relu_into: bias length must equal W cols");
  require_matmul_shapes(x, w, "affine_relu_into");
  require_no_alias(y, x, w, "affine_relu_into");
  SEMCACHE_CHECK(y.data() != bias.data(),
                 "affine_relu_into: output must not alias bias");
  const std::size_t m = x.dim(0);
  const std::size_t k = x.dim(1);
  const std::size_t n = w.dim(1);
  y.resize({m, n});
  std::memset(y.data(), 0, y.size() * sizeof(float));
  gemm_nn_d(m, k, n, x.data(), w.data(), y.data());
  // ReLU is an elementwise clamp after the full sum, so fusing it into the
  // bias epilogue changes no bits vs. affine_into followed by a standalone
  // ReLU pass.
  bias_relu_epilogue_d(m, n, bias.data(), y.data());
}

const char* active_matmul_path() {
  return detail::engaged_tensor_kernels() != nullptr ? "avx2-fma" : "scalar";
}

Tensor transpose(const Tensor& a) {
  SEMCACHE_CHECK(a.rank() == 2, "transpose: rank-2 required");
  Tensor t({a.dim(1), a.dim(0)});
  transpose_into(t, a);
  return t;
}

void transpose_into(Tensor& t, const Tensor& a) {
  SEMCACHE_CHECK(a.rank() == 2, "transpose_into: rank-2 required");
  SEMCACHE_CHECK(t.data() != a.data(),
                 "transpose_into: output must not alias input");
  const std::size_t m = a.dim(0);
  const std::size_t n = a.dim(1);
  t.resize({n, m});
  const float* __restrict pa = a.data();
  float* __restrict pt = t.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) pt[j * m + i] = pa[i * n + j];
  }
}

Tensor affine(const Tensor& x, const Tensor& w, const Tensor& bias) {
  Tensor y;
  affine_into(y, x, w, bias);
  return y;
}

Tensor row_softmax(const Tensor& logits) {
  Tensor out;
  row_softmax_into(out, logits);
  return out;
}

void row_softmax_into(Tensor& out, const Tensor& logits) {
  SEMCACHE_CHECK(logits.rank() == 2, "row_softmax: rank-2 required");
  const std::size_t m = logits.dim(0);
  const std::size_t n = logits.dim(1);
  require_rows_and_cols(m, n, "row_softmax");
  SEMCACHE_CHECK(&out != &logits,
                 "row_softmax_into: output must not alias logits");
  out.resize({m, n});
  softmax_rows(m, n, logits.data(), out.data());
}

std::vector<std::int32_t> row_argmax(const Tensor& t) {
  SEMCACHE_CHECK(t.rank() == 2, "row_argmax: rank-2 required");
  const std::size_t m = t.dim(0);
  const std::size_t n = t.dim(1);
  require_rows_and_cols(m, n, "row_argmax");
  std::vector<std::int32_t> out(m);
  if (const auto* kt = detail::engaged_tensor_kernels()) {
    kt->argmax(m, n, t.data(), out.data());
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      out[i] = detail::argmax_row(t.data() + i * n, n);
    }
  }
  return out;
}

double mean_target_nll(std::span<const float> probs, std::size_t cols,
                       std::span<const std::int32_t> targets) {
  SEMCACHE_CHECK(!targets.empty() && probs.size() == targets.size() * cols,
                 "mean_target_nll: probs must hold one row per target");
  return mean_nll(targets.size(), [&](std::size_t i) {
    const std::int32_t t = targets[i];
    SEMCACHE_CHECK(t >= 0 && static_cast<std::size_t>(t) < cols,
                   "mean_target_nll: target class out of range");
    return probs[i * cols + static_cast<std::size_t>(t)];
  });
}

double mean_cross_entropy(std::span<const float> logits, std::size_t cols,
                          std::span<const std::int32_t> targets) {
  const std::size_t rows = targets.size();
  require_rows_and_cols(rows, cols, "mean_cross_entropy");
  SEMCACHE_CHECK(logits.size() == rows * cols,
                 "mean_cross_entropy: logits must hold one row per target");
  // The probabilities go to a scratch reused across calls (no
  // steady-state allocation).
  static thread_local std::vector<float> scratch;
  if (scratch.size() < logits.size()) scratch.resize(logits.size());
  softmax_rows(rows, cols, logits.data(), scratch.data());
  return mean_target_nll({scratch.data(), logits.size()}, cols, targets);
}

float sum(const Tensor& a) {
  float s = 0.0f;
  for (const float x : a.flat()) s += x;
  return s;
}

float mean(const Tensor& a) {
  SEMCACHE_CHECK(a.size() > 0, "mean: empty tensor");
  return sum(a) / static_cast<float>(a.size());
}

float dot(const Tensor& a, const Tensor& b) {
  SEMCACHE_CHECK(a.size() == b.size(), "dot: size mismatch");
  // Ascending order. Steps below the last multiple of 8 round the product
  // and then the sum; the last n mod 8 steps are fused. That is the
  // rounding GCC's in-order vectorized reduction gives a plain `s += a*b`
  // loop at -O3 on AVX-512 hosts (16- and 8-wide blocks, a contracted
  // scalar tail), which the digests were recorded with. The barrier keeps
  // contraction off the blocked products, and std::fma fuses the tail in
  // builds without -mfma, so every build computes it.
  float s = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::size_t blocked = a.size() / 8 * 8;
  std::size_t i = 0;
  for (; i < blocked; ++i) s += __builtin_assoc_barrier(pa[i] * pb[i]);
  for (; i < a.size(); ++i) s = std::fma(pa[i], pb[i], s);
  return s;
}

float l2_norm(const Tensor& a) { return std::sqrt(dot(a, a)); }

void column_sums_acc(Tensor& out, const Tensor& a) {
  SEMCACHE_CHECK(a.rank() == 2, "column_sums_acc: rank-2 required");
  SEMCACHE_CHECK(out.rank() == 1 && out.dim(0) == a.dim(1),
                 "column_sums_acc: accumulator must be rank-1 of length cols");
  const std::size_t m = a.dim(0);
  const std::size_t n = a.dim(1);
  const float* __restrict pa = a.data();
  float* __restrict po = out.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict arow = pa + i * n;
    for (std::size_t j = 0; j < n; ++j) po[j] += arow[j];
  }
}

}  // namespace semcache::tensor
