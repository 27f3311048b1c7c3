// Copyright 2026 The SPLASH Reproduction Authors.
//
// The AVX-512 kernel backend (DESIGN.md §6). This translation unit is the
// ONLY one compiled with -mavx512f -mavx512vl -mavx512dq (set per-source in
// CMakeLists.txt); nothing here runs unless the runtime dispatcher checked
// cpuid first, so the rest of the binary stays portable baseline codegen.
//
// Register tiling:
//   - MatMul / packed fused epilogue: 8x32 output tiles (16 zmm
//     accumulators plus the two b-panel vectors and one broadcast fit
//     comfortably in the 32 architectural zmm registers), 16-wide and
//     mask-register column tails, one multi-row block for the row
//     remainder.
//   - MatMulTransB: one 16-lane FMA accumulator per dot product, reduced
//     with _mm512_reduce_add_ps.
//   - MatMulTransA: broadcast-FMA rank-1 updates, vectorized over the
//     output row with mask-register tails, keeping the ascending
//     reduction-row order so serial and output-partitioned calls stay
//     bit-identical.
//
// Tail policy: every ragged edge uses __mmask16 predication
// (_mm512_maskz_loadu_ps / _mm512_mask_storeu_ps) instead of a scalar
// remainder loop — no kernel ever reads or writes past a row's [0, cols)
// payload, so bias vectors and unpadded operands are safe and ASan stays
// quiet. Padded rows (ResizePadded) still help: every row start is 64-byte
// aligned and the steady 32-wide loop covers whole rows without entering
// the tail code.
//
// Accumulation within one output element is 16-lane partial sums, so this
// backend is its own bitwise universe — tolerance-equivalent to scalar
// (simd_kernels_test) and distinct from avx2's 8-lane sums. Determinism
// oracles pin SPLASH_KERNEL=scalar.

#include "tensor/matrix.h"
#include "tensor/packed.h"
#include "tensor/simd.h"

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <cassert>
#include <cmath>
#include <cstring>

namespace splash {

namespace {

/// Predication mask covering the first `rem` (1..15) lanes of a zmm.
inline __mmask16 TailMask16(size_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

// ---------------------------------------------------------------------------
// MatMul (c = a * b): the unpacked GEMM, kept for the feature-selection
// probe scores and as the in-backend bit-exact reference for the packed
// kernels below.
// ---------------------------------------------------------------------------

/// 8-row x 32-col micro-kernel over the full reduction.
template <int R>
inline void MicroKernel32(const float* const* arows, const Matrix& b,
                          float* const* crows, size_t j, size_t k) {
  __m512 acc[R][2];
  for (int r = 0; r < R; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const float* brow = b.Row(kk) + j;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(arows[r][kk]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm512_storeu_ps(crows[r] + j, acc[r][0]);
    _mm512_storeu_ps(crows[r] + j + 16, acc[r][1]);
  }
}

/// 16-wide column panel for R rows.
template <int R>
inline void MicroKernel16(const float* const* arows, const Matrix& b,
                          float* const* crows, size_t j, size_t k) {
  __m512 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  for (size_t kk = 0; kk < k; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(b.Row(kk) + j);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arows[r][kk]), b0, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) _mm512_storeu_ps(crows[r] + j, acc[r]);
}

/// Masked (<16 wide) column tail for R rows.
template <int R>
inline void MicroKernelTail(const float* const* arows, const Matrix& b,
                            float* const* crows, size_t j, size_t rem,
                            size_t k) {
  const __mmask16 mask = TailMask16(rem);
  __m512 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  for (size_t kk = 0; kk < k; ++kk) {
    const __m512 b0 = _mm512_maskz_loadu_ps(mask, b.Row(kk) + j);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arows[r][kk]), b0, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm512_mask_storeu_ps(crows[r] + j, mask, acc[r]);
  }
}

template <int R>
inline void MatMulRowBlock(const float* const* arows, const Matrix& b,
                           float* const* crows, size_t n, size_t k) {
  size_t j = 0;
  for (; j + 32 <= n; j += 32) MicroKernel32<R>(arows, b, crows, j, k);
  if (j + 16 <= n) {
    MicroKernel16<R>(arows, b, crows, j, k);
    j += 16;
  }
  if (j < n) MicroKernelTail<R>(arows, b, crows, j, n - j, k);
}

void Avx512MatMulRange(const Matrix& a, const Matrix& b, Matrix* c, size_t r0,
                       size_t r1) {
  const size_t k = a.cols(), n = b.cols();
  assert(b.rows() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(r0 <= r1 && r1 <= a.rows());
  const float* arows[8];
  float* crows[8];
  size_t i = r0;
  for (; i + 8 <= r1; i += 8) {
    for (int r = 0; r < 8; ++r) {
      arows[r] = a.Row(i + r);
      crows[r] = c->Row(i + r);
    }
    MatMulRowBlock<8>(arows, b, crows, n, k);
  }
  // Row tail: ONE multi-row pass, not row-by-row. When b exceeds cache
  // (e.g. wide serving layers) each pass re-streams all of b from memory,
  // so a 7-row tail done per-row would cost ~7 full-tile B streams; a
  // single R-row block shares the stream. Per-row FMA order matches the
  // 8-row block exactly, so results are bit-identical either way.
  if (i < r1) {
    const size_t rem = r1 - i;
    for (size_t r = 0; r < rem; ++r) {
      arows[r] = a.Row(i + r);
      crows[r] = c->Row(i + r);
    }
    switch (rem) {
      case 1: MatMulRowBlock<1>(arows, b, crows, n, k); break;
      case 2: MatMulRowBlock<2>(arows, b, crows, n, k); break;
      case 3: MatMulRowBlock<3>(arows, b, crows, n, k); break;
      case 4: MatMulRowBlock<4>(arows, b, crows, n, k); break;
      case 5: MatMulRowBlock<5>(arows, b, crows, n, k); break;
      case 6: MatMulRowBlock<6>(arows, b, crows, n, k); break;
      default: MatMulRowBlock<7>(arows, b, crows, n, k); break;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-B GEMM with the fused bias+ReLU epilogue (tensor/packed.h). Every
// B panel is a contiguous run of 16-float cache lines, so the steady loop
// advances B by exactly one line per reduction step — no row-pitch
// strides, which is what makes the wide batch-1 serving forward
// prefetch-friendly again.
//
// Bit-identity with Avx512MatMulRange followed by a bias/ReLU pass: each
// output element is one ascending-k FMA chain into a single accumulator
// lane, then that epilogue. Multi-k-block runs park the fp32 partial in C
// between blocks — an exact store/reload — so the chain's value sequence
// is unchanged.
//
// The bf16 kernels share this code via the Loader parameter: each packed
// lane widens to fp32 on load (exact: bf16 is the upper half of the fp32
// bits) and everything downstream is the same fp32 arithmetic.
// ---------------------------------------------------------------------------

/// Finishes one 16-lane vector of output: + bias, ReLU.
inline __m512 Epilogue16(__m512 acc, const float* bias, size_t j,
                         bool relu) {
  if (bias != nullptr) acc = _mm512_add_ps(acc, _mm512_loadu_ps(bias + j));
  if (relu) acc = _mm512_max_ps(acc, _mm512_setzero_ps());
  return acc;
}

struct PackedLoadF32 {
  static __m512 Load(const float* p) { return _mm512_load_ps(p); }
};

struct PackedLoadBf16 {
  static __m512 Load(const uint16_t* p) {
    const __m256i raw =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
    // Widening is exact: bf16 is the upper half of the fp32 bit pattern.
    return _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
  }
};

/// Two full panels (32 cols) x R rows over one k-block. `first` starts the
/// chains at zero, otherwise they resume from the partials parked in C;
/// `last` applies the epilogue, otherwise raw partials are stored back.
template <int R, typename Loader, typename Packed>
inline void PackedPanelPair(const float* const* arows, const Packed& b,
                            size_t pb, size_t jp, float* const* crows,
                            bool first, bool last, const float* bias,
                            bool relu) {
  const auto* p0 = b.Panel(pb, jp);
  const auto* p1 = b.Panel(pb, jp + 1);
  const size_t j = jp * 16;
  const size_t k0 = b.BlockBegin(pb), kb = b.BlockRows(pb);
  __m512 acc[R][2];
  if (first) {
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm512_setzero_ps();
      acc[r][1] = _mm512_setzero_ps();
    }
  } else {
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm512_loadu_ps(crows[r] + j);
      acc[r][1] = _mm512_loadu_ps(crows[r] + j + 16);
    }
  }
  for (size_t kk = 0; kk < kb; ++kk) {
    const __m512 b0 = Loader::Load(p0 + kk * 16);
    const __m512 b1 = Loader::Load(p1 + kk * 16);
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(arows[r][k0 + kk]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    if (last) {
      acc[r][0] = Epilogue16(acc[r][0], bias, j, relu);
      acc[r][1] = Epilogue16(acc[r][1], bias, j + 16, relu);
    }
    _mm512_storeu_ps(crows[r] + j, acc[r][0]);
    _mm512_storeu_ps(crows[r] + j + 16, acc[r][1]);
  }
}

/// One full panel (16 cols) x R rows over one k-block.
template <int R, typename Loader, typename Packed>
inline void PackedPanelOne(const float* const* arows, const Packed& b,
                           size_t pb, size_t jp, float* const* crows,
                           bool first, bool last, const float* bias,
                           bool relu) {
  const auto* p0 = b.Panel(pb, jp);
  const size_t j = jp * 16;
  const size_t k0 = b.BlockBegin(pb), kb = b.BlockRows(pb);
  __m512 acc[R];
  if (first) {
    for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  } else {
    for (int r = 0; r < R; ++r) acc[r] = _mm512_loadu_ps(crows[r] + j);
  }
  for (size_t kk = 0; kk < kb; ++kk) {
    const __m512 b0 = Loader::Load(p0 + kk * 16);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arows[r][k0 + kk]), b0,
                               acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    if (last) acc[r] = Epilogue16(acc[r], bias, j, relu);
    _mm512_storeu_ps(crows[r] + j, acc[r]);
  }
}

/// The ragged last panel (<16 live cols): B loads stay full-width (the
/// panel is zero-padded, fma(a, 0, acc) == acc), C access is masked. The
/// last-block epilogue adds a maybe-zero bias vector unconditionally.
template <int R, typename Loader, typename Packed>
inline void PackedPanelRagged(const float* const* arows, const Packed& b,
                              size_t pb, size_t jp, size_t rem,
                              float* const* crows, bool first, bool last,
                              const float* bias, bool relu) {
  const auto* p0 = b.Panel(pb, jp);
  const size_t j = jp * 16;
  const size_t k0 = b.BlockBegin(pb), kb = b.BlockRows(pb);
  const __mmask16 mask = TailMask16(rem);
  __m512 acc[R];
  if (first) {
    for (int r = 0; r < R; ++r) acc[r] = _mm512_setzero_ps();
  } else {
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_maskz_loadu_ps(mask, crows[r] + j);
    }
  }
  for (size_t kk = 0; kk < kb; ++kk) {
    const __m512 b0 = Loader::Load(p0 + kk * 16);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arows[r][k0 + kk]), b0,
                               acc[r]);
    }
  }
  if (last) {
    const __m512 bias_v = bias != nullptr
                              ? _mm512_maskz_loadu_ps(mask, bias + j)
                              : _mm512_setzero_ps();
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm512_add_ps(acc[r], bias_v);
      if (relu) acc[r] = _mm512_max_ps(acc[r], _mm512_setzero_ps());
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm512_mask_storeu_ps(crows[r] + j, mask, acc[r]);
  }
}

/// All panels of one k-block for an R-row block of A.
template <int R, typename Loader, typename Packed>
inline void PackedRowBlock(const float* const* arows, const Packed& b,
                           float* const* crows, size_t pb, bool first,
                           bool last, const float* bias, bool relu) {
  const size_t n = b.n();
  const size_t full = n / 16;
  size_t jp = 0;
  for (; jp + 2 <= full; jp += 2) {
    PackedPanelPair<R, Loader>(arows, b, pb, jp, crows, first, last, bias,
                               relu);
  }
  if (jp < full) {
    PackedPanelOne<R, Loader>(arows, b, pb, jp, crows, first, last, bias,
                              relu);
    ++jp;
  }
  if (jp * 16 < n) {
    PackedPanelRagged<R, Loader>(arows, b, pb, jp, n - jp * 16, crows,
                                 first, last, bias, relu);
  }
}

template <typename Loader, typename Packed>
void Avx512PackedBiasActRange(const Matrix& a, const Packed& b, Matrix* c,
                              size_t r0, size_t r1, const float* bias,
                              bool relu) {
  const size_t k = a.cols(), n = b.n();
  assert(b.k() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(r0 <= r1 && r1 <= a.rows());
  (void)k;
  if (n == 0 || r0 == r1) return;
  // k == 0 has no blocks; one empty block still runs the epilogue.
  const size_t nb = b.num_blocks() > 0 ? b.num_blocks() : 1;
  const float* arows[8];
  float* crows[8];
  // k-blocks outermost: one L2-sized block of packed B stays resident
  // while every row block of A streams against it; C carries the fp32
  // partials between blocks.
  for (size_t pb = 0; pb < nb; ++pb) {
    const bool first = pb == 0, last = pb + 1 == nb;
    size_t i = r0;
    for (; i + 8 <= r1; i += 8) {
      for (int r = 0; r < 8; ++r) {
        arows[r] = a.Row(i + r);
        crows[r] = c->Row(i + r);
      }
      PackedRowBlock<8, Loader>(arows, b, crows, pb, first, last, bias,
                                relu);
    }
    if (i < r1) {
      const size_t rem = r1 - i;
      for (size_t r = 0; r < rem; ++r) {
        arows[r] = a.Row(i + r);
        crows[r] = c->Row(i + r);
      }
      switch (rem) {
        case 1: PackedRowBlock<1, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
        case 2: PackedRowBlock<2, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
        case 3: PackedRowBlock<3, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
        case 4: PackedRowBlock<4, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
        case 5: PackedRowBlock<5, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
        case 6: PackedRowBlock<6, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
        default: PackedRowBlock<7, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MatMulTransB (c = a * b^T): 16-lane dot products, lane-reduced per output.
// ---------------------------------------------------------------------------

/// dot(x, y) over k via one 16-lane FMA accumulator + masked tail.
inline __m512 DotAccum(const float* x, const float* y, size_t k) {
  __m512 acc = _mm512_setzero_ps();
  size_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(x + kk), _mm512_loadu_ps(y + kk),
                          acc);
  }
  if (kk < k) {
    const __mmask16 mask = TailMask16(k - kk);
    acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, x + kk),
                          _mm512_maskz_loadu_ps(mask, y + kk), acc);
  }
  return acc;
}

void Avx512MatMulTransBRange(const Matrix& a, const Matrix& b, Matrix* c,
                             size_t r0, size_t r1) {
  const size_t k = a.cols(), n = b.rows();
  assert(b.cols() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(r0 <= r1 && r1 <= a.rows());
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    for (size_t j = 0; j < n; ++j) {
      crow[j] = _mm512_reduce_add_ps(DotAccum(arow, b.Row(j), k));
    }
  }
}

// ---------------------------------------------------------------------------
// MatMulTransA (c = a^T * b): broadcast-FMA rank-1 updates.
// ---------------------------------------------------------------------------

/// crow[0, n) += av * brow[0, n), vectorized with a masked tail.
inline void RankOneUpdate(float av, const float* brow, float* crow,
                          size_t n) {
  const __m512 av16 = _mm512_set1_ps(av);
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(crow + j,
                     _mm512_fmadd_ps(av16, _mm512_loadu_ps(brow + j),
                                     _mm512_loadu_ps(crow + j)));
  }
  if (j < n) {
    const __mmask16 mask = TailMask16(n - j);
    _mm512_mask_storeu_ps(
        crow + j, mask,
        _mm512_fmadd_ps(av16, _mm512_maskz_loadu_ps(mask, brow + j),
                        _mm512_maskz_loadu_ps(mask, crow + j)));
  }
}

void Avx512MatMulTransARange(const Matrix& a, const Matrix& b, Matrix* c,
                             size_t r_begin, size_t r_end) {
  const size_t m = a.cols(), n = b.cols();
  assert(b.rows() == a.rows());
  assert(c->rows() == m && c->cols() == n);
  assert(r_begin <= r_end && r_end <= a.rows());
  for (size_t rr = r_begin; rr < r_end; ++rr) {
    const float* arow = a.Row(rr);
    const float* brow = b.Row(rr);
    for (size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;  // masked neighbor gradients are common
      RankOneUpdate(av, brow, c->Row(i), n);
    }
  }
}

void Avx512MatMulTransAOutputRange(const Matrix& a, const Matrix& b,
                                   Matrix* c, size_t i_begin,
                                   size_t i_end) {
  const size_t r = a.rows(), n = b.cols();
  for (size_t i = i_begin; i < i_end; ++i) {
    std::memset(c->Row(i), 0, n * sizeof(float));
  }
  // rr stays the outer ascending loop so per-element accumulation order
  // matches Avx512MatMulTransARange exactly (bit-identical parallel runs).
  for (size_t rr = 0; rr < r; ++rr) {
    const float* arow = a.Row(rr);
    const float* brow = b.Row(rr);
    for (size_t i = i_begin; i < i_end; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      RankOneUpdate(av, brow, c->Row(i), n);
    }
  }
}

// ---------------------------------------------------------------------------
// Row/vector kernels.
// ---------------------------------------------------------------------------

void Avx512Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m512 a16 = _mm512_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(a16, _mm512_loadu_ps(x + i),
                                            _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 mask = TailMask16(n - i);
    _mm512_mask_storeu_ps(
        y + i, mask,
        _mm512_fmadd_ps(a16, _mm512_maskz_loadu_ps(mask, x + i),
                        _mm512_maskz_loadu_ps(mask, y + i)));
  }
}

void Avx512ColumnSumsRange(const Matrix& m, float* out, size_t row_begin,
                           size_t row_end, bool accumulate) {
  const size_t cols = m.cols();
  if (!accumulate) std::memset(out, 0, cols * sizeof(float));
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* row = m.Row(i);
    size_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(out + j, _mm512_add_ps(_mm512_loadu_ps(out + j),
                                              _mm512_loadu_ps(row + j)));
    }
    if (j < cols) {
      const __mmask16 mask = TailMask16(cols - j);
      _mm512_mask_storeu_ps(
          out + j, mask,
          _mm512_add_ps(_mm512_maskz_loadu_ps(mask, out + j),
                        _mm512_maskz_loadu_ps(mask, row + j)));
    }
  }
}

void Avx512AdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                      float step, float beta1, float beta2, float eps) {
  const __m512 b1 = _mm512_set1_ps(beta1);
  const __m512 omb1 = _mm512_set1_ps(1.0f - beta1);
  const __m512 b2 = _mm512_set1_ps(beta2);
  const __m512 omb2 = _mm512_set1_ps(1.0f - beta2);
  const __m512 step16 = _mm512_set1_ps(step);
  const __m512 eps16 = _mm512_set1_ps(eps);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 g16 = _mm512_loadu_ps(g + i);
    const __m512 m16 =
        _mm512_fmadd_ps(b1, _mm512_loadu_ps(m + i), _mm512_mul_ps(omb1, g16));
    const __m512 v16 = _mm512_fmadd_ps(
        b2, _mm512_loadu_ps(v + i),
        _mm512_mul_ps(omb2, _mm512_mul_ps(g16, g16)));
    _mm512_storeu_ps(m + i, m16);
    _mm512_storeu_ps(v + i, v16);
    const __m512 denom = _mm512_add_ps(_mm512_sqrt_ps(v16), eps16);
    const __m512 upd = _mm512_div_ps(_mm512_mul_ps(step16, m16), denom);
    _mm512_storeu_ps(w + i, _mm512_sub_ps(_mm512_loadu_ps(w + i), upd));
  }
  if (i < n) {
    // Masked tail: dead lanes compute 0/(sqrt(0)+eps) = 0 — no traps — and
    // the mask keeps their stores from landing.
    const __mmask16 mask = TailMask16(n - i);
    const __m512 g16 = _mm512_maskz_loadu_ps(mask, g + i);
    const __m512 m16 = _mm512_fmadd_ps(b1, _mm512_maskz_loadu_ps(mask, m + i),
                                       _mm512_mul_ps(omb1, g16));
    const __m512 v16 = _mm512_fmadd_ps(
        b2, _mm512_maskz_loadu_ps(mask, v + i),
        _mm512_mul_ps(omb2, _mm512_mul_ps(g16, g16)));
    _mm512_mask_storeu_ps(m + i, mask, m16);
    _mm512_mask_storeu_ps(v + i, mask, v16);
    const __m512 denom = _mm512_add_ps(_mm512_sqrt_ps(v16), eps16);
    const __m512 upd = _mm512_div_ps(_mm512_mul_ps(step16, m16), denom);
    _mm512_mask_storeu_ps(
        w + i, mask,
        _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, w + i), upd));
  }
}

// ---------------------------------------------------------------------------
// 16-lane sincos: identical algorithm to the AVX2 backend (two-term
// Cody-Waite quadrant reduction + cephes minimax polynomials, ~1e-7
// absolute error), widened to zmm with mask-register quadrant fix-ups:
//   n = round(x * 2/pi) mod 4;  r = x - n * pi/2
//   swap sin/cos when n is odd, negate sin when n in {2,3}, negate cos
//   when n in {1,2}.
// ---------------------------------------------------------------------------
inline void Sincos16(__m512 x, __m512* s_out, __m512* c_out) {
  const __m512 kTwoOverPi = _mm512_set1_ps(0.63661977236758134f);
  const __m512 kPio2Hi = _mm512_set1_ps(1.57079601287841796875f);
  const __m512 kPio2Lo = _mm512_set1_ps(3.1391647326017846e-7f);
  const __m512 sign_mask = _mm512_set1_ps(-0.0f);

  const __m512 xsign = _mm512_and_ps(x, sign_mask);
  const __m512 ax = _mm512_andnot_ps(sign_mask, x);

  const __m512 q = _mm512_roundscale_ps(
      _mm512_mul_ps(ax, kTwoOverPi),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m512i qi = _mm512_cvtps_epi32(q);
  __m512 r = _mm512_fnmadd_ps(q, kPio2Hi, ax);
  r = _mm512_fnmadd_ps(q, kPio2Lo, r);

  const __m512 z = _mm512_mul_ps(r, r);
  // sin(r) = r + r*z*((S0*z + S1)*z + S2)
  __m512 sp = _mm512_set1_ps(-1.9515295891e-4f);
  sp = _mm512_fmadd_ps(sp, z, _mm512_set1_ps(8.3321608736e-3f));
  sp = _mm512_fmadd_ps(sp, z, _mm512_set1_ps(-1.6666654611e-1f));
  sp = _mm512_fmadd_ps(_mm512_mul_ps(sp, z), r, r);
  // cos(r) = 1 - z/2 + z*z*((C0*z + C1)*z + C2)
  __m512 cp = _mm512_set1_ps(2.443315711809948e-5f);
  cp = _mm512_fmadd_ps(cp, z, _mm512_set1_ps(-1.388731625493765e-3f));
  cp = _mm512_fmadd_ps(cp, z, _mm512_set1_ps(4.166664568298827e-2f));
  cp = _mm512_mul_ps(cp, _mm512_mul_ps(z, z));
  cp = _mm512_fnmadd_ps(z, _mm512_set1_ps(0.5f),
                        _mm512_add_ps(cp, _mm512_set1_ps(1.0f)));

  const __m512i one = _mm512_set1_epi32(1);
  const __m512i two = _mm512_set1_epi32(2);
  const __mmask16 swap =
      _mm512_cmpeq_epi32_mask(_mm512_and_epi32(qi, one), one);
  const __m512 sin_r = _mm512_mask_blend_ps(swap, sp, cp);
  const __m512 cos_r = _mm512_mask_blend_ps(swap, cp, sp);
  const __mmask16 sin_neg =
      _mm512_cmpeq_epi32_mask(_mm512_and_epi32(qi, two), two);
  const __mmask16 cos_neg = _mm512_cmpeq_epi32_mask(
      _mm512_and_epi32(_mm512_add_epi32(qi, one), two), two);
  // sin is odd in the input sign; cos is even.
  __m512 sv = _mm512_mask_xor_ps(sin_r, sin_neg, sin_r, sign_mask);
  sv = _mm512_xor_ps(sv, xsign);
  *s_out = sv;
  *c_out = _mm512_mask_xor_ps(cos_r, cos_neg, cos_r, sign_mask);
}

void Avx512SincosEncode(float x, float freq_decay, float* out, size_t dim) {
  const size_t pairs = dim / 2;
  // The frequency ladder replicates the scalar chained multiply exactly
  // (same float rounding per rung); only sin/cos themselves differ, by the
  // polynomial's ~1e-7.
  alignas(64) float angles[16];
  // Lane interleave [s0..s15] x [c0..c15] -> (s,c) pairs via two-source
  // permutes: indices 0..15 select from s, 16..31 from c.
  const __m512i idx_lo = _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19, 3,
                                          18, 2, 17, 1, 16, 0);
  const __m512i idx_hi = _mm512_set_epi32(31, 15, 30, 14, 29, 13, 28, 12, 27,
                                          11, 26, 10, 25, 9, 24, 8);
  float freq = 1.0f;
  size_t p = 0;
  while (p < pairs) {
    const size_t chunk = pairs - p < 16 ? pairs - p : 16;
    for (size_t lane = 0; lane < chunk; ++lane) {
      angles[lane] = x * freq;
      freq *= freq_decay;
    }
    for (size_t lane = chunk; lane < 16; ++lane) angles[lane] = 0.0f;
    __m512 s, c;
    Sincos16(_mm512_load_ps(angles), &s, &c);
    const __m512 v0 = _mm512_permutex2var_ps(s, idx_lo, c);
    const __m512 v1 = _mm512_permutex2var_ps(s, idx_hi, c);
    const size_t n_out = 2 * chunk;
    if (n_out >= 16) {
      _mm512_storeu_ps(out + 2 * p, v0);
      if (n_out > 16) {
        _mm512_mask_storeu_ps(out + 2 * p + 16, TailMask16(n_out - 16), v1);
      }
    } else {
      _mm512_mask_storeu_ps(out + 2 * p, TailMask16(n_out), v0);
    }
    p += chunk;
  }
  if (dim % 2 == 1) out[dim - 1] = x * 0.1f;
}

const KernelTable kAvx512Table = {
    "avx512",
    Avx512MatMulRange,
    Avx512MatMulTransBRange,
    Avx512MatMulTransARange,
    Avx512MatMulTransAOutputRange,
    Avx512Axpy,
    Avx512ColumnSumsRange,
    Avx512AdamUpdate,
    Avx512SincosEncode,
    Avx512PackedBiasActRange<PackedLoadF32, PackedMatrix>,
    Avx512PackedBiasActRange<PackedLoadBf16, PackedMatrix16>,
};

}  // namespace

const KernelTable* GetAvx512Kernels() { return &kAvx512Table; }

}  // namespace splash

#else  // !(__AVX512F__ && __AVX512VL__ && __AVX512DQ__)

// Compiled without AVX-512 support (non-x86 target or a toolchain without
// -mavx512f): the dispatcher sees nullptr and resolves past this backend.
namespace splash {
const KernelTable* GetAvx512Kernels() { return nullptr; }
}  // namespace splash

#endif
