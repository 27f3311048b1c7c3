// Copyright 2026 The SPLASH Reproduction Authors.
//
// The AVX2/FMA kernel backend (DESIGN.md §6). This translation unit is the
// ONLY one compiled with -mavx2 -mfma (set per-source in CMakeLists.txt);
// nothing here runs unless the runtime dispatcher checked cpuid first, so
// the rest of the binary stays portable baseline codegen.
//
// Register tiling:
//   - MatMul / packed fused epilogue: 6x16 output tiles (12 ymm
//     accumulators, the two b-panel vectors and one broadcast fill out the
//     15 usable regs), 8-wide and masked column tails, one multi-row block
//     for the row remainder.
//   - MatMulTransB: 4-wide horizontal-add dot tiles — four 8-lane
//     accumulators reduced with the hadd/extract transpose.
//   - MatMulTransA: broadcast-FMA rank-1 updates, vectorized over the
//     output row with masked tails, keeping the ascending reduction-row
//     order so serial and output-partitioned calls stay bit-identical.
//
// Masked tails (_mm256_maskload/maskstore) mean no kernel ever reads or
// writes past a row's [0, cols) payload — bias vectors and unpadded
// operands are safe, and ASan stays quiet. Padded rows (ResizePadded)
// still help: every row start is 64-byte aligned and the steady 16-wide
// loop covers whole rows without entering the tail code.
//
// Accumulation within one output element is 8-lane partial sums, so this
// backend is tolerance-equivalent to scalar (simd_kernels_test), never
// bit-equal — determinism oracles pin SPLASH_KERNEL=scalar.

#include "tensor/matrix.h"
#include "tensor/packed.h"
#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cassert>
#include <cmath>
#include <cstring>

namespace splash {

namespace {

/// Load mask covering the first `rem` (1..7) lanes of a ymm.
inline __m256i TailMask(size_t rem) {
  alignas(32) static const int32_t kMaskSrc[16] = {-1, -1, -1, -1, -1, -1,
                                                   -1, -1, 0,  0,  0,  0,
                                                   0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskSrc + 8 - rem));
}

inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// ---------------------------------------------------------------------------
// MatMul (c = a * b): the unpacked GEMM, kept for the feature-selection
// probe scores and as the in-backend bit-exact reference for the packed
// kernels below.
// ---------------------------------------------------------------------------

/// 6-row x 16-col micro-kernel over the full reduction.
template <int R>
inline void MicroKernel16(const float* const* arows, const Matrix& b,
                          float* const* crows, size_t j, size_t k) {
  __m256 acc[R][2];
  for (int r = 0; r < R; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const float* brow = b.Row(kk) + j;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(arows[r] + kk);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(crows[r] + j, acc[r][0]);
    _mm256_storeu_ps(crows[r] + j + 8, acc[r][1]);
  }
}

/// 8-wide column panel for R rows.
template <int R>
inline void MicroKernel8(const float* const* arows, const Matrix& b,
                         float* const* crows, size_t j, size_t k) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (size_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(b.Row(kk) + j);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(arows[r] + kk), b0,
                               acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) _mm256_storeu_ps(crows[r] + j, acc[r]);
}

/// Masked (<8 wide) column tail for R rows.
template <int R>
inline void MicroKernelTail(const float* const* arows, const Matrix& b,
                            float* const* crows, size_t j, size_t rem,
                            size_t k) {
  const __m256i mask = TailMask(rem);
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (size_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_maskload_ps(b.Row(kk) + j, mask);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(arows[r] + kk), b0,
                               acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) _mm256_maskstore_ps(crows[r] + j, mask, acc[r]);
}

template <int R>
inline void MatMulRowBlock(const float* const* arows, const Matrix& b,
                           float* const* crows, size_t n, size_t k) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) MicroKernel16<R>(arows, b, crows, j, k);
  if (j + 8 <= n) {
    MicroKernel8<R>(arows, b, crows, j, k);
    j += 8;
  }
  if (j < n) MicroKernelTail<R>(arows, b, crows, j, n - j, k);
}

void Avx2MatMulRange(const Matrix& a, const Matrix& b, Matrix* c, size_t r0,
                     size_t r1) {
  const size_t k = a.cols(), n = b.cols();
  assert(b.rows() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(r0 <= r1 && r1 <= a.rows());
  const float* arows[6];
  float* crows[6];
  size_t i = r0;
  for (; i + 6 <= r1; i += 6) {
    for (int r = 0; r < 6; ++r) {
      arows[r] = a.Row(i + r);
      crows[r] = c->Row(i + r);
    }
    MatMulRowBlock<6>(arows, b, crows, n, k);
  }
  // Row tail as ONE multi-row pass: each pass re-streams all of b, so
  // per-row tail handling costs ~rem full B streams when b exceeds cache.
  // Per-row FMA order matches the 6-row block, so results are identical.
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
      default: MatMulRowBlock<5>(arows, b, crows, n, k); break;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-B GEMM with the fused bias+ReLU epilogue (tensor/packed.h): one
// 16-col panel is two ymm halves per row, so the 6-row block keeps the
// same 12-accumulator budget as MicroKernel16 — only the B addressing
// changes, from row-pitch strides to one contiguous cache line per
// reduction step.
//
// Per-element accumulation stays one ascending-k 8-lane FMA chain, so
// packed results are bit-identical to Avx2MatMulRange followed by a
// bias/ReLU pass. Multi-k-block runs park fp32 partials in C (exact
// store/reload), so the chain's value sequence is unchanged.
// ---------------------------------------------------------------------------

/// Finishes one 8-lane vector of output: + bias, ReLU.
inline __m256 Epilogue8(__m256 acc, const float* bias, size_t j, bool relu) {
  if (bias != nullptr) acc = _mm256_add_ps(acc, _mm256_loadu_ps(bias + j));
  if (relu) acc = _mm256_max_ps(acc, _mm256_setzero_ps());
  return acc;
}

struct PackedLoadF32 {
  static __m256 Load(const float* p) { return _mm256_load_ps(p); }
};

struct PackedLoadBf16 {
  static __m256 Load(const uint16_t* p) {
    const __m128i raw = _mm_load_si128(reinterpret_cast<const __m128i*>(p));
    // Widening is exact: bf16 is the upper half of the fp32 bit pattern.
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16));
  }
};

/// One full 16-col panel x R rows over one k-block; `first` starts the
/// chains at zero, otherwise they resume from the partials parked in C;
/// `last` applies the epilogue, otherwise raw partials are stored back.
template <int R, typename Loader, typename Packed>
inline void PackedPanelFull(const float* const* arows, const Packed& b,
                            size_t pb, size_t jp, float* const* crows,
                            bool first, bool last, const float* bias,
                            bool relu) {
  const auto* p0 = b.Panel(pb, jp);
  const size_t j = jp * 16;
  const size_t k0 = b.BlockBegin(pb), kb = b.BlockRows(pb);
  __m256 acc[R][2];
  if (first) {
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
  } else {
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_loadu_ps(crows[r] + j);
      acc[r][1] = _mm256_loadu_ps(crows[r] + j + 8);
    }
  }
  for (size_t kk = 0; kk < kb; ++kk) {
    const __m256 b0 = Loader::Load(p0 + kk * 16);
    const __m256 b1 = Loader::Load(p0 + kk * 16 + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(arows[r] + k0 + kk);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    if (last) {
      acc[r][0] = Epilogue8(acc[r][0], bias, j, relu);
      acc[r][1] = Epilogue8(acc[r][1], bias, j + 8, relu);
    }
    _mm256_storeu_ps(crows[r] + j, acc[r][0]);
    _mm256_storeu_ps(crows[r] + j + 8, acc[r][1]);
  }
}

/// Finishes one masked ymm of a ragged panel (unconditional add of a
/// maybe-zero bias vector).
inline void PackedTailStore(__m256 acc, float* crow, size_t j, __m256i mask,
                            const float* bias, bool relu) {
  const __m256 bias_v = bias != nullptr ? _mm256_maskload_ps(bias + j, mask)
                                        : _mm256_setzero_ps();
  __m256 v = _mm256_add_ps(acc, bias_v);
  if (relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
  _mm256_maskstore_ps(crow + j, mask, v);
}

/// The ragged last panel (1..15 live cols). B loads stay full-width (the
/// panel is zero-padded, fma(a, 0, acc) == acc); C access is masked. A
/// live first half (rem >= 8) finishes through Epilogue8; masked halves
/// through PackedTailStore.
template <int R, typename Loader, typename Packed>
inline void PackedPanelRagged(const float* const* arows, const Packed& b,
                              size_t pb, size_t jp, size_t rem,
                              float* const* crows, bool first, bool last,
                              const float* bias, bool relu) {
  const auto* p0 = b.Panel(pb, jp);
  const size_t j = jp * 16;
  const size_t k0 = b.BlockBegin(pb), kb = b.BlockRows(pb);
  const bool full0 = rem >= 8;
  const size_t rem1 = rem > 8 ? rem - 8 : 0;
  const __m256i mask0 = full0 ? _mm256_set1_epi32(-1) : TailMask(rem);
  const __m256i mask1 =
      rem1 > 0 ? TailMask(rem1) : _mm256_setzero_si256();
  __m256 acc[R][2];
  if (first) {
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
  } else {
    for (int r = 0; r < R; ++r) {
      acc[r][0] = full0 ? _mm256_loadu_ps(crows[r] + j)
                        : _mm256_maskload_ps(crows[r] + j, mask0);
      acc[r][1] = rem1 > 0 ? _mm256_maskload_ps(crows[r] + j + 8, mask1)
                           : _mm256_setzero_ps();
    }
  }
  for (size_t kk = 0; kk < kb; ++kk) {
    const __m256 b0 = Loader::Load(p0 + kk * 16);
    const __m256 b1 = Loader::Load(p0 + kk * 16 + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(arows[r] + k0 + kk);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (last) {
    for (int r = 0; r < R; ++r) {
      if (full0) {
        _mm256_storeu_ps(crows[r] + j, Epilogue8(acc[r][0], bias, j, relu));
      } else {
        PackedTailStore(acc[r][0], crows[r], j, mask0, bias, relu);
      }
      if (rem1 > 0) {
        PackedTailStore(acc[r][1], crows[r], j + 8, mask1, bias, relu);
      }
    }
  } else {
    for (int r = 0; r < R; ++r) {
      if (full0) {
        _mm256_storeu_ps(crows[r] + j, acc[r][0]);
      } else {
        _mm256_maskstore_ps(crows[r] + j, mask0, acc[r][0]);
      }
      if (rem1 > 0) {
        _mm256_maskstore_ps(crows[r] + j + 8, mask1, acc[r][1]);
      }
    }
  }
}

/// All panels of one k-block for an R-row block of A.
template <int R, typename Loader, typename Packed>
inline void PackedRowBlock(const float* const* arows, const Packed& b,
                           float* const* crows, size_t pb, bool first,
                           bool last, const float* bias, bool relu) {
  const size_t n = b.n();
  const size_t full = n / 16;
  for (size_t jp = 0; jp < full; ++jp) {
    PackedPanelFull<R, Loader>(arows, b, pb, jp, crows, first, last, bias,
                               relu);
  }
  if (full * 16 < n) {
    PackedPanelRagged<R, Loader>(arows, b, pb, full, n - full * 16, crows,
                                 first, last, bias, relu);
  }
}

template <typename Loader, typename Packed>
void Avx2PackedBiasActRange(const Matrix& a, const Packed& b, Matrix* c,
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
  const float* arows[6];
  float* crows[6];
  // k-blocks outermost: one L2-sized block of packed B stays resident
  // while every row block of A streams against it; C carries the fp32
  // partials between blocks.
  for (size_t pb = 0; pb < nb; ++pb) {
    const bool first = pb == 0, last = pb + 1 == nb;
    size_t i = r0;
    for (; i + 6 <= r1; i += 6) {
      for (int r = 0; r < 6; ++r) {
        arows[r] = a.Row(i + r);
        crows[r] = c->Row(i + r);
      }
      PackedRowBlock<6, Loader>(arows, b, crows, pb, first, last, bias,
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
        default: PackedRowBlock<5, Loader>(arows, b, crows, pb, first, last, bias, relu); break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MatMulTransB (c = a * b^T): 4-wide horizontal-add dot tiles.
// ---------------------------------------------------------------------------

/// dot(x, y) over k via one 8-lane FMA accumulator + masked tail.
inline __m256 DotAccum(const float* x, const float* y, size_t k) {
  __m256 acc = _mm256_setzero_ps();
  size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk), _mm256_loadu_ps(y + kk),
                          acc);
  }
  if (kk < k) {
    const __m256i mask = TailMask(k - kk);
    acc = _mm256_fmadd_ps(_mm256_maskload_ps(x + kk, mask),
                          _mm256_maskload_ps(y + kk, mask), acc);
  }
  return acc;
}

void Avx2MatMulTransBRange(const Matrix& a, const Matrix& b, Matrix* c,
                           size_t r0, size_t r1) {
  const size_t k = a.cols(), n = b.rows();
  assert(b.cols() == k);
  assert(c->rows() == a.rows() && c->cols() == n);
  assert(r0 <= r1 && r1 <= a.rows());
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      // Four dot products at once; the hadd/extract transpose folds the
      // four 8-lane accumulators into one 4-float result vector.
      const __m256 d0 = DotAccum(arow, b.Row(j), k);
      const __m256 d1 = DotAccum(arow, b.Row(j + 1), k);
      const __m256 d2 = DotAccum(arow, b.Row(j + 2), k);
      const __m256 d3 = DotAccum(arow, b.Row(j + 3), k);
      const __m256 h01 = _mm256_hadd_ps(d0, d1);
      const __m256 h23 = _mm256_hadd_ps(d2, d3);
      const __m256 h = _mm256_hadd_ps(h01, h23);
      const __m128 sum = _mm_add_ps(_mm256_castps256_ps128(h),
                                    _mm256_extractf128_ps(h, 1));
      _mm_storeu_ps(crow + j, sum);
    }
    for (; j < n; ++j) crow[j] = HSum(DotAccum(arow, b.Row(j), k));
  }
}

// ---------------------------------------------------------------------------
// MatMulTransA (c = a^T * b): broadcast-FMA rank-1 updates.
// ---------------------------------------------------------------------------

/// crow[0, n) += av * brow[0, n), vectorized with a masked tail.
inline void RankOneUpdate(float av, const float* brow, float* crow,
                          size_t n) {
  const __m256 av8 = _mm256_set1_ps(av);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(crow + j,
                     _mm256_fmadd_ps(av8, _mm256_loadu_ps(brow + j),
                                     _mm256_loadu_ps(crow + j)));
  }
  if (j < n) {
    const __m256i mask = TailMask(n - j);
    _mm256_maskstore_ps(crow + j, mask,
                        _mm256_fmadd_ps(av8,
                                        _mm256_maskload_ps(brow + j, mask),
                                        _mm256_maskload_ps(crow + j, mask)));
  }
}

void Avx2MatMulTransARange(const Matrix& a, const Matrix& b, Matrix* c,
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

void Avx2MatMulTransAOutputRange(const Matrix& a, const Matrix& b, Matrix* c,
                                 size_t i_begin, size_t i_end) {
  const size_t r = a.rows(), n = b.cols();
  for (size_t i = i_begin; i < i_end; ++i) {
    std::memset(c->Row(i), 0, n * sizeof(float));
  }
  // rr stays the outer ascending loop so per-element accumulation order
  // matches Avx2MatMulTransARange exactly (bit-identical parallel runs).
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

void Avx2Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m256 a8 = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(a8, _mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2ColumnSumsRange(const Matrix& m, float* out, size_t row_begin,
                         size_t row_end, bool accumulate) {
  const size_t cols = m.cols();
  if (!accumulate) std::memset(out, 0, cols * sizeof(float));
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* row = m.Row(i);
    size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j),
                                              _mm256_loadu_ps(row + j)));
    }
    for (; j < cols; ++j) out[j] += row[j];
  }
}

void Avx2AdamUpdate(float* w, const float* g, float* m, float* v, size_t n,
                    float step, float beta1, float beta2, float eps) {
  const __m256 b1 = _mm256_set1_ps(beta1);
  const __m256 omb1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 b2 = _mm256_set1_ps(beta2);
  const __m256 omb2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 step8 = _mm256_set1_ps(step);
  const __m256 eps8 = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g8 = _mm256_loadu_ps(g + i);
    const __m256 m8 =
        _mm256_fmadd_ps(b1, _mm256_loadu_ps(m + i), _mm256_mul_ps(omb1, g8));
    const __m256 v8 = _mm256_fmadd_ps(b2, _mm256_loadu_ps(v + i),
                                      _mm256_mul_ps(omb2,
                                                    _mm256_mul_ps(g8, g8)));
    _mm256_storeu_ps(m + i, m8);
    _mm256_storeu_ps(v + i, v8);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(v8), eps8);
    const __m256 upd = _mm256_div_ps(_mm256_mul_ps(step8, m8), denom);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), upd));
  }
  for (; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    w[i] -= step * m[i] / (std::sqrt(v[i]) + eps);
  }
}

// ---------------------------------------------------------------------------
// 8-lane sincos: round-to-nearest quadrant reduction (two-term Cody-Waite,
// exact to float rounding for the |x| <~ 100 range the log-compressed
// degree/time encoders produce) + the cephes minimax polynomials on
// [-pi/4, pi/4] (~1e-7 absolute error). Quadrant fix-up:
//   n = round(x * 2/pi) mod 4;  r = x - n * pi/2
//   n=0: (sin r,  cos r)   n=1: (cos r, -sin r)
//   n=2: (-sin r, -cos r)  n=3: (-cos r,  sin r)
// i.e. swap when n is odd, negate sin when n in {2,3}, negate cos when
// n in {1,2}.
// ---------------------------------------------------------------------------
inline void Sincos8(__m256 x, __m256* s_out, __m256* c_out) {
  const __m256 kTwoOverPi = _mm256_set1_ps(0.63661977236758134f);
  const __m256 kPio2Hi = _mm256_set1_ps(1.57079601287841796875f);
  const __m256 kPio2Lo = _mm256_set1_ps(3.1391647326017846e-7f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);

  const __m256 xsign = _mm256_and_ps(x, sign_mask);
  const __m256 ax = _mm256_andnot_ps(sign_mask, x);

  const __m256 q = _mm256_round_ps(
      _mm256_mul_ps(ax, kTwoOverPi),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256i qi = _mm256_cvtps_epi32(q);
  __m256 r = _mm256_fnmadd_ps(q, kPio2Hi, ax);
  r = _mm256_fnmadd_ps(q, kPio2Lo, r);

  const __m256 z = _mm256_mul_ps(r, r);
  // sin(r) = r + r*z*((S0*z + S1)*z + S2)
  __m256 sp = _mm256_set1_ps(-1.9515295891e-4f);
  sp = _mm256_fmadd_ps(sp, z, _mm256_set1_ps(8.3321608736e-3f));
  sp = _mm256_fmadd_ps(sp, z, _mm256_set1_ps(-1.6666654611e-1f));
  sp = _mm256_fmadd_ps(_mm256_mul_ps(sp, z), r, r);
  // cos(r) = 1 - z/2 + z*z*((C0*z + C1)*z + C2)
  __m256 cp = _mm256_set1_ps(2.443315711809948e-5f);
  cp = _mm256_fmadd_ps(cp, z, _mm256_set1_ps(-1.388731625493765e-3f));
  cp = _mm256_fmadd_ps(cp, z, _mm256_set1_ps(4.166664568298827e-2f));
  cp = _mm256_mul_ps(cp, _mm256_mul_ps(z, z));
  cp = _mm256_fnmadd_ps(z, _mm256_set1_ps(0.5f), _mm256_add_ps(cp,
                        _mm256_set1_ps(1.0f)));

  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  const __m256 swap = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(qi, one), one));
  const __m256 sin_r = _mm256_blendv_ps(sp, cp, swap);
  const __m256 cos_r = _mm256_blendv_ps(cp, sp, swap);
  // Negate masks from quadrant bits: sign bit = (flag != 0) << 31.
  const __m256 sin_neg = _mm256_and_ps(
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_and_si256(qi, two), two)),
      sign_mask);
  const __m256 cos_neg = _mm256_and_ps(
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_add_epi32(qi, one), two), two)),
      sign_mask);
  // sin is odd in the input sign; cos is even.
  *s_out = _mm256_xor_ps(_mm256_xor_ps(sin_r, sin_neg), xsign);
  *c_out = _mm256_xor_ps(cos_r, cos_neg);
}

void Avx2SincosEncode(float x, float freq_decay, float* out, size_t dim) {
  const size_t pairs = dim / 2;
  // The frequency ladder replicates the scalar chained multiply exactly
  // (same float rounding per rung); only sin/cos themselves differ, by the
  // polynomial's ~1e-7.
  alignas(32) float angles[8];
  float freq = 1.0f;
  size_t p = 0;
  while (p < pairs) {
    const size_t chunk = pairs - p < 8 ? pairs - p : 8;
    for (size_t lane = 0; lane < chunk; ++lane) {
      angles[lane] = x * freq;
      freq *= freq_decay;
    }
    for (size_t lane = chunk; lane < 8; ++lane) angles[lane] = 0.0f;
    __m256 s, c;
    Sincos8(_mm256_load_ps(angles), &s, &c);
    // Interleave [s0..s7] x [c0..c7] into (s,c) pairs.
    const __m256 lo = _mm256_unpacklo_ps(s, c);
    const __m256 hi = _mm256_unpackhi_ps(s, c);
    const __m256 v0 = _mm256_permute2f128_ps(lo, hi, 0x20);
    const __m256 v1 = _mm256_permute2f128_ps(lo, hi, 0x31);
    const size_t n_out = 2 * chunk;
    if (n_out >= 8) {
      _mm256_storeu_ps(out + 2 * p, v0);
      if (n_out > 8) {
        _mm256_maskstore_ps(out + 2 * p + 8, TailMask(n_out - 8), v1);
      }
    } else {
      _mm256_maskstore_ps(out + 2 * p, TailMask(n_out), v0);
    }
    p += chunk;
  }
  if (dim % 2 == 1) out[dim - 1] = x * 0.1f;
}

const KernelTable kAvx2Table = {
    "avx2",
    Avx2MatMulRange,
    Avx2MatMulTransBRange,
    Avx2MatMulTransARange,
    Avx2MatMulTransAOutputRange,
    Avx2Axpy,
    Avx2ColumnSumsRange,
    Avx2AdamUpdate,
    Avx2SincosEncode,
    Avx2PackedBiasActRange<PackedLoadF32, PackedMatrix>,
    Avx2PackedBiasActRange<PackedLoadBf16, PackedMatrix16>,
};

}  // namespace

const KernelTable* GetAvx2Kernels() { return &kAvx2Table; }

}  // namespace splash

#else  // !(__AVX2__ && __FMA__)

// Compiled without AVX2 support (non-x86 target or a toolchain without
// -mavx2): the dispatcher sees nullptr and resolves to scalar.
namespace splash {
const KernelTable* GetAvx2Kernels() { return nullptr; }
}  // namespace splash

#endif
