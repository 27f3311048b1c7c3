// Copyright 2026 The SPLASH Reproduction Authors.
//
// Backend-equivalence suite for the runtime-dispatched kernel layer
// (DESIGN.md §6): for every kernel in the table and a shape sweep that
// includes ragged tails, each SIMD backend (avx2, avx512) must match the
// scalar reference within a 4-ulp relative tolerance (relative to the
// element's absolute dot mass, so cancellation does not inflate the bound
// into meaningless territory). Also pins the dispatch-resolution logic and
// the padded-layout bit-equality (padding must never change arithmetic).
// The packed fused kernel's bit-equality with unpacked GEMM + bias + ReLU
// passes lives in packed_gemm_test.

#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/packed.h"
#include "tensor/rng.h"

namespace splash {
namespace {

const size_t kDims[] = {1, 3, 8, 17, 33, 128};

bool HaveAvx2() {
  return CpuSupportsAvx2Fma() && GetAvx2Kernels() != nullptr;
}

bool HaveAvx512() {
  return CpuSupportsAvx512() && GetAvx512Kernels() != nullptr;
}

/// Every SIMD backend this host can run; equivalence tests sweep them all
/// against the scalar reference.
std::vector<const KernelTable*> SimdBackends() {
  std::vector<const KernelTable*> v;
  if (HaveAvx2()) v.push_back(GetAvx2Kernels());
  if (HaveAvx512()) v.push_back(GetAvx512Kernels());
  return v;
}

/// |got - want| <= 4 ulp relative to the element's absolute accumulation
/// mass: both backends round a reordering of the same |mass|-sized sum, so
/// their difference is bounded by a few ulp of that mass even when the
/// signed result cancels to near zero.
void ExpectUlpClose(float want, float got, double abs_mass,
                    const char* what, size_t i, size_t j) {
  const double eps = std::numeric_limits<float>::epsilon();
  const double tol =
      4.0 * eps * std::max(abs_mass, static_cast<double>(std::fabs(want)));
  EXPECT_NEAR(want, got, tol) << what << " at (" << i << "," << j << ")";
}

struct GemmCase {
  Matrix a, b, c_scalar, c_simd;
  Matrix abs_mass;  // per-element sum of |a||b| terms, the tolerance scale
};

/// Compares two full output matrices against the per-element mass bound.
void CompareOutputs(const GemmCase& g, const char* what) {
  ASSERT_EQ(g.c_scalar.rows(), g.c_simd.rows());
  ASSERT_EQ(g.c_scalar.cols(), g.c_simd.cols());
  for (size_t i = 0; i < g.c_scalar.rows(); ++i) {
    for (size_t j = 0; j < g.c_scalar.cols(); ++j) {
      ExpectUlpClose(g.c_scalar(i, j), g.c_simd(i, j), g.abs_mass(i, j),
                     what, i, j);
    }
  }
}

/// Fills abs_mass for c = a * b (a: MxK, b: KxN).
void FillMassAB(GemmCase* g) {
  const size_t m = g->a.rows(), k = g->a.cols(), n = g->b.cols();
  g->abs_mass = Matrix(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double mass = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        mass += std::fabs(static_cast<double>(g->a(i, kk)) * g->b(kk, j));
      }
      g->abs_mass(i, j) = static_cast<float>(mass);
    }
  }
}

TEST(SimdKernelsTest, MatMulScalarVsSimdAcrossShapeSweep) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(101);
    for (size_t m : kDims) {
      for (size_t k : kDims) {
        for (size_t n : kDims) {
          GemmCase g;
          g.a = Matrix::Gaussian(m, k, &rng);
          g.b = Matrix::Gaussian(k, n, &rng);
          g.c_scalar = Matrix(m, n);
          g.c_simd = Matrix(m, n);
          FillMassAB(&g);
          s->matmul_range(g.a, g.b, &g.c_scalar, 0, m);
          x->matmul_range(g.a, g.b, &g.c_simd, 0, m);
          CompareOutputs(g, x->name);
        }
      }
    }
  }
}

TEST(SimdKernelsTest, MatMulRaggedTailSweep1To31) {
  // Every masked-tail width both backends can hit: n (column-tail masks,
  // unpacked and packed fused), k (reduction-tail masks in TransB dots),
  // and small m (row-block remainders) from 1 to 31 — covers all
  // __mmask16 and avx2 tail values.
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(108);
    std::vector<float> bias;
    for (size_t n = 1; n <= 31; ++n) {
      GemmCase g;
      g.a = Matrix::Gaussian(9, 19, &rng);
      g.b = Matrix::Gaussian(19, n, &rng);
      g.c_scalar = Matrix(9, n);
      g.c_simd = Matrix(9, n);
      FillMassAB(&g);
      s->matmul_range(g.a, g.b, &g.c_scalar, 0, 9);
      x->matmul_range(g.a, g.b, &g.c_simd, 0, 9);
      CompareOutputs(g, x->name);

      bias.assign(n, 0.0f);
      for (size_t j = 0; j < n; ++j) {
        bias[j] = 0.25f * static_cast<float>(rng.Uniform() - 0.5);
        g.abs_mass(0, j) += std::fabs(bias[j]);
      }
      for (size_t i = 1; i < 9; ++i) {
        for (size_t j = 0; j < n; ++j) {
          g.abs_mass(i, j) += std::fabs(bias[j]);
        }
      }
      PackedMatrix pb;
      pb.PackFrom(g.b);
      s->matmul_packed_bias_act_range(g.a, pb, &g.c_scalar, 0, 9,
                                      bias.data(), true);
      x->matmul_packed_bias_act_range(g.a, pb, &g.c_simd, 0, 9, bias.data(),
                                      true);
      CompareOutputs(g, "fused tail");
    }
    for (size_t k = 1; k <= 31; ++k) {
      GemmCase g;
      g.a = Matrix::Gaussian(6, k, &rng);
      g.b = Matrix::Gaussian(23, k, &rng);  // NxK for TransB
      g.c_scalar = Matrix(6, 23);
      g.c_simd = Matrix(6, 23);
      g.abs_mass = Matrix(6, 23);
      for (size_t i = 0; i < 6; ++i) {
        for (size_t j = 0; j < 23; ++j) {
          double mass = 0.0;
          for (size_t kk = 0; kk < k; ++kk) {
            mass += std::fabs(static_cast<double>(g.a(i, kk)) * g.b(j, kk));
          }
          g.abs_mass(i, j) = static_cast<float>(mass);
        }
      }
      s->matmul_transb_range(g.a, g.b, &g.c_scalar, 0, 6);
      x->matmul_transb_range(g.a, g.b, &g.c_simd, 0, 6);
      CompareOutputs(g, "transb k-tail");
    }
    for (size_t m = 1; m <= 31; ++m) {
      GemmCase g;
      g.a = Matrix::Gaussian(m, 13, &rng);
      g.b = Matrix::Gaussian(13, 21, &rng);
      g.c_scalar = Matrix(m, 21);
      g.c_simd = Matrix(m, 21);
      FillMassAB(&g);
      s->matmul_range(g.a, g.b, &g.c_scalar, 0, m);
      x->matmul_range(g.a, g.b, &g.c_simd, 0, m);
      CompareOutputs(g, "row-block tail");
    }
  }
}

TEST(SimdKernelsTest, MatMulTransBScalarVsSimdAcrossShapeSweep) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(102);
    for (size_t m : kDims) {
      for (size_t k : kDims) {
        for (size_t n : kDims) {
          GemmCase g;
          g.a = Matrix::Gaussian(m, k, &rng);
          g.b = Matrix::Gaussian(n, k, &rng);  // NxK
          g.c_scalar = Matrix(m, n);
          g.c_simd = Matrix(m, n);
          g.abs_mass = Matrix(m, n);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              double mass = 0.0;
              for (size_t kk = 0; kk < k; ++kk) {
                mass +=
                    std::fabs(static_cast<double>(g.a(i, kk)) * g.b(j, kk));
              }
              g.abs_mass(i, j) = static_cast<float>(mass);
            }
          }
          s->matmul_transb_range(g.a, g.b, &g.c_scalar, 0, m);
          x->matmul_transb_range(g.a, g.b, &g.c_simd, 0, m);
          CompareOutputs(g, "MatMulTransB");
        }
      }
    }
  }
}

TEST(SimdKernelsTest, MatMulTransAScalarVsSimdAcrossShapeSweep) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(103);
    for (size_t r : kDims) {
      for (size_t m : kDims) {
        for (size_t n : kDims) {
          GemmCase g;
          g.a = Matrix::Gaussian(r, m, &rng);  // RxM
          g.b = Matrix::Gaussian(r, n, &rng);  // RxN
          g.c_scalar = Matrix(m, n);           // pre-zeroed (range contract)
          g.c_simd = Matrix(m, n);
          g.abs_mass = Matrix(m, n);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              double mass = 0.0;
              for (size_t rr = 0; rr < r; ++rr) {
                mass +=
                    std::fabs(static_cast<double>(g.a(rr, i)) * g.b(rr, j));
              }
              g.abs_mass(i, j) = static_cast<float>(mass);
            }
          }
          s->matmul_transa_range(g.a, g.b, &g.c_scalar, 0, r);
          x->matmul_transa_range(g.a, g.b, &g.c_simd, 0, r);
          CompareOutputs(g, "MatMulTransA");

          // Output-partition form must match the serial form bit-exactly
          // within each backend (the parallel wrapper relies on it).
          Matrix part(m, n);
          const size_t mid = m / 2;
          x->matmul_transa_output_range(g.a, g.b, &part, 0, mid);
          x->matmul_transa_output_range(g.a, g.b, &part, mid, m);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              ASSERT_EQ(part(i, j), g.c_simd(i, j))
                  << x->name << " output-range mismatch at (" << i << ","
                  << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, FusedEpilogueScalarVsSimd) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  for (const KernelTable* x : backends) {
    Rng rng(105);
    for (size_t m : kDims) {
      for (size_t n : kDims) {
        const size_t k = 33;
        GemmCase g;
        g.a = Matrix::Gaussian(m, k, &rng);
        g.b = Matrix::Gaussian(k, n, &rng);
        std::vector<float> bias(n);
        for (size_t j = 0; j < n; ++j) {
          bias[j] = 0.25f * static_cast<float>(rng.Uniform() - 0.5);
        }
        g.abs_mass = Matrix(m, n);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            double mass = std::fabs(static_cast<double>(bias[j]));
            for (size_t kk = 0; kk < k; ++kk) {
              mass += std::fabs(static_cast<double>(g.a(i, kk)) * g.b(kk, j));
            }
            g.abs_mass(i, j) = static_cast<float>(mass);
          }
        }
        PackedMatrix pb;
        pb.PackFrom(g.b);
        for (bool relu : {false, true}) {
          g.c_scalar = Matrix(m, n);
          g.c_simd = Matrix(m, n);
          s->matmul_packed_bias_act_range(g.a, pb, &g.c_scalar, 0, m,
                                          bias.data(), relu);
          x->matmul_packed_bias_act_range(g.a, pb, &g.c_simd, 0, m,
                                          bias.data(), relu);
          CompareOutputs(g, relu ? "fused+relu" : "fused");
        }
      }
    }
  }
}

TEST(SimdKernelsTest, VectorKernelsScalarVsSimd) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  const double eps = std::numeric_limits<float>::epsilon();
  for (const KernelTable* x : backends) {
    Rng rng(106);
    for (size_t n : kDims) {
      // axpy
      std::vector<float> xs(n), ys(n), yx(n);
      for (size_t i = 0; i < n; ++i) {
        xs[i] = static_cast<float>(rng.Uniform() - 0.5);
        ys[i] = static_cast<float>(rng.Uniform() - 0.5);
        yx[i] = ys[i];
      }
      s->axpy(0.7f, xs.data(), ys.data(), n);
      x->axpy(0.7f, xs.data(), yx.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(ys[i], yx[i], 4.0 * eps * (std::fabs(ys[i]) + 1.0))
            << x->name << " axpy[" << i << "]";
      }

      // column sums over rows [2, 15) of a 17 x n matrix
      const Matrix ms = Matrix::Gaussian(17, n, &rng);
      std::vector<float> cs(n), cx(n);
      s->column_sums_range(ms, cs.data(), 2, 15, false);
      x->column_sums_range(ms, cx.data(), 2, 15, false);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(cs[j], cx[j], 4.0 * eps * (std::fabs(cs[j]) + 13.0))
            << x->name << " colsum[" << j << "]";
      }

      // adam
      std::vector<float> w1(n), w2(n), gg(n), m1(n), m2(n), v1(n), v2(n);
      for (size_t i = 0; i < n; ++i) {
        w1[i] = w2[i] = static_cast<float>(rng.Uniform() - 0.5);
        gg[i] = static_cast<float>(rng.Uniform() - 0.5);
        m1[i] = m2[i] = static_cast<float>(rng.Uniform() - 0.5);
        v1[i] = v2[i] = static_cast<float>(rng.Uniform());
      }
      s->adam_update(w1.data(), gg.data(), m1.data(), v1.data(), n, 1e-3f,
                     0.9f, 0.999f, 1e-8f);
      x->adam_update(w2.data(), gg.data(), m2.data(), v2.data(), n, 1e-3f,
                     0.9f, 0.999f, 1e-8f);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(w1[i], w2[i], 8.0 * eps * (std::fabs(w1[i]) + 1e-3))
            << x->name << " adam w[" << i << "]";
        EXPECT_NEAR(v1[i], v2[i], 8.0 * eps * (std::fabs(v1[i]) + 1e-6))
            << x->name << " adam v[" << i << "]";
      }
    }
  }
}

TEST(SimdKernelsTest, SincosEncodeScalarVsSimd) {
  const auto backends = SimdBackends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const KernelTable* s = GetScalarKernels();
  // x values spanning the log-compressed delta/degree range (log1p of
  // [0, 1e9] stays under ~21), decays from both call sites, dims covering
  // full vectors, masked pair tails, and odd trailing lanes — including
  // the 16-lane boundary cases of the avx512 interleave.
  const float xs[] = {0.0f, 1e-4f, 0.3f, 1.0f, 3.1415926f, 7.5f, 20.7f};
  const float decays[] = {0.5f, 0.6f, 0.9f};
  for (const KernelTable* x : backends) {
    for (float xv : xs) {
      for (float decay : decays) {
        for (size_t dim : {1, 2, 7, 8, 16, 17, 31, 32, 33, 63, 64, 65}) {
          std::vector<float> a(dim, -9.0f), b(dim, -9.0f);
          s->sincos_encode(xv, decay, a.data(), dim);
          x->sincos_encode(xv, decay, b.data(), dim);
          for (size_t j = 0; j < dim; ++j) {
            // |sin|,|cos| <= 1: the polynomial backends are within ~1e-7
            // absolute of libm on this range.
            EXPECT_NEAR(a[j], b[j], 1e-6f)
                << x->name << " x=" << xv << " decay=" << decay
                << " dim=" << dim << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, PaddedOperandsBitEqualContiguousWithinBackend) {
  // Padding changes layout, never arithmetic: each backend must produce
  // bit-identical results for padded and contiguous operands.
  Rng rng(107);
  std::vector<const KernelTable*> tables = {GetScalarKernels()};
  for (const KernelTable* t : SimdBackends()) tables.push_back(t);
  for (const KernelTable* t : tables) {
    for (size_t n : {2, 7, 16, 33}) {
      const size_t m = 19, k = 21;
      const Matrix a = Matrix::Gaussian(m, k, &rng);
      const Matrix b = Matrix::Gaussian(k, n, &rng);
      Matrix ap, bp;
      ap.ResizePadded(m, k);
      bp.ResizePadded(k, n);
      for (size_t i = 0; i < m; ++i) {
        std::memcpy(ap.Row(i), a.Row(i), k * sizeof(float));
      }
      for (size_t i = 0; i < k; ++i) {
        std::memcpy(bp.Row(i), b.Row(i), n * sizeof(float));
      }
      ASSERT_GE(ap.stride(), ap.cols());
      Matrix c(m, n);
      Matrix cp;
      cp.ResizePadded(m, n);
      t->matmul_range(a, b, &c, 0, m);
      t->matmul_range(ap, bp, &cp, 0, m);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(c(i, j), cp(i, j))
              << t->name << " padded (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(SimdKernelsTest, ResolveKernelChoiceTable) {
  // (env, cpu_has_avx2, avx2_compiled, cpu_has_avx512, avx512_compiled)
  // -> backend, every interesting cell.
  // auto / unset: widest available backend wins.
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, true, false, true), "avx2");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, true, true, false), "avx2");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, false, true, false, true),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice(nullptr, true, false, false, false),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice("auto", true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice("auto", true, true, false, false),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("auto", false, false, false, false),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice("", true, true, true, true), "avx512");
  // Explicit scalar always wins.
  EXPECT_STREQ(ResolveKernelChoice("scalar", true, true, true, true),
               "scalar");
  // Explicit avx2 ignores avx512 availability; falls back to scalar.
  EXPECT_STREQ(ResolveKernelChoice("avx2", true, true, true, true), "avx2");
  EXPECT_STREQ(ResolveKernelChoice("avx2", false, true, true, true),
               "scalar");
  EXPECT_STREQ(ResolveKernelChoice("avx2", true, false, true, true),
               "scalar");
  // Explicit avx512 falls back to the best remaining backend.
  EXPECT_STREQ(ResolveKernelChoice("avx512", true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice("avx512", true, true, false, true),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("avx512", true, true, true, false),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("avx512", false, false, false, true),
               "scalar");
  // Unknown values resolve like auto.
  EXPECT_STREQ(ResolveKernelChoice("bogus", true, true, true, true),
               "avx512");
  EXPECT_STREQ(ResolveKernelChoice("bogus", true, true, false, false),
               "avx2");
  EXPECT_STREQ(ResolveKernelChoice("bogus", false, true, false, true),
               "scalar");
}

TEST(SimdKernelsTest, SetKernelBackendForTestingSwitchesTable) {
  ASSERT_TRUE(SetKernelBackendForTesting("scalar"));
  EXPECT_STREQ(KernelBackendName(), "scalar");
  if (HaveAvx2()) {
    ASSERT_TRUE(SetKernelBackendForTesting("avx2"));
    EXPECT_STREQ(KernelBackendName(), "avx2");
  }
  if (HaveAvx512()) {
    ASSERT_TRUE(SetKernelBackendForTesting("avx512"));
    EXPECT_STREQ(KernelBackendName(), "avx512");
  }
  EXPECT_FALSE(SetKernelBackendForTesting("neon"));
  // Restore the env-resolved default for whatever runs next.
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

}  // namespace
}  // namespace splash
