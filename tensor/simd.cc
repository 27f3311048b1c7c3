// Copyright 2026 The SPLASH Reproduction Authors.
//
// Backend resolution for the kernel table (DESIGN.md §6): one atomic
// pointer, resolved from SPLASH_KERNEL + cpuid on first use. The resolution
// logic itself is a pure function so tests can pin every (env, cpu) cell.

#include "tensor/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace splash {

namespace {

std::atomic<const KernelTable*> g_kernels{nullptr};

const KernelTable* TableByName(const char* name) {
  if (std::strcmp(name, "avx512") == 0) return GetAvx512Kernels();
  if (std::strcmp(name, "avx2") == 0) return GetAvx2Kernels();
  return GetScalarKernels();
}

const KernelTable* ResolveFromEnvironment() {
  return TableByName(ResolveKernelChoice(std::getenv("SPLASH_KERNEL"),
                                         CpuSupportsAvx2Fma(),
                                         GetAvx2Kernels() != nullptr,
                                         CpuSupportsAvx512(),
                                         GetAvx512Kernels() != nullptr));
}

}  // namespace

bool CpuSupportsAvx2Fma() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

std::string CpuFeatureString() {
  std::string s;
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) s += "avx2";
  if (__builtin_cpu_supports("fma")) s += s.empty() ? "fma" : "+fma";
  if (__builtin_cpu_supports("avx512f")) s += "+avx512f";
  if (__builtin_cpu_supports("avx512vl")) s += "+avx512vl";
  if (__builtin_cpu_supports("avx512dq")) s += "+avx512dq";
#endif
  if (s.empty()) s = "baseline";
  return s;
}

const char* ResolveKernelChoice(const char* env, bool cpu_has_avx2,
                                bool avx2_compiled, bool cpu_has_avx512,
                                bool avx512_compiled) {
  const bool avx2_ok = cpu_has_avx2 && avx2_compiled;
  const bool avx512_ok = cpu_has_avx512 && avx512_compiled;
  const char* best = avx512_ok ? "avx512" : avx2_ok ? "avx2" : "scalar";
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return best;
  }
  if (std::strcmp(env, "scalar") == 0) return "scalar";
  if (std::strcmp(env, "avx2") == 0) {
    if (avx2_ok) return "avx2";
    std::fprintf(stderr,
                 "splash: SPLASH_KERNEL=avx2 but %s; falling back to the "
                 "scalar backend\n",
                 avx2_compiled ? "this CPU lacks AVX2/FMA"
                               : "the AVX2 backend was not compiled in");
    return "scalar";
  }
  if (std::strcmp(env, "avx512") == 0) {
    if (avx512_ok) return "avx512";
    const char* fallback = avx2_ok ? "avx2" : "scalar";
    std::fprintf(
        stderr,
        "splash: SPLASH_KERNEL=avx512 but %s; falling back to the %s "
        "backend\n",
        avx512_compiled ? "this CPU lacks AVX-512 F/VL/DQ"
                        : "the AVX-512 backend was not compiled in",
        fallback);
    return fallback;
  }
  std::fprintf(stderr,
               "splash: unknown SPLASH_KERNEL value '%s' (want scalar, "
               "avx2, avx512, or auto); using auto\n",
               env);
  return best;
}

const KernelTable& Kernels() {
  const KernelTable* t = g_kernels.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first callers resolve to the same table.
    t = ResolveFromEnvironment();
    g_kernels.store(t, std::memory_order_release);
  }
  return *t;
}

const char* KernelBackendName() { return Kernels().name; }

bool SetKernelBackendForTesting(const char* name) {
  const KernelTable* t;
  if (name == nullptr || std::strcmp(name, "auto") == 0) {
    t = ResolveFromEnvironment();
  } else if (std::strcmp(name, "scalar") == 0) {
    t = GetScalarKernels();
  } else if (std::strcmp(name, "avx2") == 0) {
    t = GetAvx2Kernels();
    if (t == nullptr || !CpuSupportsAvx2Fma()) return false;
  } else if (std::strcmp(name, "avx512") == 0) {
    t = GetAvx512Kernels();
    if (t == nullptr || !CpuSupportsAvx512()) return false;
  } else {
    return false;
  }
  g_kernels.store(t, std::memory_order_release);
  return true;
}

namespace {

/// Reads one sysfs cache attribute ("level", "type", "size") for
/// cpu0/cache/index<idx>. Returns false on any I/O failure.
bool ReadCacheAttr(int idx, const char* attr, char* buf, size_t buf_len) {
  char path[128];
  std::snprintf(path, sizeof(path),
                "/sys/devices/system/cpu/cpu0/cache/index%d/%s", idx, attr);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  const bool ok = std::fgets(buf, static_cast<int>(buf_len), f) != nullptr;
  std::fclose(f);
  if (!ok) return false;
  // Trim the trailing newline.
  const size_t len = std::strlen(buf);
  if (len > 0 && buf[len - 1] == '\n') buf[len - 1] = '\0';
  return true;
}

/// Parses sysfs cache sizes: "48K", "2048K", "1M", plain bytes.
size_t ParseCacheSize(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s) return 0;
  if (*end == 'K' || *end == 'k') return static_cast<size_t>(v) << 10;
  if (*end == 'M' || *end == 'm') return static_cast<size_t>(v) << 20;
  if (*end == 'G' || *end == 'g') return static_cast<size_t>(v) << 30;
  return static_cast<size_t>(v);
}

CacheTopology ProbeCacheTopology() {
  // Conservative fallback: small-L2 sizing only costs extra k-blocks,
  // never correctness (packed results are bit-identical at any block
  // size on a given backend).
  CacheTopology t{32u << 10, 1u << 20, 0, false};
  size_t l1d = 0, l2 = 0, l3 = 0;
  char level[32], type[32], size[32];
  for (int idx = 0; idx < 8; ++idx) {
    if (!ReadCacheAttr(idx, "level", level, sizeof(level)) ||
        !ReadCacheAttr(idx, "type", type, sizeof(type)) ||
        !ReadCacheAttr(idx, "size", size, sizeof(size))) {
      break;  // indices are contiguous; the first miss ends the scan
    }
    const size_t bytes = ParseCacheSize(size);
    if (bytes == 0) continue;
    if (std::strcmp(level, "1") == 0 && std::strcmp(type, "Data") == 0) {
      l1d = bytes;
    } else if (std::strcmp(level, "2") == 0 &&
               std::strcmp(type, "Instruction") != 0) {
      l2 = bytes;
    } else if (std::strcmp(level, "3") == 0 &&
               std::strcmp(type, "Instruction") != 0) {
      l3 = bytes;
    }
  }
  if (l1d > 0 && l2 > 0) {
    t.l1d_bytes = l1d;
    t.l2_bytes = l2;
    t.l3_bytes = l3;
    t.detected = true;
  }
  return t;
}

}  // namespace

const CacheTopology& DetectCacheTopology() {
  static const CacheTopology topology = ProbeCacheTopology();
  return topology;
}

std::string CacheTopologyString() {
  const CacheTopology& t = DetectCacheTopology();
  std::string s = "l1d=" + std::to_string(t.l1d_bytes) +
                  ",l2=" + std::to_string(t.l2_bytes) +
                  ",l3=" + std::to_string(t.l3_bytes);
  if (!t.detected) s += ",fallback";
  return s;
}

}  // namespace splash
