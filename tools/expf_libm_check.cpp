// Exhaustive check of tensor::expf against the host C library's expf.
//
// tensor::expf reproduces glibc 2.36's expf bit for bit (see
// src/tensor/ops.cpp), so digests do not depend on the host's libm. This
// program states whether the host's libm agrees: it compares the two on
// all 2^32 float inputs, under the default MXCSR and under flush-to-zero
// with denormals-are-zero, on four threads, and does the same for the
// AVX2 eight-lane kernel where the build and the CPU carry it. It prints
// the C library's version and exits non-zero on any difference.
//
// Its answer depends on the host, so it is a build target, not a test:
//   cmake --build build --target expf_libm_check && ./build/expf_libm_check
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif
#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "common/cpu.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd_kernels.hpp"

namespace {

constexpr unsigned kThreads = 4;
constexpr unsigned kFtzDaz = (1u << 15) | (1u << 6);  // MXCSR bits

struct Mismatches {
  std::uint64_t scalar = 0;
  std::uint64_t avx2 = 0;
  std::uint32_t first_scalar = 0;  // an input that differed, if any
  std::uint32_t first_avx2 = 0;
};

std::uint32_t bits_of(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

// Inputs [lo, hi) of the 2^32 bit patterns, eight at a time.
void check_range(std::uint64_t lo, std::uint64_t hi, bool ftz_daz,
                 semcache::tensor::detail::Expf8Fn expf8, Mismatches& out) {
#if defined(__SSE__)
  if (ftz_daz) _mm_setcsr(_mm_getcsr() | kFtzDaz);
#else
  (void)ftz_daz;
#endif
  float x[8], lanes[8];
  for (std::uint64_t base = lo; base < hi; base += 8) {
    for (std::uint32_t k = 0; k < 8; ++k) {
      const auto b = static_cast<std::uint32_t>(base + k);
      std::memcpy(&x[k], &b, sizeof b);
    }
    if (expf8 != nullptr) expf8(x, lanes);
    for (std::uint32_t k = 0; k < 8; ++k) {
      const std::uint32_t want = bits_of(::expf(x[k]));
      if (bits_of(semcache::tensor::expf(x[k])) != want &&
          out.scalar++ == 0) {
        out.first_scalar = static_cast<std::uint32_t>(base + k);
      }
      if (expf8 != nullptr && bits_of(lanes[k]) != want && out.avx2++ == 0) {
        out.first_avx2 = static_cast<std::uint32_t>(base + k);
      }
    }
  }
}

}  // namespace

int main() {
#if defined(__GLIBC__)
  std::printf("C library: glibc %s\n", gnu_get_libc_version());
#else
  std::printf("C library: not glibc\n");
#endif
  const semcache::tensor::detail::Avx2TensorKernels* kernels =
      semcache::tensor::detail::avx2_tensor_kernels();
  const semcache::common::CpuFeatures& cpu = semcache::common::cpu_features();
  const semcache::tensor::detail::Expf8Fn expf8 =
      kernels != nullptr && cpu.avx2 && cpu.fma ? kernels->expf8 : nullptr;
  std::printf("AVX2 eight-lane kernel: %s\n",
              expf8 != nullptr ? "checked" : "not in this build or CPU");

  bool clean = true;
  for (const bool ftz_daz : {false, true}) {
    std::vector<Mismatches> parts(kThreads);
    std::vector<std::thread> workers;
    constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back(check_range, kAll / kThreads * t,
                           kAll / kThreads * (t + 1), ftz_daz, expf8,
                           std::ref(parts[t]));
    }
    for (std::thread& w : workers) w.join();
    Mismatches total;
    for (const Mismatches& m : parts) {
      if (m.scalar != 0 && total.scalar == 0) {
        total.first_scalar = m.first_scalar;
      }
      if (m.avx2 != 0 && total.avx2 == 0) total.first_avx2 = m.first_avx2;
      total.scalar += m.scalar;
      total.avx2 += m.avx2;
    }
    const char* mode = ftz_daz ? "FTZ/DAZ" : "default MXCSR";
    std::printf("%s: scalar %llu differences", mode,
                static_cast<unsigned long long>(total.scalar));
    if (total.scalar != 0) std::printf(" (first 0x%08x)", total.first_scalar);
    if (expf8 != nullptr) {
      std::printf(", avx2 %llu differences",
                  static_cast<unsigned long long>(total.avx2));
      if (total.avx2 != 0) std::printf(" (first 0x%08x)", total.first_avx2);
    }
    std::printf(" over 2^32 inputs\n");
    clean = clean && total.scalar == 0 && total.avx2 == 0;
  }
  std::printf("%s\n", clean ? "expf matches the host libm"
                            : "expf DIFFERS from the host libm");
  return clean ? 0 : 1;
}
