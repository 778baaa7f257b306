// FFT plan: Stockham autosort mixed-radix (radix-4 with one radix-2 stage
// when log2(n) is odd) as the production transform, plus the original
// iterative radix-2 forward transform kept as a reference implementation.
//
// The OFDM PHY performs thousands of 64-point transforms per packet and the
// evaluation harness runs tens of thousands of packets, so the plan caches
// per-stage twiddle tables (64-byte aligned for the SIMD stage kernels in
// dsp/kernels) once per size. The Stockham formulation needs no bit-reversal
// permutation — each stage streams src -> dst through the kernel layer's
// vectorized butterflies — and per-thread scratch makes `forward`/`inverse`
// allocation-free in steady state.
//
// Numerics: the mixed-radix transform associates floating-point additions
// differently from the radix-2 reference (same O(eps) accuracy, different
// low bits — tests/kernels_test.cpp bounds the ulp distance). Within ONE
// implementation results are a pure function of the input: identical across
// thread counts, block sizes and FF_SIMD=ON/OFF (see kernels.hpp for the
// scalar/SIMD bitwise contract).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "dsp/kernels/workspace.hpp"

namespace ff::dsp {

/// FFT execution plan for a fixed power-of-two size. Immutable once built,
/// so a single plan may be shared freely across threads (per-thread scratch
/// lives in thread_local storage, not in the plan).
class FftPlan {
 public:
  /// `n` must be a power of two >= 2.
  explicit FftPlan(std::size_t n);

  /// Shared process-wide plan for size `n`, built on first use. Plans are
  /// immutable and never evicted, so the returned reference stays valid for
  /// the lifetime of the process and is safe to use concurrently — this is
  /// what the parallel evaluation engine's workers hit.
  static const FftPlan& cached(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT: X[k] = sum_n x[n] e^{-j 2pi k n / N}.
  void forward(CMutSpan data) const;

  /// In-place inverse DFT including the 1/N normalization.
  void inverse(CMutSpan data) const;

  /// Batched out-of-place transform of `count` contiguous length-n blocks;
  /// `in` and `out` must not overlap (FF_CHECK). This is the entry point
  /// for burst OFDM modulation — one call per burst instead of one per
  /// symbol — and each block is bit-identical to forward()/inverse() on it.
  void execute_many(CSpan in, CMutSpan out, std::size_t count, bool invert = false) const;

  /// Reference forward transform: the original iterative radix-2
  /// implementation (bit-reversal permutation + in-place butterflies). Kept
  /// for the ulp-bound test and as the baseline row in bench_micro_kernels.
  void forward_radix2(CMutSpan data) const;

 private:
  // One Stockham pass: `butterflies` butterflies of width `radix` over
  // sub-transforms of stride m; twiddles at stage_tw_[tw_offset].
  struct Stage {
    std::size_t radix;
    std::size_t butterflies;
    std::size_t m;
    std::size_t tw_offset;
  };

  void run_stages(const Complex* src, Complex* dst, Complex* scratch, bool invert) const;
  void transform_stockham(CMutSpan data, bool invert) const;

  std::size_t n_;
  std::vector<std::size_t> bitrev_;      // radix-2 reference only
  kernels::AlignedCVec twiddle_;         // radix-2 reference twiddles
  std::vector<Stage> stages_;            // mixed-radix schedule
  kernels::AlignedCVec stage_tw_;        // per-stage twiddles, forward
  kernels::AlignedCVec stage_tw_inv_;    // conjugate table
};

/// One-shot convenience transforms (shared cached plan).
CVec fft(CSpan x);
CVec ifft(CSpan x);

/// True if n is a power of two (and >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// Circular frequency shift helpers: reorder a spectrum between
/// "DC-first" (natural FFT order) and "negative-frequencies-first" layouts.
CVec fftshift(CSpan x);
CVec ifftshift(CSpan x);

/// Linear convolution of two sequences via zero-padded FFT. Scratch comes
/// from per-thread workspace slots — only the returned vector is allocated.
CVec fft_convolve(CSpan a, CSpan b);

}  // namespace ff::dsp
