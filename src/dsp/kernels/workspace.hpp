// Reusable aligned scratch arena for the DSP hot paths.
//
// Every block-processing call used to allocate its temporaries (`CVec ext`,
// phasor tables, reconstruction buffers) per invocation; a Workspace turns
// those into grow-only slots that reach steady-state size after the first
// few blocks and never touch the heap again. ForwardPipeline and the stream
// elements own one Workspace each and thread it through their stage calls;
// `grows()`/`bytes()` back the `ff.alloc.*` telemetry that proves the
// steady state is allocation-free (tests/kernels_test.cpp additionally
// asserts it with an operator-new hook).
//
// Slots are independent buffers: a span returned by `get<T>(slot, n)` stays
// valid until the SAME slot of the same lane type is requested with a
// larger n. Callers that nest (e.g. CancellerElement holding slot-1/2
// outputs across FirFilter::process_into, which uses slot 0 internally)
// rely on that.
// Workspace is not thread-safe; one per owning element/pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <tuple>
#include <vector>

#include "common/types.hpp"

namespace ff::dsp::kernels {

/// Minimal aligned allocator routing through ::operator new so allocation
/// hooks (the zero-alloc test, sanitizers) observe workspace growth.
template <typename T, std::size_t kAlign = 64>
struct AlignedAllocator {
  using value_type = T;
  // allocator_traits cannot auto-rebind past the non-type kAlign parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };
  static_assert(kAlign >= alignof(T) && (kAlign & (kAlign - 1)) == 0);

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, kAlign>&) const noexcept {
    return true;
  }
};

/// 64-byte-aligned vector: twiddle tables, FFT scratch, workspaces.
template <typename Sample>
using AlignedVec = std::vector<Sample, AlignedAllocator<Sample>>;
using AlignedCVec = AlignedVec<Complex>;
using AlignedCVec32 = AlignedVec<Complex32>;

class Workspace {
 public:
  /// Aligned scratch span of `n` complex<T> samples for `slot`; contents
  /// are unspecified (callers overwrite). Grows the slot if needed — steady
  /// state performs no allocation. Each lane type T (double, the default,
  /// or float) has its own slot namespace: get<float>(0, n) and get(0, n)
  /// are distinct buffers, so mixed-precision stages can hold spans of both
  /// without aliasing.
  template <typename T = double>
  std::span<std::complex<T>> get(std::size_t slot, std::size_t n);

  /// Number of allocations performed so far by the lane-type-T slots (slot
  /// growth events) — the `ff.alloc.workspace_grows` and
  /// `ff.alloc.workspace_f32_grows` telemetry.
  template <typename T = double>
  std::uint64_t grows() const {
    return std::get<Slots<T>>(slots_).grows;
  }

  /// Total bytes currently held by the lane-type-T slots.
  template <typename T = double>
  std::size_t bytes() const;

  /// Drop all slots of both lane types (allocation counters are preserved).
  void release();

 private:
  template <typename T>
  struct Slots {
    std::vector<AlignedVec<std::complex<T>>> bufs;
    std::uint64_t grows = 0;
  };
  std::tuple<Slots<double>, Slots<float>> slots_;
};

}  // namespace ff::dsp::kernels
