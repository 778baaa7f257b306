#include "dsp/kernels/workspace.hpp"

namespace ff::dsp::kernels {

template <typename T>
std::span<std::complex<T>> Workspace::get(std::size_t slot, std::size_t n) {
  Slots<T>& s = std::get<Slots<T>>(slots_);
  if (slot >= s.bufs.size()) {
    s.bufs.resize(slot + 1);
    ++s.grows;
  }
  AlignedVec<std::complex<T>>& buf = s.bufs[slot];
  if (buf.size() < n) {
    // Slot growth invalidates previous spans of THIS slot only: the
    // AlignedVec objects may move when bufs reallocates, but their heap
    // storage (what the spans point at) does not.
    buf.resize(n);
    ++s.grows;
  }
  return {buf.data(), n};
}

template <typename T>
std::size_t Workspace::bytes() const {
  std::size_t total = 0;
  for (const auto& b : std::get<Slots<T>>(slots_).bufs)
    total += b.capacity() * sizeof(std::complex<T>);
  return total;
}

void Workspace::release() {
  auto& [f64, f32] = slots_;
  f64.bufs.clear();
  f64.bufs.shrink_to_fit();
  f32.bufs.clear();
  f32.bufs.shrink_to_fit();
}

template std::span<Complex> Workspace::get<double>(std::size_t, std::size_t);
template std::span<Complex32> Workspace::get<float>(std::size_t, std::size_t);
template std::size_t Workspace::bytes<double>() const;
template std::size_t Workspace::bytes<float>() const;

}  // namespace ff::dsp::kernels
