// Vectorized complex-arithmetic kernel layer (docs/PERFORMANCE.md, "Kernel
// layer").
//
// Every IQ hot loop in the repository — FIR filtering, CFO rotation, FFT
// butterflies, correlation sums, cancellation — bottoms out in a handful of
// block primitives. This header is their single home: a scalar reference
// implementation (namespace kernels::scalar, always compiled; one template
// per op over the lane type, instantiated for double and float) plus an AVX2
// path (compiled when the FF_SIMD CMake option is ON, selected at runtime via
// __builtin_cpu_supports). The AVX2 path has bodies only for the ops the
// relay's timed paths run — cmul/rotate_phasor and axpy at both widths, the
// f64 radix2_stage/radix4_stage — and dispatches every other op to its
// scalar template. Callers use the dispatched free functions; `active_isa()`
// reports which path is live so benchmarks and telemetry can record it.
//
// The bitwise contract — the reason this layer can sit under the streaming
// runtime's determinism guarantees:
//
//   * Elementwise kernels (cmul, cmac, axpy, scale, rotate_phasor, split,
//     interleave) perform IDENTICAL per-element arithmetic in every ISA:
//     the textbook complex product re = ar*br - ai*bi, im = ar*bi + ai*br,
//     no FMA contraction (the kernel TUs are built -ffp-contract=off), no
//     re-association. Scalar and SIMD outputs are equal bit for bit, which
//     tests/kernels_test.cpp asserts on aligned, unaligned and odd-tail
//     spans.
//   * Reduction kernels (cdot_conj, magsq_accum) define their association
//     explicitly: term k accumulates into partial sum k mod 4, and the
//     result is (p0 + p1) + (p2 + p3). The scalar reference implements the
//     same four-lane schedule, so SIMD and scalar reductions are also
//     bitwise equal — a deterministic function of the input alone.
//
// Alignment: kernels accept any alignment (unaligned SIMD loads); 32-byte
// aligned storage (Workspace, AlignedCVec) is preferred for throughput.
// In-place operation is supported when an output span IS an input span
// (same pointer); partially overlapping spans are not.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace ff::dsp::kernels {

/// Instruction set the dispatched kernels are running on. The values are
/// the `ff.kernels.isa` gauge's; 1 belonged to the retired SSE2 path.
enum class Isa { kScalar = 0, kAvx2 = 2 };

/// The ISA resolved at process start: AVX2 when it is compiled in and the
/// CPU has it, otherwise the scalar reference. A FF_SIMD=OFF build (the
/// `release-nosimd` preset) always runs scalar.
Isa active_isa();

const char* isa_name(Isa isa);
/// isa_name(active_isa()) — what bench JSON and telemetry record.
const char* isa_name();

/// True when this build compiled the SIMD paths (FF_SIMD=ON on x86-64).
bool simd_compiled();

// ---------------------------------------------------------------- elementwise

/// out[i] = a[i] * b[i]. `out` may alias `a` or `b` exactly.
void cmul(CSpan a, CSpan b, CMutSpan out);

/// acc[i] += a[i] * b[i]. `acc` must not alias `a`/`b`.
void cmac(CSpan a, CSpan b, CMutSpan acc);

/// y[i] += alpha * x[i]. The FIR workhorse: a block convolution is one axpy
/// per tap, which preserves the tap-ascending accumulation order of the
/// sample-at-a-time reference (see FirFilter::process_into).
void axpy(Complex alpha, CSpan x, CMutSpan y);

/// out[i] = alpha * x[i]. In-place allowed.
void scale(Complex alpha, CSpan x, CMutSpan out);

/// out[i] = alpha * x[i] with a real scalar (the inverse-FFT 1/N).
void scale_real(double alpha, CSpan x, CMutSpan out);

/// out[i] = x[i] * phasor[i]: apply a precomputed unit-phasor table (CFO
/// rotate/restore). Same arithmetic as cmul; a distinct entry point because
/// rotators are a named stage of the relay's forward path.
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out);

// ----------------------------------------------------------------- reductions

/// sum_k conj(a[k]) * b[k] with the fixed four-lane association above.
Complex cdot_conj(CSpan a, CSpan b);

/// sum_k |x[k]|^2 (re^2 + im^2 per element, then four-lane accumulation).
double magsq_accum(CSpan x);

// -------------------------------------------------------- layout conversion

/// Deinterleave IQ pairs into split re/im arrays (planar layout).
void split(CSpan x, std::span<double> re, std::span<double> im);

/// Interleave split re/im arrays back into IQ pairs.
void interleave(std::span<const double> re, std::span<const double> im, CMutSpan out);

// ------------------------------------------------------------- FFT butterflies
// Stage kernels for the Stockham mixed-radix FFT (dsp::FftPlan). `src` and
// `dst` are distinct n-sample buffers; `tw` points at the stage's twiddle
// run (1 entry per butterfly for radix-2, a {w, w^2, w^3} triple for
// radix-4). `half`/`quarter` is the butterfly count, `m` the intra-stage
// stride. Twiddle tables are pre-conjugated for the inverse transform;
// radix-4 additionally needs `invert` for its +/-i rotation.

void radix2_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t half, std::size_t m);
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t quarter, std::size_t m, bool invert);

// ------------------------------------------------------------ float32 family
// Overloads on the CSpan32/CMutSpan32 types (common/types.hpp): the same
// kernels with float lanes. cmul/rotate_phasor and axpy have AVX2 bodies at
// double the f64 lane count; the other f32 ops, the FFT stages included, run
// their scalar template. Same bitwise scalar==SIMD contract, same four-lane
// reduction schedule — but the f32 family is its OWN checksum family: f32
// results are deterministic across ISAs/blocks/threads yet numerically
// distinct from the double kernels (docs/PERFORMANCE.md, "The float32
// family").

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out);
void cmac(CSpan32 a, CSpan32 b, CMutSpan32 acc);
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y);
void scale(Complex32 alpha, CSpan32 x, CMutSpan32 out);
void scale_real(float alpha, CSpan32 x, CMutSpan32 out);
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out);
Complex32 cdot_conj(CSpan32 a, CSpan32 b);
float magsq_accum(CSpan32 x);
void split(CSpan32 x, std::span<float> re, std::span<float> im);
void interleave(std::span<const float> re, std::span<const float> im, CMutSpan32 out);
void radix2_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t half, std::size_t m);
void radix4_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t quarter, std::size_t m, bool invert);

// Precision edge conversion (scalar by design: one rounding per sample, the
// only place a value changes width). narrow() rounds-to-nearest into f32;
// widen() is exact, so narrow-then-widen of any f32-representable value is
// the identity (tests/kernels_test.cpp pins that).
void widen(CSpan32 x, CMutSpan out);
void narrow(CSpan x, CMutSpan32 out);

/// Allocating conveniences for configuration-time conversion (tap sets,
/// twiddle constants). Hot paths use narrow()/widen() into workspace slots.
CVec32 narrowed(CSpan x);
CVec widened(CSpan32 x);

// ------------------------------------------------------------ scalar reference
// Always compiled; what the dispatched functions fall back to, and what
// tests/bench compare the SIMD paths against.
namespace scalar {
void cmul(CSpan a, CSpan b, CMutSpan out);
void cmac(CSpan a, CSpan b, CMutSpan acc);
void axpy(Complex alpha, CSpan x, CMutSpan y);
void scale(Complex alpha, CSpan x, CMutSpan out);
void scale_real(double alpha, CSpan x, CMutSpan out);
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out);
Complex cdot_conj(CSpan a, CSpan b);
double magsq_accum(CSpan x);
void split(CSpan x, std::span<double> re, std::span<double> im);
void interleave(std::span<const double> re, std::span<const double> im, CMutSpan out);
void radix2_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t half, std::size_t m);
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t quarter, std::size_t m, bool invert);
void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out);
void cmac(CSpan32 a, CSpan32 b, CMutSpan32 acc);
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y);
void scale(Complex32 alpha, CSpan32 x, CMutSpan32 out);
void scale_real(float alpha, CSpan32 x, CMutSpan32 out);
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out);
Complex32 cdot_conj(CSpan32 a, CSpan32 b);
float magsq_accum(CSpan32 x);
void split(CSpan32 x, std::span<float> re, std::span<float> im);
void interleave(std::span<const float> re, std::span<const float> im, CMutSpan32 out);
void radix2_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t half, std::size_t m);
void radix4_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t quarter, std::size_t m, bool invert);
}  // namespace scalar

}  // namespace ff::dsp::kernels
