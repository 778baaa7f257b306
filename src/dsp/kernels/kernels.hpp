// Vectorized complex-arithmetic kernel layer (docs/PERFORMANCE.md, "Kernel
// layer").
//
// Every IQ hot loop in the repository — FIR filtering, CFO rotation, FFT
// butterflies, correlation sums, cancellation — bottoms out in a handful of
// block primitives, and this header declares exactly the ones a program
// runs. The stream channel's noise draw runs one more: the ziggurat's fast
// path. Each op is one scalar template over the lane type (the reference,
// always compiled). Seven also have an AVX2 body (compiled when the FF_SIMD
// CMake option is ON, selected at runtime via __builtin_cpu_supports): f64
// cmul/rotate_phasor, fir, radix2_stage, radix4_stage and ziggurat_accept,
// and f32 cmul/rotate_phasor and fir. Only those seven go through a
// dispatch table; every other op calls its scalar template directly.
// `active_isa()` reports which path is live so benchmarks and telemetry can
// record it.
//
// The bitwise contract — the reason this layer can sit under the streaming
// runtime's determinism guarantees:
//
//   * Elementwise kernels (cmul, axpy, scale_real, rotate_phasor)
//     perform IDENTICAL per-element arithmetic in every ISA: the textbook
//     complex product re = ar*br - ai*bi, im = ar*bi + ai*br, no FMA
//     contraction (the kernel TUs are built -ffp-contract=off), no
//     re-association. Scalar and SIMD outputs are equal bit for bit, which
//     tests/kernels_test.cpp asserts on aligned, unaligned and odd-tail
//     spans; for the ops without an AVX2 body it asserts the formula itself.
//   * fir is axpy's arithmetic in axpy's order: each output starts at +0
//     and adds axpy's product one tap at a time, taps ascending, so it
//     equals a per-tap axpy sweep over a zeroed output bit for bit.
//   * ziggurat_accept tempers each engine word with integer operations and
//     forms u and z with exact or single IEEE operations, so every ISA
//     accepts the same words and writes the same normals.
//   * Reduction kernels (cdot_conj, magsq_accum) define their association
//     explicitly: term k accumulates into partial sum k mod 4, and the
//     result is (p0 + p1) + (p2 + p3). Receiver sync, PN detection and
//     canceller training read that exact association, and
//     tests/kernels_test.cpp pins it.
//
// Alignment: kernels accept any alignment (unaligned SIMD loads); 32-byte
// aligned storage (Workspace, AlignedCVec) is preferred for throughput.
// In-place operation is supported when an output span IS an input span
// (same pointer); partially overlapping spans are not. fir's output must
// not overlap its input at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

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

/// y[i] += alpha * x[i]. Scalar template only: dsp::convolve's scatter
/// loop is its one caller in src/, and every FIR runs fir below.
void axpy(Complex alpha, CSpan x, CMutSpan y);

/// out[i] = alpha * x[i] with a real scalar (the inverse-FFT 1/N).
void scale_real(double alpha, CSpan x, CMutSpan out);

/// out[i] = x[i] * phasor[i]: apply a precomputed unit-phasor table. Same
/// arithmetic as cmul; a distinct entry point because it is
/// channel::CfoRotator's one op (the Cfo stream element, the PHY receivers
/// and the relay's restore_cfo=false ablation).
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out);

// ------------------------------------------------------------------------ FIR

/// Block FIR: y[i] = sum_k h[k] * ext[(h.size()-1) + i*stride - k]. `ext`
/// holds h.size()-1 context samples before the first output's newest
/// sample; stride 1 filters, stride > 1 keeps every stride-th output of the
/// full-rate filter (dsp::downsample). Each output starts at +0 and adds
/// h[k] * x, re = xr*hr - xi*hi, im = xr*hi + xi*hr, taps ascending: the
/// order of dsp::BasicFirFilter::push(). Throws when h is empty, stride is
/// 0, or y overlaps the ext samples it reads.
void fir(CSpan h, const Complex* ext, CMutSpan y, std::size_t stride = 1);

// ----------------------------------------------------------------- reductions

/// sum_k conj(a[k]) * b[k] with the fixed four-lane association above.
Complex cdot_conj(CSpan a, CSpan b);

/// sum_k |x[k]|^2 (re^2 + im^2 per element, then four-lane accumulation).
double magsq_accum(CSpan x);

// ------------------------------------------------------------------ ziggurat

/// Ziggurat::operator()'s one-word fast path (common/rng.hpp) over a run of
/// untempered Mt19937_64 state words (Mt19937_64::pending()). Word k is
/// tempered into w; layer i = w & 0xFF, u = (w >> 11) * 2^-52 - 1 and
/// z = u * x[i]. While |z| < x[i + 1], out[k] = z, the normal that word
/// draws. Returns the length of that accepted prefix and writes nothing
/// past it: the word after it, if any, is the first the fast path rejects,
/// whose normal the caller draws with Ziggurat::operator() (the wedge and
/// the tail). `x` is the layer table (Ziggurat::layers(), 257 entries);
/// `out` holds at least words.size() values. dsp::add_cgaussian_zig is the
/// caller.
std::size_t ziggurat_accept(std::span<const std::uint64_t> words, RSpan x,
                            std::span<double> out);

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
// Overloads on the CSpan32/CMutSpan32 types (common/types.hpp) for the ops
// the f32 forward path runs. cmul/rotate_phasor and fir have AVX2 bodies
// at double the f64 lane count; axpy runs its scalar template.
// fir is stride 1 only: no f32 caller decimates. Same
// bitwise contract — but the f32 family is its OWN checksum family: f32
// results are deterministic across ISAs/blocks/threads yet numerically
// distinct from the double kernels (docs/PERFORMANCE.md, "The float32
// family").

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out);
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y);
void fir(CSpan32 h, const Complex32* ext, CMutSpan32 y);
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out);

// Precision edge conversion (scalar by design: one rounding per sample, the
// only place a value changes width). narrow() rounds-to-nearest into f32;
// widen() is exact, so narrow-then-widen of any f32-representable value is
// the identity (tests/kernels_test.cpp pins that).
void widen(CSpan32 x, CMutSpan out);
void narrow(CSpan x, CMutSpan32 out);

/// Allocating narrow() for configuration-time conversion (tap sets). Hot
/// paths use narrow() into workspace slots.
CVec32 narrowed(CSpan x);

// ------------------------------------------------------------ scalar reference
// The scalar templates of the ops that have an AVX2 body, always compiled:
// what tests and bench rows compare the dispatched AVX2 path against.
namespace scalar {
void cmul(CSpan a, CSpan b, CMutSpan out);
void fir(CSpan h, const Complex* ext, CMutSpan y, std::size_t stride = 1);
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out);
void radix2_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t half, std::size_t m);
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t quarter, std::size_t m, bool invert);
void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out);
void fir(CSpan32 h, const Complex32* ext, CMutSpan32 y);
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out);
std::size_t ziggurat_accept(std::span<const std::uint64_t> words, RSpan x,
                            std::span<double> out);
}  // namespace scalar

}  // namespace ff::dsp::kernels
