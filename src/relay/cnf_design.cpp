#include "relay/cnf_design.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "common/units.hpp"
#include "opt/optimizers.hpp"

namespace ff::relay {

CVec cnf_siso_ideal(CSpan h_sd, CSpan h_sr, CSpan h_rd) {
  FF_CHECK(h_sd.size() == h_sr.size() && h_sd.size() == h_rd.size());
  CVec f(h_sd.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    const Complex relay_path = h_rd[i] * h_sr[i];
    if (std::abs(relay_path) < 1e-30) {
      f[i] = Complex{1.0, 0.0};
      continue;
    }
    // If the direct path is dead, any phase works; align to real axis.
    const double theta =
        std::abs(h_sd[i]) > 1e-30 ? std::arg(h_sd[i]) - std::arg(relay_path)
                                  : -std::arg(relay_path);
    f[i] = Complex{std::cos(theta), std::sin(theta)};
  }
  return f;
}

CVec combined_channel_siso(CSpan h_sd, CSpan h_sr, CSpan h_rd, CSpan filter,
                           double amp_linear) {
  FF_CHECK(h_sd.size() == h_sr.size() && h_sd.size() == h_rd.size() &&
           h_sd.size() == filter.size());
  CVec out(h_sd.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = h_sd[i] + h_rd[i] * filter[i] * amp_linear * h_sr[i];
  return out;
}

std::size_t unitary_param_count(std::size_t k) {
  return k * (k - 1) / 2 + k * (k + 1) / 2;  // = k*k
}

namespace {

/// Storage the MIMO design reuses across objective evaluations: the unitary
/// F with the Givens rotation being applied and the product's other buffer,
/// then H_rd F A, the relayed path (H_rd F A) H_sr and the combined channel
/// (whose LU factors the determinant leaves in place). Each matrix allocates
/// the first time it holds a K x K product and never again.
struct MimoScratch {
  linalg::Matrix u, g, u_next;
  linalg::Matrix rd_f, relay;
  linalg::Matrix combined;
};

/// unitary_from_params into s.u.
void build_unitary(std::span<const double> params, std::size_t k, MimoScratch& s) {
  FF_CHECK(params.size() == unitary_param_count(k));
  // Start from a diagonal of phases, then apply Givens rotations (each with
  // its own phase) on every pair (p, q). This parameterization is surjective
  // onto U(k).
  std::size_t idx = 0;
  s.u.set_zero(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    const double phi = params[idx++];
    s.u(i, i) = Complex{std::cos(phi), std::sin(phi)};
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t q = p + 1; q < k; ++q) {
      const double theta = params[idx++];
      const double phi = params[idx++];
      linalg::Matrix& g = s.g;
      g.set_zero(k, k);
      for (std::size_t i = 0; i < k; ++i) g(i, i) = 1.0;
      const double c = std::cos(theta), sn = std::sin(theta);
      const Complex e{std::cos(phi), std::sin(phi)};
      g(p, p) = c;
      g(p, q) = -sn * std::conj(e);
      g(q, p) = sn * e;
      g(q, q) = c;
      linalg::multiply(g, s.u, s.u_next);  // u = g * u
      std::swap(s.u, s.u_next);
    }
  }
}

/// combined_channel_mimo into `out`: ((H_rd F) A) H_sr, then H_sd added.
void combine(const linalg::Matrix& h_sd, const linalg::Matrix& h_sr,
             const linalg::Matrix& h_rd, const linalg::Matrix& filter, double amp_linear,
             MimoScratch& s, linalg::Matrix& out) {
  linalg::multiply(h_rd, filter, s.rd_f);
  s.rd_f *= Complex{amp_linear, 0.0};
  linalg::multiply(s.rd_f, h_sr, s.relay);
  out = h_sd;
  out += s.relay;
}

}  // namespace

linalg::Matrix unitary_from_params(std::span<const double> params, std::size_t k) {
  MimoScratch s;
  build_unitary(params, k, s);
  return std::move(s.u);
}

linalg::Matrix combined_channel_mimo(const linalg::Matrix& h_sd, const linalg::Matrix& h_sr,
                                     const linalg::Matrix& h_rd, const linalg::Matrix& filter,
                                     double amp_linear) {
  MimoScratch s;
  linalg::Matrix out;
  combine(h_sd, h_sr, h_rd, filter, amp_linear, s, out);
  return out;
}

CnfMimoResult cnf_mimo_design(const linalg::Matrix& h_sd, const linalg::Matrix& h_sr,
                              const linalg::Matrix& h_rd, double amp_linear,
                              const std::vector<double>* warm_start) {
  const std::size_t k = h_rd.cols();
  FF_CHECK(h_sr.rows() == k);
  FF_CHECK(h_sd.is_square());

  MimoScratch s;
  const opt::Objective objective = [&](const std::vector<double>& params) {
    build_unitary(params, k, s);
    combine(h_sd, h_sr, h_rd, s.u, amp_linear, s, s.combined);
    return -std::abs(linalg::determinant_in_place(s.combined));  // minimize the negative
  };

  // Multi-start Nelder-Mead: the objective is non-convex with phase
  // wrap-around, a handful of starts finds the global basin reliably for
  // the K <= 4 sizes relays have.
  const std::size_t np = unitary_param_count(k);
  opt::NelderMeadOptions nm;
  nm.initial_step = 0.8;
  nm.max_iterations = 600;
  nm.tolerance = 1e-12;

  opt::OptResult best;
  best.value = 1e300;
  if (warm_start != nullptr && warm_start->size() == np) {
    opt::NelderMeadOptions warm = nm;
    warm.initial_step = 0.15;
    warm.max_iterations = 200;
    best = opt::nelder_mead(objective, *warm_start, warm);
  } else {
    for (int start = 0; start < 5; ++start) {
      std::vector<double> x0(np, 0.0);
      for (std::size_t d = 0; d < np; ++d)
        x0[d] = (static_cast<double>(((start + 1) * 2654435761u + d * 40503u) % 1000) /
                     1000.0 -
                 0.5) * kTwoPi;
      const auto r = opt::nelder_mead(objective, x0, nm);
      if (r.value < best.value) best = r;
    }
  }

  CnfMimoResult out;
  build_unitary(best.x, k, s);
  out.filter = s.u;
  out.params = std::move(best.x);
  out.objective = -best.value;
  out.baseline = std::abs(linalg::determinant(h_sd));
  return out;
}

}  // namespace ff::relay
