#include "opt/optimizers.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ff::opt {

OptResult nelder_mead(const Objective& f, std::vector<double> x0,
                      const NelderMeadOptions& opts) {
  FF_CHECK(!x0.empty());
  const std::size_t n = x0.size();

  // Build the initial simplex: x0 plus a perturbation along each axis.
  std::vector<std::vector<double>> simplex(n + 1, x0);
  for (std::size_t i = 0; i < n; ++i) simplex[i + 1][i] += opts.initial_step;
  std::vector<double> values(n + 1);
  for (std::size_t i = 0; i <= n; ++i) values[i] = f(simplex[i]);

  constexpr double alpha = 1.0;   // reflection
  constexpr double gamma = 2.0;   // expansion
  constexpr double rho = 0.5;     // contraction
  constexpr double sigma = 0.5;   // shrink

  // Per-iteration storage, reused: the vertex order, the centroid, the
  // reflected point and one trial point (expansion or contraction).
  std::vector<std::size_t> order(n + 1);
  std::vector<double> centroid(n);
  std::vector<double> reflected(n);
  std::vector<double> trial(n);

  std::size_t iter = 0;
  for (; iter < opts.max_iterations; ++iter) {
    // Order the simplex by objective value.
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });

    const std::size_t best = order[0], worst = order[n], second_worst = order[n - 1];
    if (values[worst] - values[best] < opts.tolerance) break;

    // Centroid of all but the worst vertex.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    const auto blend = [&](double coeff, std::vector<double>& p) {
      for (std::size_t d = 0; d < n; ++d)
        p[d] = centroid[d] + coeff * (centroid[d] - simplex[worst][d]);
    };

    // Replacing the worst vertex swaps storage with the accepted point; the
    // old vertex becomes scratch for the next iteration.
    blend(alpha, reflected);
    const double fr = f(reflected);
    if (fr < values[best]) {
      blend(gamma, trial);
      const double fe = f(trial);
      if (fe < fr) {
        simplex[worst].swap(trial);
        values[worst] = fe;
      } else {
        simplex[worst].swap(reflected);
        values[worst] = fr;
      }
      continue;
    }
    if (fr < values[second_worst]) {
      simplex[worst].swap(reflected);
      values[worst] = fr;
      continue;
    }
    blend(-rho, trial);
    const double fc = f(trial);
    if (fc < values[worst]) {
      simplex[worst].swap(trial);
      values[worst] = fc;
      continue;
    }
    // Shrink towards the best vertex.
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t d = 0; d < n; ++d)
        simplex[i][d] = simplex[best][d] + sigma * (simplex[i][d] - simplex[best][d]);
      values[i] = f(simplex[i]);
    }
  }

  const std::size_t best =
      static_cast<std::size_t>(std::min_element(values.begin(), values.end()) - values.begin());
  return {simplex[best], values[best], iter};
}

}  // namespace ff::opt
