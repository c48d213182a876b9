#include "workloads.hpp"

#include <stdexcept>

namespace pb {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "im_converge", "sem_converge", "dist_uniform", "serve_mixed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.spec.seed = seed;
  if (name == "im_converge" || name == "sem_converge") {
    // Overlapping power-law mixture: 64 components folded into 32 clusters,
    // so boundaries cut through dense regions and exact convergence has a
    // long tail of iterations in which MTI proves most rows unchanged.
    w.spec.kind = Kind::kNatural;
    w.spec.d = 16;
    w.spec.components = 64;
    w.spec.alpha = 1.0;
    w.spec.spread = 6.0;
    w.k = 32;
    w.spec.n = 250000;  // the same problem for knori and knors
    w.threads = 2;
    if (name == "im_converge") {
      w.engine = Engine::kKnori;
      w.solve_share = 0.7;
      w.nominal_solve_s = 1.0;
      w.nominal_requests_per_s = 100000;
    } else {
      // Both caches far smaller than the 32 MiB file.
      w.engine = Engine::kKnors;
      w.page_cache_bytes = 2 << 20;
      w.row_cache_bytes = 2 << 20;
      w.solve_share = 0.75;
      w.nominal_solve_s = 2.5;
      w.nominal_requests_per_s = 95000;
    }
  } else if (name == "dist_uniform") {
    // Uniform data: MTI prunes almost nothing, the kernel and the
    // per-iteration allreduce do the work.
    w.spec.kind = Kind::kUniform;
    w.spec.n = 200000;
    w.spec.d = 16;
    w.engine = Engine::kKnord;
    w.k = 64;
    w.max_iters = 20;
    w.must_converge = false;
    w.threads = 1;
    w.ranks = 3;
    w.solve_share = 0.7;
    w.nominal_solve_s = 0.85;
    w.nominal_requests_per_s = 72000;
  } else if (name == "serve_mixed") {
    // A short training solve (one centroid per well-separated component,
    // converging in a few iterations), and most of the run spent serving
    // small requests with every fourth one a top-m query.
    w.spec.kind = Kind::kNatural;
    w.spec.n = 200000;
    w.spec.d = 32;
    w.spec.components = 64;
    w.spec.alpha = 1.0;
    w.spec.spread = 8.0;
    w.engine = Engine::kKnori;
    w.k = 64;
    w.threads = 2;
    w.solve_share = 0.15;
    w.nominal_solve_s = 0.125;
    w.nominal_requests_per_s = 67000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<double> initial_centroids(const Workload& w, const Source& src) {
  const std::uint64_t d = w.spec.d;
  const auto k = static_cast<std::uint64_t>(w.k);
  std::vector<double> out(k * d);
  if (w.spec.kind == Kind::kNatural) {
    constexpr double kOffset = 0.3;
    std::vector<double> base(d);
    for (std::uint64_t c = 0; c < k; ++c) {
      const double* centre = src.base_centre(static_cast<int>(c));
      for (std::uint64_t j = 0; j < d; ++j)
        base[j] =
            centre[j] + ((c + j) % 2 == 1 ? kOffset : -kOffset);
      src.place(base.data(), &out[c * d]);
    }
  } else {
    const auto rows = pick_rows(w.spec.n, k, w.spec.seed);
    for (std::uint64_t c = 0; c < k; ++c) src.row(rows[c], &out[c * d]);
  }
  return out;
}

}  // namespace pb
