// The four workloads: what data each generates, which engine solves it and
// how its serving is shaped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace pb {

enum class Engine { kKnori, kKnors, kKnord };

// Serving has one shape on every workload: one closed-loop client over the
// held-out rows [n, n + kQueryRows).
inline constexpr std::uint64_t kQueryRows = 1 << 16;
inline constexpr std::uint64_t kRequestRows = 8;
inline constexpr std::uint64_t kTopmEvery = 4;  ///< every 4th request is top-m
inline constexpr int kTopm = 3;
inline constexpr std::size_t kPipeline = 8;  ///< requests in flight
inline constexpr int kFrontEndWorkers = 1;
/// The measured phase alternates kRounds times between solving and serving.
inline constexpr std::size_t kRounds = 24;

struct Workload {
  std::string name;
  Spec spec;                 ///< the dataset written to <name>.kmat
  Engine engine = Engine::kKnori;
  int k = 32;
  int max_iters = 100000;
  bool must_converge = true; ///< tolerance 0, checked `converged`
  int threads = 4;           ///< knori/knors workers; knord threads per rank
  int ranks = 4;             ///< knord ranks (also the allreduce probe's)
  std::size_t page_cache_bytes = 0;
  std::size_t row_cache_bytes = 0;
  /// Share of --seconds spent solving; the rest serves.
  double solve_share = 0.7;
  /// Sizes the solves: a run makes max(1, round(solve_share * --seconds /
  /// nominal_solve_s)) of them, a fixed count, so every run does the same
  /// work and solves for about its share of the run on this kind of
  /// machine.
  double nominal_solve_s = 1.5;
  /// Sizes the serving the same way: (1 - solve_share) * --seconds *
  /// nominal_requests_per_s requests, rounded up to whole latency windows
  /// per round.
  double nominal_requests_per_s = 80000;
};

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The workload `name` with rows drawn from `seed`. Throws on an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Initial centroids (k x d, row-major): component centres offset by +-0.3
/// per coordinate, moved by the seed's isometry (kNatural), or k rows drawn
/// from the seed (kUniform).
std::vector<double> initial_centroids(const Workload& w, const Source& src);

}  // namespace pb
