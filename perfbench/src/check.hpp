// Output checker, independent of the library: its own scalar
// double-precision distance and argmin (lowest index wins ties). A claimed
// argmin that is not the checker's is still accepted when its distance is
// within kTieEps (relative) of the checker's minimum, since the library's
// SIMD kernels may round a near-tie the other way.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb::check {

/// Relative tolerance for near-ties and for distances the program reports.
inline constexpr double kTieEps = 1e-9;
/// Relative tolerance for centroid means and energies, which the program
/// sums in another order than the checker.
inline constexpr double kSumEps = 1e-8;

/// Collected failures; empty means every check passed. Keeps the first few
/// messages and counts the rest.
class Report {
 public:
  void fail(const std::string& what);
  bool ok() const { return count_ == 0; }
  std::string summary() const;
  void merge(const Report& other);

 private:
  std::uint64_t count_ = 0;
  std::vector<std::string> first_;
};

double dist_sq(const double* a, const double* b, std::uint64_t d);

struct Nearest {
  std::uint32_t index = 0;
  double dist_sq = 0;
};
/// Argmin over k row-major centroids; ties go to the lowest index.
Nearest nearest(const double* x, const double* centroids, int k,
                std::uint64_t d);

/// Fills rows [begin, end) of the dataset, row-major.
using RowFn =
    std::function<void(std::uint64_t begin, std::uint64_t end, double* out)>;

/// A clustering as the program reported it.
struct Clustering {
  std::uint64_t n = 0;
  std::uint64_t d = 0;
  int k = 0;
  const std::uint32_t* assignments = nullptr;  // n
  const double* centroids = nullptr;           // k x d
  const std::uint64_t* sizes = nullptr;        // k
  double energy = 0;
};

struct ClusteringChecks {
  /// Every row's assignment is its nearest final centroid.
  bool nearest = true;
  /// When non-null (k x d): the final energy must not exceed the energy of
  /// these initial centroids (Lloyd's energy never rises).
  const double* initial_centroids = nullptr;
};

/// One streaming pass over the rows (fetched in chunks from `rows`, on
/// `threads` threads): assignments in range, sizes sum to n and match the
/// assignments, every non-empty centroid is the mean of its rows, the
/// recomputed energy equals the reported one, plus the optional checks.
Report check_clustering(const RowFn& rows, const Clustering& c,
                        const ClusteringChecks& what, int threads);

/// An assignment response for `nrows` rows: per row the nearest centroid
/// (near-ties accepted) and its squared distance.
Report check_assign(const double* rows, std::uint64_t nrows,
                    const double* centroids, int k, std::uint64_t d,
                    const std::uint32_t* assign, const double* dist);

/// A top-m entry as the program reports it.
struct Entry {
  std::uint32_t cluster = 0;
  double dist_sq = 0;
};

/// A top-m response: per row `m` entries ascending by (distance, index),
/// each distance equal to the checker's, no unlisted centroid closer than
/// the last listed one, and entry 0 equal to the row's assignment.
Report check_topm(const double* rows, std::uint64_t nrows,
                  const double* centroids, int k, std::uint64_t d, int m,
                  const Entry* topm, const std::uint32_t* assign);

}  // namespace pb::check
