// The benchmark's own seeded input generator and .kmat writer.
//
// Everything here is independent of the library's src/data module on
// purpose: a change to the library's generator or loader cannot change the
// benchmark's inputs. Every row is a pure function of (spec, row index), so
// the checker can regenerate any row without reading the file the program
// read — which also checks the program's loader.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// SplitMix64: seeds streams and hashes (seed, index) pairs.
std::uint64_t mix64(std::uint64_t x);

/// xoshiro256** with Box-Muller normals. One instance per row stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Standard normal (Box-Muller, one value per call).
  double normal();

 private:
  std::uint64_t s_[4];
};

enum class Kind { kNatural, kUniform };

/// A dataset recipe.
///
/// kUniform: row r is uniform in [0, 1)^d, drawn from (seed, r).
///
/// kNatural: a Gaussian mixture of `components` centres drawn uniformly in
/// a cube of side `spread` (from layout_seed), power-law weights (weight of
/// component c proportional to (c + 1)^-alpha) and isotropic sigmas in
/// [0.5, 1.5]. A fixed base sample is drawn from sample_seed; `seed` then
/// picks a random rotation, translation and row order that are applied to
/// it. Every seed thus writes different bytes in a different order, but
/// poses the same clustering problem: distances, and so the iteration count
/// to exact convergence, do not depend on the seed (up to rounding). A
/// freshly drawn sample per seed would change that count by 15-20%
/// (interquartile range over seeds), which swamps what a run measures.
struct Spec {
  Kind kind = Kind::kNatural;
  std::uint64_t n = 0;
  std::uint64_t d = 0;
  std::uint64_t seed = 1;
  std::uint64_t layout_seed = 1;
  std::uint64_t sample_seed = 1;
  int components = 64;
  double alpha = 1.0;
  double spread = 12.0;
};

/// Row-addressable generator over a Spec.
class Source {
 public:
  explicit Source(const Spec& spec);
  const Spec& spec() const { return spec_; }
  /// Writes row r (d values) to out. Rows r >= n continue the same
  /// distribution (held-out rows), outside the permutation.
  void row(std::uint64_t r, double* out) const;
  /// Rows [begin, end) into out, row-major.
  void rows(std::uint64_t begin, std::uint64_t end, double* out) const;
  /// Centre of mixture component c, in base coordinates (kNatural).
  const double* base_centre(int c) const {
    return centres_.data() + static_cast<std::size_t>(c) * spec_.d;
  }
  /// Maps a point from base coordinates to the seed's coordinates
  /// (rotation then translation; the identity for kUniform).
  void place(const double* base, double* out) const;

 private:
  void base_row(std::uint64_t b, double* out) const;
  std::uint64_t permute(std::uint64_t r) const;

  Spec spec_;
  std::vector<double> centres_;   // components x d
  std::vector<double> sigma_;     // components
  std::vector<double> cdf_;       // cumulative weights, last == 1
  std::vector<double> rotation_;  // d x d orthonormal rows
  std::vector<double> shift_;     // d
  std::uint64_t perm_keys_[4] = {};
  int half_bits_ = 0;
};

/// Write rows [begin, end) as a .kmat file (64-byte header: "KNORMAT1",
/// u64 rows, u64 d, u64 elem_size = 8, 32 reserved zero bytes; then
/// row-major doubles).
void write_kmat(const std::string& path, const Source& src,
                std::uint64_t begin, std::uint64_t end);

/// `count` distinct row indices in [0, n), drawn from `seed`, ascending.
std::vector<std::uint64_t> pick_rows(std::uint64_t n, std::uint64_t count,
                                     std::uint64_t seed);

}  // namespace pb
