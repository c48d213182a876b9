#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

namespace pb::check {

namespace {

bool close_rel(double got, double want, double eps) {
  return std::fabs(got - want) <= eps * std::max(1.0, std::fabs(want));
}

/// Per-thread partial state of the streaming clustering check.
struct Partial {
  std::vector<long double> sums;  // k x d
  std::vector<std::uint64_t> counts;
  long double energy = 0;
  long double initial_energy = 0;
  Report report;
};

}  // namespace

void Report::fail(const std::string& what) {
  if (first_.size() < 8) first_.push_back(what);
  ++count_;
}

std::string Report::summary() const {
  std::ostringstream os;
  os << count_ << " check(s) failed";
  for (const auto& m : first_) os << "; " << m;
  return os.str();
}

void Report::merge(const Report& other) {
  for (const auto& m : other.first_) {
    if (first_.size() < 8) first_.push_back(m);
  }
  count_ += other.count_;
}

double dist_sq(const double* a, const double* b, std::uint64_t d) {
  double s = 0;
  for (std::uint64_t j = 0; j < d; ++j) {
    const double t = a[j] - b[j];
    s += t * t;
  }
  return s;
}

Nearest nearest(const double* x, const double* centroids, int k,
                std::uint64_t d) {
  Nearest best{0, dist_sq(x, centroids, d)};
  for (int c = 1; c < k; ++c) {
    const double v = dist_sq(x, centroids + static_cast<std::uint64_t>(c) * d, d);
    if (v < best.dist_sq) best = {static_cast<std::uint32_t>(c), v};
  }
  return best;
}

Report check_clustering(const RowFn& rows, const Clustering& c,
                        const ClusteringChecks& what, int threads) {
  Report report;
  const auto k = static_cast<std::uint64_t>(c.k);
  const std::uint64_t d = c.d;
  constexpr std::uint64_t kChunk = 8192;
  const std::uint64_t chunks = (c.n + kChunk - 1) / kChunk;
  threads = std::max(1, threads);
  std::vector<Partial> parts(static_cast<std::size_t>(threads));
  auto work = [&](int t) {
    Partial& p = parts[static_cast<std::size_t>(t)];
    p.sums.assign(k * d, 0.0L);
    p.counts.assign(k, 0);
    std::vector<double> buf(kChunk * d);
    for (std::uint64_t ch = static_cast<std::uint64_t>(t); ch < chunks;
         ch += static_cast<std::uint64_t>(threads)) {
      const std::uint64_t b = ch * kChunk;
      const std::uint64_t e = std::min(c.n, b + kChunk);
      rows(b, e, buf.data());
      for (std::uint64_t r = b; r < e; ++r) {
        const double* x = buf.data() + (r - b) * d;
        const std::uint32_t a = c.assignments[r];
        if (a >= k) {
          p.report.fail("row " + std::to_string(r) + " assigned to " +
                        std::to_string(a) + " >= k");
          continue;
        }
        const double da = dist_sq(x, c.centroids + a * d, d);
        if (what.nearest) {
          const Nearest nb = nearest(x, c.centroids, c.k, d);
          if (nb.index != a && da > nb.dist_sq * (1 + kTieEps))
            p.report.fail("row " + std::to_string(r) + " assigned to " +
                          std::to_string(a) + " but nearest is " +
                          std::to_string(nb.index));
        }
        if (what.initial_centroids != nullptr)
          p.initial_energy +=
              nearest(x, what.initial_centroids, c.k, d).dist_sq;
        p.energy += da;
        p.counts[a] += 1;
        long double* s = p.sums.data() + a * d;
        for (std::uint64_t j = 0; j < d; ++j) s[j] += x[j];
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (auto& th : pool) th.join();

  Partial all;
  all.sums.assign(k * d, 0.0L);
  all.counts.assign(k, 0);
  for (const Partial& p : parts) {
    report.merge(p.report);
    for (std::uint64_t i = 0; i < k * d; ++i) all.sums[i] += p.sums[i];
    for (std::uint64_t i = 0; i < k; ++i) all.counts[i] += p.counts[i];
    all.energy += p.energy;
    all.initial_energy += p.initial_energy;
  }

  std::uint64_t size_total = 0;
  for (std::uint64_t j = 0; j < k; ++j) {
    size_total += c.sizes[j];
    if (c.sizes[j] != all.counts[j])
      report.fail("cluster " + std::to_string(j) + " size " +
                  std::to_string(c.sizes[j]) + " but " +
                  std::to_string(all.counts[j]) + " rows assigned");
    if (all.counts[j] == 0) continue;
    for (std::uint64_t i = 0; i < d; ++i) {
      const double mean = static_cast<double>(
          all.sums[j * d + i] / static_cast<long double>(all.counts[j]));
      if (!close_rel(c.centroids[j * d + i], mean, kSumEps)) {
        report.fail("centroid " + std::to_string(j) + " dim " +
                    std::to_string(i) + " is not the mean of its rows");
        break;
      }
    }
  }
  if (size_total != c.n)
    report.fail("cluster sizes sum to " + std::to_string(size_total) +
                ", not n = " + std::to_string(c.n));
  const auto energy = static_cast<double>(all.energy);
  if (!close_rel(c.energy, energy, kSumEps))
    report.fail("reported energy " + std::to_string(c.energy) +
                " != recomputed " + std::to_string(energy));
  if (what.initial_centroids != nullptr &&
      c.energy > static_cast<double>(all.initial_energy) * (1 + kSumEps))
    report.fail("final energy " + std::to_string(c.energy) +
                " exceeds the initial centroids' energy " +
                std::to_string(static_cast<double>(all.initial_energy)));
  return report;
}

Report check_assign(const double* rows, std::uint64_t nrows,
                    const double* centroids, int k, std::uint64_t d,
                    const std::uint32_t* assign, const double* dist) {
  Report report;
  for (std::uint64_t r = 0; r < nrows; ++r) {
    const double* x = rows + r * d;
    if (assign[r] >= static_cast<std::uint32_t>(k)) {
      report.fail("response row " + std::to_string(r) + " out of range");
      continue;
    }
    const Nearest nb = nearest(x, centroids, k, d);
    const double da = dist_sq(x, centroids + assign[r] * d, d);
    if (assign[r] != nb.index && da > nb.dist_sq * (1 + kTieEps))
      report.fail("response row " + std::to_string(r) + " assigned to " +
                  std::to_string(assign[r]) + ", nearest is " +
                  std::to_string(nb.index));
    if (!close_rel(dist[r], da, kTieEps))
      report.fail("response row " + std::to_string(r) + " distance " +
                  std::to_string(dist[r]) + " != " + std::to_string(da));
  }
  return report;
}

Report check_topm(const double* rows, std::uint64_t nrows,
                  const double* centroids, int k, std::uint64_t d, int m,
                  const Entry* topm, const std::uint32_t* assign) {
  Report report;
  std::vector<double> all(static_cast<std::size_t>(k));
  std::vector<char> listed(static_cast<std::size_t>(k));
  for (std::uint64_t r = 0; r < nrows; ++r) {
    const double* x = rows + r * d;
    const Entry* e = topm + r * static_cast<std::uint64_t>(m);
    const std::string row = "top-m row " + std::to_string(r);
    for (int c = 0; c < k; ++c)
      all[static_cast<std::size_t>(c)] =
          dist_sq(x, centroids + static_cast<std::uint64_t>(c) * d, d);
    std::fill(listed.begin(), listed.end(), 0);
    bool in_range = true;
    for (int j = 0; j < m; ++j) {
      if (e[j].cluster >= static_cast<std::uint32_t>(k) ||
          listed[e[j].cluster]) {
        report.fail(row + ": entry out of range or repeated");
        in_range = false;
        break;
      }
      listed[e[j].cluster] = 1;
      if (!close_rel(e[j].dist_sq, all[e[j].cluster], kTieEps))
        report.fail(row + ": entry distance differs from the checker's");
      if (j > 0 && (e[j].dist_sq < e[j - 1].dist_sq ||
                    (e[j].dist_sq == e[j - 1].dist_sq &&
                     e[j].cluster < e[j - 1].cluster)))
        report.fail(row + ": entries not ascending by (distance, index)");
    }
    if (!in_range) continue;
    const double last = all[e[m - 1].cluster];
    for (int c = 0; c < k; ++c) {
      if (!listed[static_cast<std::size_t>(c)] &&
          all[static_cast<std::size_t>(c)] < last * (1 - kTieEps)) {
        report.fail(row + ": centroid " + std::to_string(c) +
                    " is closer than the last listed entry");
        break;
      }
    }
    if (e[0].cluster != assign[r])
      report.fail(row + ": topm[0] differs from the assignment");
  }
  return report;
}

}  // namespace pb::check
