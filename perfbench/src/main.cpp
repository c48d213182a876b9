// knor_perfbench — the benchmark program.
//
//   knor_perfbench gen --workload W --seed S --dir D
//       write the workload's dataset to D/W.kmat and its serving queries
//       to D/W.queries.kmat
//   knor_perfbench run --workload W --seed S --seconds X --trace 0|1
//                      --dir D
//       set up, solve and serve for X seconds, check every output, and
//       print one JSON line: {"correct", "attempted", "failed", "metrics"}
//   knor_perfbench selftest
//       show that the checker rejects perturbed results
//
// The program only calls the library's public headers.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "core/kernels/simd.hpp"
#include "dist/comm.hpp"
#include "inputs.hpp"
#include "knor/knor.hpp"
#include "sem/page_cache.hpp"
#include "sem/page_file.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in (0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s(v);
  std::sort(s.begin(), s.end());
  const std::size_t h = s.size() / 2;
  return s.size() % 2 == 1 ? s[h] : 0.5 * (s[h - 1] + s[h]);
}

struct Args {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing subcommand");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string("flag without value: ") +
                                  argv[i]);
    const std::string f = argv[i];
    const std::string v = argv[i + 1];
    if (f == "--workload") a.workload = v;
    else if (f == "--seed") a.seed = std::stoull(v);
    else if (f == "--seconds") a.seconds = std::stod(v);
    else if (f == "--trace") a.trace = std::stoi(v) != 0;
    else if (f == "--dir") a.dir = v;
    else throw std::invalid_argument("unknown flag " + f);
  }
  return a;
}

/// Metrics in output order, printed with every digit.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[160];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    items_[i].name.c_str(), v, items_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

std::string kmat_path(const Args& a) {
  return a.dir + "/" + a.workload + ".kmat";
}

std::string queries_path(const Args& a) {
  return a.dir + "/" + a.workload + ".queries.kmat";
}

// ---- solves ----------------------------------------------------------------

struct Solve {
  knor::Result res;
  knor::sem::SemStats sem;
  double wall_s = 0;
};

knor::Options solve_options(const pb::Workload& w,
                            const std::vector<double>& init) {
  knor::Options o;
  o.k = w.k;
  o.max_iters = w.max_iters;
  o.tolerance = 0.0;
  o.threads = w.threads;
  o.seed = w.spec.seed;
  o.init = knor::Init::kProvided;
  o.initial_centroids = knor::DenseMatrix(static_cast<knor::index_t>(w.k),
                                          w.spec.d);
  std::copy(init.begin(), init.end(), o.initial_centroids.data());
  return o;
}

Solve solve_once(const pb::Workload& w, const knor::Options& opts,
                 const knor::DenseMatrix* data, const std::string& path) {
  Solve s;
  const auto t0 = Clock::now();
  switch (w.engine) {
    case pb::Engine::kKnori:
      s.res = knor::kmeans(data->const_view(), opts);
      break;
    case pb::Engine::kKnors: {
      knor::sem::SemOptions so;
      so.page_cache_bytes = w.page_cache_bytes;
      so.row_cache_bytes = w.row_cache_bytes;
      s.res = knor::sem::kmeans(path, opts, so, &s.sem);
      break;
    }
    case pb::Engine::kKnord: {
      knor::dist::DistOptions d;
      d.ranks = w.ranks;
      d.threads_per_rank = w.threads;
      s.res = knor::dist::kmeans(data->const_view(), opts, d);
      break;
    }
  }
  s.wall_s = secs(t0, Clock::now());
  return s;
}

bool same_clustering(const knor::Result& a, const knor::Result& b) {
  return a.iters == b.iters && a.converged == b.converged &&
         std::memcmp(&a.energy, &b.energy, sizeof(double)) == 0 &&
         a.assignments == b.assignments && a.cluster_sizes == b.cluster_sizes &&
         a.centroids.rows() == b.centroids.rows() &&
         std::memcmp(a.centroids.data(), b.centroids.data(),
                     a.centroids.rows() * a.centroids.cols() *
                         sizeof(double)) == 0;
}

// ---- serving rounds --------------------------------------------------------

struct Sample {
  std::uint64_t offset = 0;
  int m = 0;
  knor::serve::Response resp;
};

constexpr std::uint64_t kSampleEvery = 16;

/// What one serving round records. One log is sized before the measured
/// phase and reused by every round, so the benchmark's own memory is the
/// same in every run and is not interleaved with the solves' allocations
/// (peak_rss_mb then moves only with the program's memory).
struct ServeLog {
  explicit ServeLog(std::uint64_t requests) {
    latency_s.reserve(requests);
    done_s.reserve(requests);
    queue_wait_s.reserve(requests);
    compute_s.reserve(requests);
    samples.reserve(requests / kSampleEvery * 2 + 16);
  }
  void clear() {
    latency_s.clear();
    done_s.clear();
    queue_wait_s.clear();
    compute_s.clear();
    samples.clear();
    requests = rows = shed = 0;
  }
  double setup_s = 0;  ///< QueryFrontEnd construction
  std::vector<double> latency_s;
  std::vector<double> done_s;  ///< completion time, from the round's start
  std::vector<double> queue_wait_s;
  std::vector<double> compute_s;
  std::vector<Sample> samples;
  std::uint64_t requests = 0;
  std::uint64_t rows = 0;
  std::uint64_t shed = 0;
  knor::serve::FrontEndStats stats;
};

/// One serving round: a fresh QueryFrontEnd driven by one closed-loop
/// client that keeps kPipeline requests in flight, serving requests
/// [first_id, first_id + requests) into `out`.
void serve_round(const pb::Workload& w, const knor::DenseMatrix& centroids,
                 const knor::DenseMatrix& queries, std::uint64_t first_id,
                 std::uint64_t requests, ServeLog& out, pb::Spans& spans,
                 int parent) {
  out.clear();
  knor::Options o;
  o.k = w.k;
  o.threads = pb::kFrontEndWorkers;
  knor::serve::FrontEndOptions fo;
  fo.shed_policy = knor::serve::ShedPolicy::kBlock;
  const auto t_setup = Clock::now();
  std::unique_ptr<knor::serve::QueryFrontEnd> fe;
  {
    pb::Scope span(spans, "serve.setup", parent);
    fe = std::make_unique<knor::serve::QueryFrontEnd>(centroids, o, fo);
  }
  out.setup_s = secs(t_setup, Clock::now());

  const std::uint64_t d = w.spec.d;
  const std::uint64_t slots = pb::kQueryRows / pb::kRequestRows;
  struct Pending {
    std::future<knor::serve::Response> fut;
    Clock::time_point t;
    std::uint64_t id;
    std::uint64_t offset;
    int m;
  };
  // The client runs on a thread of its own, new in every round, like the
  // front end's threads, so no thread's placement on the CPUs lasts longer
  // than a round.
  const auto t0 = Clock::now();
  pb::Scope span(spans, "serve.load", parent);
  std::thread client([&] {
    std::deque<Pending> inflight;
    const std::uint64_t end_id = first_id + requests;
    std::uint64_t id = first_id;
    while (id < end_id || !inflight.empty()) {
      while (id < end_id && inflight.size() < pb::kPipeline) {
        const std::uint64_t offset = (id % slots) * pb::kRequestRows;
        const int m =
            id % pb::kTopmEvery == pb::kTopmEvery - 1 ? pb::kTopm : 0;
        const knor::ConstMatrixView rows(queries.data() + offset * d,
                                         pb::kRequestRows, d);
        Pending p{{}, Clock::now(), id, offset, m};
        p.fut = m > 0 ? fe->submit_topm(rows, m) : fe->submit_assign(rows);
        inflight.push_back(std::move(p));
        ++id;
        out.requests += 1;
        out.rows += pb::kRequestRows;
      }
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      knor::serve::Response r = p.fut.get();
      const auto now = Clock::now();
      if (r.shed) {
        out.shed += 1;
        continue;
      }
      out.latency_s.push_back(secs(p.t, now));
      out.done_s.push_back(secs(t0, now));
      out.queue_wait_s.push_back(r.queue_wait_s);
      out.compute_s.push_back(r.compute_s);
      if (pb::mix64(w.spec.seed * 0x2545f4914f6cdd1dULL + p.id) %
              kSampleEvery == 0)
        out.samples.push_back({p.offset, p.m, std::move(r)});
    }
  });
  client.join();
  fe->close();
  out.stats = fe->stats();
}

/// Each round cut into windows of kWindow consecutive responses, with each
/// window's served rows per second and the quantiles of its latency, queue
/// wait and compute time. The serving metrics are medians over the windows
/// of all rounds, so a slow spell of the machine moves the windows it
/// overlaps, not the run's figure. Each window has 20 samples beyond its
/// p99.
constexpr std::uint64_t kWindow = 2000;

struct Windows {
  std::vector<double> rows_per_s, p50_s, p99_s;
  std::vector<double> queue_wait_p50_s, queue_wait_p99_s, compute_p50_s;
};

void add_windows(const ServeLog& s, Windows& w) {
  auto part = [](const std::vector<double>& v, std::size_t b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b);
    return std::vector<double>(first, first + kWindow);
  };
  double prev = 0;
  for (std::size_t b = 0; b + kWindow <= s.done_s.size(); b += kWindow) {
    const double end = s.done_s[b + kWindow - 1];
    w.rows_per_s.push_back(static_cast<double>(kWindow * pb::kRequestRows) /
                           (end - prev));
    prev = end;
    const std::vector<double> lat = part(s.latency_s, b);
    w.p50_s.push_back(quantile(lat, 0.50));
    w.p99_s.push_back(quantile(lat, 0.99));
    const std::vector<double> wait = part(s.queue_wait_s, b);
    w.queue_wait_p50_s.push_back(quantile(wait, 0.50));
    w.queue_wait_p99_s.push_back(quantile(wait, 0.99));
    w.compute_p50_s.push_back(quantile(part(s.compute_s, b), 0.50));
  }
}

pb::check::Report check_serve(const pb::Workload& w, const ServeLog& s,
                              const knor::DenseMatrix& centroids,
                              const knor::DenseMatrix& queries) {
  pb::check::Report rep;
  const std::uint64_t answered = s.latency_s.size();
  const auto& st = s.stats;
  if (st.submitted != st.completed + st.shed)
    rep.fail("front end: submitted != completed + shed");
  if (st.submitted != s.requests || st.rows != s.rows)
    rep.fail("front end: submitted/rows differ from what the client offered");
  if (st.shed != s.shed || answered + s.shed != s.requests)
    rep.fail("front end: shed or answered count differs from responses");
  if (s.samples.size() * 100 < answered)
    rep.fail("fewer than 1% of responses were sampled for checking");
  const std::uint64_t d = w.spec.d;
  std::vector<pb::check::Entry> entries;
  for (const Sample& smp : s.samples) {
    const auto& r = smp.resp;
    if (r.assign.size() != pb::kRequestRows ||
        r.dist_sq.size() != pb::kRequestRows || r.m != smp.m ||
        r.topm.size() != pb::kRequestRows * static_cast<std::size_t>(smp.m)) {
      rep.fail("response has the wrong shape");
      continue;
    }
    const double* x = queries.data() + smp.offset * d;
    rep.merge(pb::check::check_assign(x, pb::kRequestRows, centroids.data(),
                                      w.k, d, r.assign.data(),
                                      r.dist_sq.data()));
    if (smp.m > 0) {
      entries.clear();
      for (const auto& e : r.topm) entries.push_back({e.cluster, e.dist_sq});
      rep.merge(pb::check::check_topm(x, pb::kRequestRows, centroids.data(),
                                      w.k, d, smp.m, entries.data(),
                                      r.assign.data()));
    }
  }
  return rep;
}

/// Whether `queries` holds the generator's rows [first, first + rows).
bool rows_match(const pb::Source& src, std::uint64_t first,
                const knor::DenseMatrix& queries) {
  constexpr std::uint64_t kChunk = 4096;
  const std::uint64_t d = queries.cols();
  std::vector<double> want(kChunk * d);
  for (std::uint64_t r = 0; r < queries.rows(); r += kChunk) {
    const std::uint64_t e = std::min<std::uint64_t>(r + kChunk, queries.rows());
    src.rows(first + r, first + e, want.data());
    if (std::memcmp(want.data(), queries.data() + r * d,
                    (e - r) * d * sizeof(double)) != 0)
      return false;
  }
  return true;
}

pb::check::Report check_solve(const pb::Workload& w, const pb::Source& src,
                              const knor::Result& res,
                              const std::vector<double>& init) {
  pb::check::Report rep;
  if (w.must_converge && !res.converged)
    rep.fail("solve did not converge");
  if (!w.must_converge && res.iters != static_cast<std::size_t>(w.max_iters))
    rep.fail("fixed-iteration solve ran " + std::to_string(res.iters) +
             " iterations");
  if (res.assignments.size() != w.spec.n ||
      res.cluster_sizes.size() != static_cast<std::size_t>(w.k) ||
      res.centroids.rows() != static_cast<knor::index_t>(w.k) ||
      res.centroids.cols() != w.spec.d) {
    rep.fail("result has the wrong shape");
    return rep;
  }
  std::vector<std::uint64_t> sizes(res.cluster_sizes.begin(),
                                   res.cluster_sizes.end());
  pb::check::Clustering c;
  c.n = w.spec.n;
  c.d = w.spec.d;
  c.k = w.k;
  c.assignments = res.assignments.data();
  c.centroids = res.centroids.data();
  c.sizes = sizes.data();
  c.energy = res.energy;
  pb::check::ClusteringChecks what;
  what.nearest = w.must_converge;
  if (!w.must_converge) what.initial_centroids = init.data();
  rep.merge(pb::check::check_clustering(
      [&src](std::uint64_t b, std::uint64_t e, double* out) {
        src.rows(b, e, out);
      },
      c, what, 4));
  return rep;
}

// ---- traced-run layer probes -----------------------------------------------

/// One single-thread pass of the blocked kernel over every row.
double probe_assign_pass_s(const knor::DenseMatrix& data,
                           const knor::DenseMatrix& centroids) {
  knor::kernels::CentroidPack pack;
  pack.pack(centroids);
  const knor::kernels::Ops& K = knor::kernels::ops();
  const auto t0 = Clock::now();
  std::uint64_t sink = 0;
  for (knor::index_t r = 0; r < data.rows(); ++r)
    sink += K.nearest_blocked(data.row(r), pack, nullptr);
  const double s = secs(t0, Clock::now());
  if (sink == 0xffffffffffffffffULL) std::puts("");
  return s;
}

/// One sequential pass over the file through PageFile::read_pages.
double probe_file_scan_s(const std::string& path) {
  knor::sem::PageFile pf(path);
  constexpr std::uint32_t kPages = 256;
  std::vector<unsigned char> buf(kPages * pf.page_size());
  const auto t0 = Clock::now();
  for (std::uint64_t p = 0; p < pf.num_pages(); p += kPages) {
    const auto count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kPages, pf.num_pages() - p));
    pf.read_pages(p, count, buf.data());
  }
  return secs(t0, Clock::now());
}

/// ns per PageCache::lookup on resident pages.
double probe_page_hit_ns(const std::string& path) {
  knor::sem::PageFile pf(path);
  const std::uint64_t pages = std::min<std::uint64_t>(512, pf.num_pages());
  knor::sem::PageCache cache(4 * pages * pf.page_size(), pf.page_size());
  std::vector<unsigned char> buf(pf.page_size());
  for (std::uint64_t p = 0; p < pages; ++p) {
    pf.read_pages(p, 1, buf.data());
    cache.insert(p, buf.data());
  }
  constexpr int kReps = 200;
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep)
    for (std::uint64_t p = 0; p < pages; ++p)
      hits += cache.lookup(p, buf.data()) ? 1 : 0;
  const double s = secs(t0, Clock::now());
  if (hits != pages * kReps) throw std::runtime_error("page probe missed");
  return s * 1e9 / static_cast<double>(hits);
}

/// Median µs of allreduce_sum over k*d + k + 1 doubles at `ranks` ranks.
double probe_allreduce_us(int ranks, std::size_t elems) {
  constexpr int kCalls = 400;
  std::vector<double> times;
  knor::dist::Cluster cluster(ranks);
  cluster.run([&](knor::dist::Communicator& comm) {
    std::vector<double> buf(elems, 1.0);
    std::vector<double> mine;
    for (int i = 0; i < kCalls; ++i) {
      const auto t0 = Clock::now();
      comm.allreduce_sum(buf.data(), buf.size());
      mine.push_back(secs(t0, Clock::now()) * 1e6);
      std::fill(buf.begin(), buf.end(), 1.0);
    }
    if (comm.rank() == 0) times = std::move(mine);
  });
  return median(times);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- subcommands -----------------------------------------------------------

int cmd_gen(const Args& a) {
  const pb::Workload w = pb::make_workload(a.workload, a.seed);
  const pb::Source src(w.spec);
  pb::write_kmat(kmat_path(a), src, 0, w.spec.n);
  pb::write_kmat(queries_path(a), src, w.spec.n, w.spec.n + pb::kQueryRows);
  return 0;
}

int cmd_run(const Args& a) {
  const pb::Workload w = pb::make_workload(a.workload, a.seed);
  const std::string path = kmat_path(a);
  pb::Spans spans(a.trace);
  const pb::Scope run_span(spans, "run");
  const int root = run_span.id();

  // Set-up: the program calls before the measured phase, plus the first
  // QueryFrontEnd construction in the first round (setup_s). They are the
  // first such calls in this process, so each run times a cold set-up.
  knor::DenseMatrix data, queries;
  double load_s = 0;
  {
    pb::Scope span(spans, "data.load", root);
    const auto t0 = Clock::now();
    if (w.engine == pb::Engine::kKnors) {
      const auto h = knor::data::read_header(path);
      if (h.n != w.spec.n || h.d != w.spec.d)
        throw std::runtime_error("input file does not match the workload");
    } else {
      data = knor::data::read_matrix(path);
    }
    queries = knor::data::read_matrix(queries_path(a));
    load_s = secs(t0, Clock::now());
  }
  if (queries.rows() != pb::kQueryRows || queries.cols() != w.spec.d)
    throw std::runtime_error("query file does not match the workload");

  // Inputs the benchmark derives itself (not part of set-up).
  const pb::Source src(w.spec);
  const std::vector<double> init = pb::initial_centroids(w, src);
  const knor::Options opts = solve_options(w, init);

  // Measured phase: kRounds rounds, each a share of a fixed number of whole
  // solves followed by a serving round over the solved model with a fresh
  // QueryFrontEnd and client thread. Both counts are sized from --seconds,
  // so every run of a workload does the same work. Alternating the two
  // spreads each metric's samples over the whole run, so a slow spell of
  // the machine touches a few samples of every metric, not all of one.
  // `span_s` is each solve's time with its span (nothing when untraced)
  // around the call.
  const auto n_solves = static_cast<std::size_t>(std::max(
      1.0, std::round(a.seconds * w.solve_share / w.nominal_solve_s)));
  const auto round_requests =
      kWindow * static_cast<std::uint64_t>(std::max(
                    1.0, std::ceil(a.seconds * (1 - w.solve_share) *
                                   w.nominal_requests_per_s /
                                   (pb::kRounds * kWindow))));
  std::vector<Solve> solves;
  std::vector<double> span_s;
  ServeLog log(round_requests);
  Windows win;
  pb::check::Report rep;
  Solve first;
  bool repeat_ok = true;
  double frontend_setup_s = 0;
  std::uint64_t requests = 0, shed = 0, batches = 0, batch_rows = 0;
  std::uint64_t max_depth = 0;
  for (std::size_t round = 0; round < pb::kRounds; ++round) {
    // Round r ends with ceil(n_solves * (r + 1) / kRounds) solves made, so
    // the first round always solves once and makes the model it serves.
    while (solves.size() <
           (n_solves * (round + 1) + pb::kRounds - 1) / pb::kRounds) {
      Solve s;
      const auto t0 = Clock::now();
      {
        pb::Scope span(spans, "core.solve", root);
        s = solve_once(w, opts, &data, path);
      }
      span_s.push_back(secs(t0, Clock::now()));
      if (solves.empty()) {
        first = s;
      } else {
        repeat_ok = repeat_ok && same_clustering(first.res, s.res);
      }
      // Keep timings; drop the O(n) outputs of repeats.
      s.res.assignments.clear();
      s.res.assignments.shrink_to_fit();
      solves.push_back(std::move(s));
    }
    serve_round(w, first.res.centroids, queries, round * round_requests,
                round_requests, log, spans, root);
    // Between rounds, outside every timed window: keep the round's
    // figures and check its sampled responses.
    if (round == 0) frontend_setup_s = log.setup_s;
    requests += log.requests;
    shed += log.shed;
    batches += log.stats.batches;
    batch_rows += log.stats.rows;
    max_depth = std::max<std::uint64_t>(max_depth, log.stats.max_queue_depth);
    add_windows(log, win);
    rep.merge(check_serve(w, log, first.res.centroids, queries));
  }
  const knor::DenseMatrix& model = first.res.centroids;
  const double rss_mb = peak_rss_mb();

  // Served rows were checked against the loaded queries; these must be the
  // generator's own rows, so a loader fault shows too.
  if (!rows_match(src, w.spec.n, queries))
    rep.fail("loaded query rows differ from the generator's");
  if (!repeat_ok) rep.fail("a repeated solve gave a different clustering");
  rep.merge(check_solve(w, src, first.res, init));
  if (!rep.ok())
    std::fprintf(stderr, "perfbench: %s: %s\n", w.name.c_str(),
                 rep.summary().c_str());

  std::vector<double> walls, span_cost_s;
  for (std::size_t i = 0; i < solves.size(); ++i) {
    walls.push_back(solves[i].wall_s);
    span_cost_s.push_back(span_s[i] - solves[i].wall_s);
  }

  Metrics m;
  if (!a.trace) {
    m.add("setup_s", load_s + frontend_setup_s, "s");
    m.add("solve_s", median(walls), "s");
    m.add("peak_rss_mb", rss_mb, "MB");
    m.add("served_rows_per_s", median(win.rows_per_s), "rows/s");
    m.add("latency_p50_ms", median(win.p50_s) * 1e3, "ms");
    m.add("latency_p99_ms", median(win.p99_s) * 1e3, "ms");
  } else {
    // The solve the per-layer figures are read from.
    const Solve* ts = &solves.front();
    const knor::Result& r = ts->res;
    const double n = static_cast<double>(w.spec.n);
    const double k = static_cast<double>(w.k);
    const double d = static_cast<double>(w.spec.d);

    // Layer probes on this workload's own file and model. knors never
    // loads the file whole; the kernel probe needs it in memory.
    if (w.engine == pb::Engine::kKnors) {
      pb::Scope span(spans, "data.load.probe", root);
      data = knor::data::read_matrix(path);
    }
    double pass_s = 0;
    {
      pb::Scope span(spans, "kernels.assign_pass", root);
      pass_s = probe_assign_pass_s(data, model);
    }
    const double ns_per_dist = pass_s * 1e9 / (n * k);
    double scan_s = 0, hit_ns = 0, allreduce_us = 0;
    {
      pb::Scope span(spans, "sem.file_scan", root);
      scan_s = probe_file_scan_s(path);
    }
    {
      pb::Scope span(spans, "sem.page_hit", root);
      hit_ns = probe_page_hit_ns(path);
    }
    {
      pb::Scope span(spans, "dist.allreduce", root);
      allreduce_us = probe_allreduce_us(
          w.ranks, static_cast<std::size_t>(k * d + k + 1));
    }

    const std::vector<double> iter_s = r.iter_times.samples();
    double busy_sum = 0, busy_max = 0;
    for (double b : r.thread_busy_s) {
      busy_sum += b;
      busy_max = std::max(busy_max, b);
    }
    const double workers = static_cast<double>(r.thread_busy_s.size());
    const double busy_mean = workers > 0 ? busy_sum / workers : 0.0;
    const double idle_s = workers > 0 ? workers * ts->wall_s - busy_sum : 0.0;
    const double dists = static_cast<double>(r.counters.dist_computations);

    m.add("data.load_s", load_s, "s");
    m.add("core.iters", static_cast<double>(r.iters), "count");
    m.add("core.dist_computations", dists, "count");
    m.add("core.pruned_share",
          1.0 - dists / (n * k * static_cast<double>(r.iters)), "share");
    m.add("core.clause1_skips", static_cast<double>(r.counters.clause1_skips),
          "count");
    m.add("core.iter_ms_p50", median(iter_s) * 1e3, "ms");
    m.add("core.iter_ms_max", quantile(iter_s, 1.0) * 1e3, "ms");
    m.add("core.first_iter_ms", iter_s.empty() ? 0.0 : iter_s.front() * 1e3,
          "ms");
    m.add("core.outside_kernel_s",
          workers > 0 ? busy_sum - dists * ns_per_dist * 1e-9 : 0.0, "s");
    m.add("kernels.assign_pass_ms", pass_s * 1e3, "ms");
    m.add("kernels.ns_per_dist", ns_per_dist, "ns");
    const double stride = static_cast<double>(
        knor::kernels::CentroidPack::padded_stride(w.spec.d));
    m.add("kernels.bytes_per_dist", 8.0 * (d / k + stride), "bytes");
    m.add("sched.busy_max_s", busy_max, "s");
    m.add("sched.busy_mean_s", busy_mean, "s");
    m.add("sched.imbalance", busy_mean > 0 ? busy_max / busy_mean : 0.0,
          "ratio");
    m.add("sched.idle_s", idle_s, "s");
    m.add("sched.steals",
          static_cast<double>(r.counters.tasks_same_node +
                              r.counters.tasks_remote_node),
          "count");

    const knor::sem::SemStats& io = ts->sem;
    std::uint64_t row_hits = 0, active = 0;
    for (const auto& it : io.per_iter) {
      row_hits += it.row_cache_hits;
      active += it.active_rows;
    }
    const double requested = static_cast<double>(io.total_requested());
    const double read = static_cast<double>(io.total_read());
    const double pc_hits =
        static_cast<double>(r.metrics.value_or("sem.page_cache_hits", 0));
    const double pc_miss =
        static_cast<double>(r.metrics.value_or("sem.page_cache_misses", 0));
    const auto* io_wait = r.metrics.find("sem.io_wait_us");
    m.add("sem.bytes_requested", requested, "bytes");
    m.add("sem.bytes_read", read, "bytes");
    m.add("sem.read_amplification", requested > 0 ? read / requested : 0.0,
          "ratio");
    m.add("sem.device_requests",
          static_cast<double>(io.total_device_requests()), "count");
    m.add("sem.row_cache_hit_share",
          active > 0 ? static_cast<double>(row_hits) /
                           static_cast<double>(active) : 0.0,
          "share");
    m.add("sem.page_cache_hit_share",
          pc_hits + pc_miss > 0 ? pc_hits / (pc_hits + pc_miss) : 0.0,
          "share");
    m.add("sem.io_wait_s",
          io_wait != nullptr ? static_cast<double>(io_wait->hist.sum) * 1e-6
                             : 0.0,
          "s");
    m.add("sem.file_scan_s", scan_s, "s");
    m.add("sem.page_hit_ns", hit_ns, "ns");
    m.add("dist.allreduce_us", allreduce_us, "us");
    m.add("dist.collective_bytes",
          static_cast<double>(r.metrics.value_or("dist.collective_bytes", 0)),
          "bytes");
    m.add("dist.collective_messages",
          static_cast<double>(
              r.metrics.value_or("dist.collective_messages", 0)),
          "count");
    m.add("dist.sync_wait_s", idle_s, "s");
    m.add("serve.queue_wait_p50_ms", median(win.queue_wait_p50_s) * 1e3,
          "ms");
    m.add("serve.queue_wait_p99_ms", median(win.queue_wait_p99_s) * 1e3,
          "ms");
    m.add("serve.compute_p50_ms", median(win.compute_p50_s) * 1e3, "ms");
    m.add("serve.batches", static_cast<double>(batches), "count");
    m.add("serve.batch_rows_mean",
          batches > 0 ? static_cast<double>(batch_rows) /
                            static_cast<double>(batches)
                      : 0.0,
          "rows");
    m.add("serve.max_queue_depth", static_cast<double>(max_depth), "count");
    // What tracing adds to a solve: its span, the only trace work that
    // sits on a solve's path (no span is opened inside a library call).
    m.add("trace.overhead_s", median(span_cost_s), "s");
    spans.close(root);
    std::ofstream(a.dir + "/trace_" + w.name + ".json") << spans.to_json();
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              rep.ok() ? "true" : "false",
              static_cast<unsigned long long>(solves.size() + requests),
              static_cast<unsigned long long>(shed), m.json().c_str());
  return rep.ok() ? 0 : 1;
}

/// Feeds the checker a correct result and three perturbed copies (one
/// assignment moved, one centroid nudged, one top-m list reordered) and
/// fails unless it accepts the first and rejects each of the others.
int cmd_selftest() {
  pb::Workload w = pb::make_workload("im_converge", 7);
  w.spec.n = 4000;
  w.spec.d = 4;
  w.spec.components = 8;
  w.k = 6;
  const pb::Source src(w.spec);
  knor::DenseMatrix data(w.spec.n, w.spec.d);
  src.rows(0, w.spec.n, data.data());
  const std::vector<double> init = pb::initial_centroids(w, src);
  knor::Options opts = solve_options(w, init);
  opts.threads = 2;
  const knor::Result res = knor::kmeans(data.const_view(), opts);
  int bad = 0;
  auto expect = [&bad](bool accepted, bool want, const char* what) {
    std::printf("selftest: %-28s %s\n", what,
                accepted == want ? "ok" : "WRONG");
    if (accepted != want) ++bad;
  };
  expect(check_solve(w, src, res, init).ok(), true, "correct clustering");
  knor::Result moved = res;
  moved.assignments[17] = (moved.assignments[17] + 1) % 6;
  expect(check_solve(w, src, moved, init).ok(), false, "one assignment moved");
  knor::Result nudged = res;
  nudged.centroids.data()[5] += 1e-4;
  expect(check_solve(w, src, nudged, init).ok(), false, "one centroid nudged");

  knor::Options fo;
  fo.k = w.k;
  fo.threads = 1;
  knor::serve::QueryFrontEnd fe(res.centroids, fo);
  const knor::ConstMatrixView rows(data.data(), 8, w.spec.d);
  const knor::serve::Response r = fe.submit_topm(rows, 3).get();
  auto topm_ok = [&](const knor::serve::Response& resp) {
    std::vector<pb::check::Entry> e;
    for (const auto& t : resp.topm) e.push_back({t.cluster, t.dist_sq});
    return pb::check::check_topm(data.data(), 8, res.centroids.data(), w.k,
                                 w.spec.d, 3, e.data(), resp.assign.data())
        .ok();
  };
  expect(topm_ok(r), true, "correct top-m response");
  knor::serve::Response swapped = r;
  std::swap(swapped.topm[3], swapped.topm[4]);
  expect(topm_ok(swapped), false, "one top-m list reordered");
  knor::serve::Response wrong = r;
  wrong.assign[2] = (wrong.assign[2] + 1) % 6;
  expect(pb::check::check_assign(data.data(), 8, res.centroids.data(), w.k,
                                 w.spec.d, wrong.assign.data(),
                                 wrong.dist_sq.data())
             .ok(),
         false, "one served row misassigned");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.cmd == "gen") return cmd_gen(a);
    if (a.cmd == "run") return cmd_run(a);
    if (a.cmd == "selftest") return cmd_selftest();
    throw std::invalid_argument("unknown subcommand " + a.cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "knor_perfbench: %s\n", e.what());
    return 2;
  }
}
