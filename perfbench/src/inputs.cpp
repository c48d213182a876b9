#include "inputs.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace pb {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x = mix64(x);
    s = x;
  }
}

std::uint64_t Rng::next() {
  auto rotl = [](std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

Source::Source(const Spec& spec) : spec_(spec) {
  if (spec.n == 0 || spec.d == 0) throw std::invalid_argument("empty spec");
  if (spec.kind != Kind::kNatural) return;
  const std::uint64_t d = spec.d;
  const auto c = static_cast<std::size_t>(spec.components);
  Rng rng(mix64(spec.layout_seed ^ 0x6e61747572616cULL));
  centres_.resize(c * d);
  for (auto& v : centres_) v = spec.spread * rng.uniform();
  sigma_.resize(c);
  for (auto& s : sigma_) s = 0.5 + rng.uniform();
  cdf_.resize(c);
  double total = 0;
  for (std::size_t i = 0; i < c; ++i) {
    total += std::pow(static_cast<double>(i + 1), -spec.alpha);
    cdf_[i] = total;
  }
  for (auto& w : cdf_) w /= total;
  cdf_.back() = 1.0;

  // The seed's isometry: Gram-Schmidt over Gaussian rows, then a shift.
  Rng iso(mix64(spec.seed ^ 0x69736f6d65747279ULL));
  rotation_.resize(d * d);
  for (std::uint64_t i = 0; i < d; ++i) {
    double* q = &rotation_[i * d];
    double norm = 0;
    while (norm < 1e-6) {
      for (std::uint64_t j = 0; j < d; ++j) q[j] = iso.normal();
      for (std::uint64_t p = 0; p < i; ++p) {
        const double* prev = &rotation_[p * d];
        double dot = 0;
        for (std::uint64_t j = 0; j < d; ++j) dot += q[j] * prev[j];
        for (std::uint64_t j = 0; j < d; ++j) q[j] -= dot * prev[j];
      }
      norm = 0;
      for (std::uint64_t j = 0; j < d; ++j) norm += q[j] * q[j];
      norm = std::sqrt(norm);
    }
    for (std::uint64_t j = 0; j < d; ++j) q[j] /= norm;
  }
  shift_.resize(d);
  for (auto& s : shift_) s = spec.spread * iso.uniform();
  for (auto& key : perm_keys_) key = iso.next();
  int bits = 1;
  while ((std::uint64_t{1} << bits) < spec.n) ++bits;
  half_bits_ = (bits + 1) / 2;
}

std::uint64_t Source::permute(std::uint64_t r) const {
  // Four-round Feistel network on 2 * half_bits_ bits, cycle-walked back
  // into [0, n): a bijection on the row indices.
  const std::uint64_t mask = (std::uint64_t{1} << half_bits_) - 1;
  do {
    std::uint64_t left = r >> half_bits_;
    std::uint64_t right = r & mask;
    for (const std::uint64_t key : perm_keys_) {
      const std::uint64_t next = left ^ (mix64(right ^ key) & mask);
      left = right;
      right = next;
    }
    r = (left << half_bits_) | right;
  } while (r >= spec_.n);
  return r;
}

void Source::base_row(std::uint64_t b, double* out) const {
  Rng rng(mix64(spec_.sample_seed * 0x9e3779b97f4a7c15ULL + b));
  const double u = rng.uniform();
  const auto c = static_cast<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  const std::size_t comp = std::min(c, cdf_.size() - 1);
  const double* centre = centres_.data() + comp * spec_.d;
  for (std::uint64_t j = 0; j < spec_.d; ++j)
    out[j] = centre[j] + sigma_[comp] * rng.normal();
}

void Source::place(const double* base, double* out) const {
  const std::uint64_t d = spec_.d;
  if (spec_.kind != Kind::kNatural) {
    std::copy(base, base + d, out);
    return;
  }
  for (std::uint64_t i = 0; i < d; ++i) {
    const double* q = &rotation_[i * d];
    double v = shift_[i];
    for (std::uint64_t j = 0; j < d; ++j) v += q[j] * base[j];
    out[i] = v;
  }
}

void Source::row(std::uint64_t r, double* out) const {
  if (spec_.kind == Kind::kUniform) {
    Rng rng(mix64(spec_.seed * 0x9e3779b97f4a7c15ULL + r));
    for (std::uint64_t j = 0; j < spec_.d; ++j) out[j] = rng.uniform();
    return;
  }
  double base[256];
  if (spec_.d > 256) throw std::invalid_argument("d > 256");
  base_row(r < spec_.n ? permute(r) : r, base);
  place(base, out);
}

void Source::rows(std::uint64_t begin, std::uint64_t end, double* out) const {
  for (std::uint64_t r = begin; r < end; ++r)
    row(r, out + (r - begin) * spec_.d);
}

void write_kmat(const std::string& path, const Source& src,
                std::uint64_t begin, std::uint64_t end) {
  const Spec& s = src.spec();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot create " + path);
  unsigned char header[64] = {};
  std::memcpy(header, "KNORMAT1", 8);
  const std::uint64_t fields[3] = {end - begin, s.d, sizeof(double)};
  std::memcpy(header + 8, fields, sizeof(fields));
  bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);
  constexpr std::uint64_t kChunk = 1 << 14;
  std::vector<double> buf(kChunk * s.d);
  for (std::uint64_t b = begin; ok && b < end; b += kChunk) {
    const std::uint64_t e = std::min(end, b + kChunk);
    src.rows(b, e, buf.data());
    const std::size_t count = (e - b) * s.d;
    ok = std::fwrite(buf.data(), sizeof(double), count, f) == count;
  }
  // Flushed to the device, so no write-back of the input overlaps the
  // measured run that reads it.
  ok = ok && std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("short write to " + path);
}

std::vector<std::uint64_t> pick_rows(std::uint64_t n, std::uint64_t count,
                                     std::uint64_t seed) {
  if (count > n) throw std::invalid_argument("pick_rows: count > n");
  Rng rng(mix64(seed ^ 0x7069636bULL));
  std::vector<std::uint64_t> out;
  while (out.size() < count) {
    const std::uint64_t r = rng.next() % n;
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pb
