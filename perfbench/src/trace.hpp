// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark around its calls into each layer (nothing inside the
// library is instrumented); they are kept in memory and written out as one
// JSON document when the run ends. A disabled recorder does nothing.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Opens a span (name must be a string literal) under `parent` (-1 for
  /// a root span). Returns its id, or -1 when disabled.
  int open(const char* name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = now();
  }
  /// {"spans": [{"id", "name", "parent", "start_s", "end_s"}, ...]}.
  std::string to_json() const {
    std::string out = "{\"spans\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"start_s\": %.9f, \"end_s\": %.9f}",
                    i == 0 ? "" : ",", i, s.name, s.parent, s.start_s,
                    s.end_s);
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start_s;
    double end_s;
  };
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  using Clock = std::chrono::steady_clock;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& spans, const char* name, int parent = -1)
      : spans_(spans), id_(spans.open(name, parent)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

}  // namespace pb
