// Shared pieces of the end-to-end benchmark: run options, timing, sample
// summaries, state digests, peak memory, the in-memory span trace, and the
// result that main.cpp prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/recovery.hpp"
#include "synth/structures.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the logs and the span dump.
  std::filesystem::path dir;
};

double median(std::vector<double> v);


/// FNV-1a over every compound and list element reachable from `roots`: ids,
/// list shapes and recorded values. Equal digests mean equal state.
std::uint64_t digest(std::span<ickpt::synth::Compound* const> roots);
std::uint64_t digest(const ickpt::core::RecoveredState& state);

/// Reset the kernel's peak-RSS mark, so peak_rss_mb() covers only what runs
/// after the call (falls back to the whole-process peak when the reset is
/// refused).
void reset_peak_rss();
double peak_rss_mb();

/// Spans recorded around the calls into each layer, kept in memory and
/// written out once the run ends. Ops group spans; a span's parent is the
/// span that caused it (-1 for an op's root).
class Trace {
 public:
  struct Span {
    std::string name;
    std::size_t op = 0;
    int parent = -1;
    Clock::time_point t0, t1;
  };

  /// Start a new op; later spans and counts belong to it.
  void begin_op() { ++op_; }
  int open(std::string name, int parent = -1);
  void close(int id) { spans_[static_cast<std::size_t>(id)].t1 = Clock::now(); }
  /// A per-op value measured at a layer boundary (counts, bytes, stats).
  void count(const std::string& name, double v) { counts_[name][op_] = v; }

  /// Per op holding a span called `name`: the summed duration of those
  /// spans in ms, or their self time (duration minus direct children).
  std::map<std::size_t, double> per_op_ms(const std::string& name,
                                          bool self = false) const;
  const std::map<std::size_t, double>& per_op_count(
      const std::string& name) const;

  /// Chrome trace_event JSON (chrome://tracing, Perfetto).
  void write_json(const std::filesystem::path& path) const;

 private:
  std::size_t op_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, std::map<std::size_t, double>> counts_;
};

/// Opens a span on construction and closes it on destruction.
class Scope {
 public:
  Scope(Trace& t, std::string name, int parent = -1)
      : t_(t), id_(t.open(std::move(name), parent)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Trace& t_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `details` holds extra JSON members
/// (already encoded) printed on the line before the result.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> details;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string key, std::string json) {
    details.emplace_back(std::move(key), std::move(json));
  }
};

std::string json_number(double v);
std::string json_string(const std::string& s);
/// {"key": value, ...} from already-encoded values.
std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& members);

}  // namespace e2e
