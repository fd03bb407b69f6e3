// The three workloads. Each builds its inputs from the seed, runs one client
// in a closed loop that times exactly one op type, and checks every result
// against a digest of the state it must reproduce. Mutation between ops is
// untimed.
#include "workloads.hpp"

#include <climits>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <random>

#include "common/error.hpp"
#include "core/manager.hpp"
#include "layers.hpp"
#include "spec/compiler.hpp"
#include "synth/shapes.hpp"

namespace e2e {

using namespace ickpt;
namespace fs = std::filesystem;

namespace {

/// The paper's §5 graph: compounds of five lists of L=5 elements, v=10.
synth::SynthConfig paper_graph(std::size_t compounds, int modified_lists,
                               int percent_modified, std::uint64_t seed) {
  synth::SynthConfig c;
  c.num_structures = compounds;
  c.list_length = 5;
  c.values_per_elem = 10;
  c.modified_lists = modified_lists;
  c.percent_modified = percent_modified;
  c.seed = seed;
  return c;
}

struct TakeSpec {
  synth::SynthConfig graph;
  unsigned threads = 1;
  /// Manager policy: 1 makes every take full, UINT_MAX only a log's first.
  unsigned full_interval = 1;
  core::Mode timed_mode = core::Mode::kFull;
  /// Epochs per log before it is replaced, untimed, by a fresh one, which
  /// bounds disk use and the final recovery.
  unsigned roll_every = 1;
  /// Untimed epochs at set-up after the log is opened.
  unsigned warmup = 0;
};

TakeSpec paper_incr(std::uint64_t seed) {
  return {.graph = paper_graph(20000, 1, 25, seed),
          .threads = 1,
          .full_interval = UINT_MAX,
          .timed_mode = core::Mode::kIncremental,
          .roll_every = 64,
          .warmup = 16};
}

TakeSpec alldirty_sharded(std::uint64_t seed) {
  return {.graph = paper_graph(20000, 5, 100, seed),
          .threads = 2,
          .full_interval = 1,
          .timed_mode = core::Mode::kFull,
          .roll_every = 4,
          .warmup = 2};
}

// history-read: a paper-incr-regime log of this many epochs.
constexpr std::size_t kHistoryCompounds = 5000;
constexpr unsigned kHistoryEpochs = 64;
constexpr unsigned kHistoryFullInterval = 16;

const char* mode_name(core::Mode m) {
  return m == core::Mode::kFull ? "full" : "incremental";
}

core::TypeRegistry make_registry() {
  core::TypeRegistry registry;
  synth::register_types(registry);
  return registry;
}

/// The specialized plan for a graph's modification regime; only the traced
/// run builds one.
struct PlanHolder {
  explicit PlanHolder(const synth::SynthConfig& c)
      : plan(spec::PlanCompiler().compile(
            *shapes.compound,
            synth::make_synth_pattern(synth::SpecLevel::kModifiedLists,
                                      c.list_length, c.values_per_elem,
                                      c.modified_lists))),
        exec(plan) {}
  synth::SynthShapes shapes = synth::SynthShapes::make();
  spec::Plan plan;
  spec::PlanExecutor exec;
};

void remove_log(const fs::path& log) {
  fs::remove(log);
  fs::remove(log.string() + ".bak");
}

/// Records the first failure message and counts every failure.
struct Failures {
  std::uint64_t count = 0;
  void add(const std::string& what) {
    if (count++ == 0) std::fprintf(stderr, "failure: %s\n", what.c_str());
  }
};

/// The graph, the manager and its log for the take workloads.
class TakeRig {
 public:
  TakeRig(const TakeSpec& spec, const RunOptions& o)
      : spec_(spec),
        graph_(heap_, spec.graph),
        log_(o.dir / "take.log"),
        trace_log_(o.dir / "trace.log"),
        traced_(o.trace) {
    open_log();
    for (unsigned i = 0; i < spec_.warmup; ++i) {
      graph_.mutate();
      take_untimed(spec_.timed_mode);
    }
  }

  synth::SynthWorkload& graph() { return graph_; }
  core::CheckpointManager& manager() { return *manager_; }
  io::StableStorage& trace_storage() { return *trace_storage_; }
  const fs::path& log() const { return log_; }

  /// Replace a log holding roll_every epochs by a fresh one (untimed).
  void roll_if_due() {
    if (epochs_ >= spec_.roll_every) open_log();
  }
  void count_epoch() { ++epochs_; }

  /// Close the log so it can be recovered; returns its newest epoch.
  Epoch close() {
    const Epoch last = manager_->next_epoch() - 1;
    manager_.reset();
    trace_storage_.reset();
    return last;
  }

  void remove_logs() {
    remove_log(log_);
    remove_log(trace_log_);
  }

 private:
  void open_log() {
    manager_.reset();
    trace_storage_.reset();
    remove_logs();
    manager_ = std::make_unique<core::CheckpointManager>(
        log_.string(), core::ManagerOptions{.full_interval = spec_.full_interval,
                                            .durable = true,
                                            .capture_threads = spec_.threads});
    // Traced frames go to a log of their own, never recovered.
    if (traced_)
      trace_storage_ = std::make_unique<io::StableStorage>(
          trace_log_.string(), io::StorageOptions{.durable = true});
    epochs_ = 0;
    // The policy's full, when the timed ops are incremental, stays untimed.
    if (spec_.timed_mode != core::Mode::kFull) take_untimed(core::Mode::kFull);
  }

  void take_untimed(core::Mode expected) {
    const core::TakeResult r = manager_->take(graph_.root_bases());
    if (r.mode != expected)
      throw Error(std::string("set-up take was ") + mode_name(r.mode) +
                  ", expected " + mode_name(expected));
    ++epochs_;
  }

  TakeSpec spec_;
  core::Heap heap_;
  synth::SynthWorkload graph_;
  fs::path log_;
  fs::path trace_log_;
  bool traced_;
  std::unique_ptr<core::CheckpointManager> manager_;
  std::unique_ptr<io::StableStorage> trace_storage_;
  unsigned epochs_ = 0;
};

/// The graph, its per-epoch digests and the log for history-read. The log
/// is written by the manager in both runs; the traced run also traces each
/// incremental take of the set-up, paired with the manager's.
class HistoryRig {
 public:
  HistoryRig(const RunOptions& o, Trace* trace, Failures& failures)
      : graph_(heap_, paper_graph(kHistoryCompounds, 1, 25, o.seed)),
        log_(o.dir / "history.log") {
    const fs::path trace_log = o.dir / "history-trace.log";
    remove_log(log_);
    remove_log(trace_log);
    std::optional<PlanHolder> plan;
    std::unique_ptr<io::StableStorage> trace_storage;
    if (trace != nullptr) {
      plan.emplace(graph_.config());
      trace_storage = std::make_unique<io::StableStorage>(
          trace_log.string(), io::StorageOptions{.durable = true});
    }
    core::CheckpointManager manager(
        log_.string(),
        core::ManagerOptions{.full_interval = kHistoryFullInterval,
                             .durable = true});
    for (Epoch e = 0; e < kHistoryEpochs; ++e) {
      if (e > 0) graph_.mutate();
      const core::Mode mode = e % kHistoryFullInterval == 0
                                  ? core::Mode::kFull
                                  : core::Mode::kIncremental;
      const bool traced = trace != nullptr && mode == core::Mode::kIncremental;
      if (traced) {
        trace->begin_op();
        if (!traced_take(*trace, graph_, plan->exec, *trace_storage, e, mode,
                         1))
          failures.add("plan frame differs from the generic frame");
      }
      const auto t0 = Clock::now();
      const core::TakeResult r = manager.take(graph_.root_bases());
      if (traced) trace->count("trace.op_ms", ms_between(t0, Clock::now()));
      if (r.mode != mode || r.epoch != e)
        throw Error("history set-up: unexpected take result");
      digests_.push_back(digest(graph_.roots()));
    }
    trace_storage.reset();
    remove_log(trace_log);
    log_bytes_ = fs::file_size(log_);
  }

  const fs::path& log() const { return log_; }
  std::uint64_t digest_at(Epoch e) const { return digests_.at(e); }
  std::uintmax_t log_bytes() const { return log_bytes_; }

 private:
  core::Heap heap_;
  synth::SynthWorkload graph_;
  fs::path log_;
  std::vector<std::uint64_t> digests_;
  std::uintmax_t log_bytes_ = 0;
};

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (double x : v) {
    if (s.size() > 1) s += ',';
    s += json_number(x);
  }
  s += ']';
  return s;
}

/// {"mode": count, ...} of the ops that returned.
std::string mode_counts(const std::map<std::string, std::uint64_t>& modes) {
  std::vector<std::pair<std::string, std::string>> members;
  for (const auto& [name, n] : modes)
    members.emplace_back(name, std::to_string(n));
  return json_object(members);
}

/// op_ms_tail is p80 on every workload. A 20 s run keeps about 130, 18
/// and 12 samples beyond it, and rare host-scheduling spikes in capture,
/// whose rate drifts with the host, stay out of it. The "highest percentile
/// with at least 10 samples beyond it" would follow the sample count, so a
/// faster build would be judged at a stricter percentile.
constexpr double kTailQuantile = 0.8;

/// The raw samples of an untraced run. run.py pools the processes of a run
/// and derives the end-to-end metrics from them.
void e2e_samples(Outcome& out, const std::vector<double>& op_ms,
                 std::uintmax_t log_bytes, std::size_t epochs, double peak_mb,
                 double setup_s) {
  out.detail("op_ms", json_list(op_ms));
  out.detail("op_ms_tail_quantile", json_number(kTailQuantile));
  out.detail("log_bytes", std::to_string(log_bytes));
  out.detail("log_epochs", std::to_string(epochs));
  out.detail("peak_rss_mb", json_number(peak_mb));
  out.detail("setup_s", json_number(setup_s));
}

/// Median over the ops present in `m`.
double med(const std::map<std::size_t, double>& m) {
  std::vector<double> v;
  for (const auto& [op, x] : m) v.push_back(x);
  return median(v);
}

/// Median over ops present in both of f(a[op], b[op]).
template <class F>
double med2(const std::map<std::size_t, double>& a,
            const std::map<std::size_t, double>& b, F f) {
  std::vector<double> v;
  for (const auto& [op, x] : a) {
    auto it = b.find(op);
    if (it != b.end()) v.push_back(f(x, it->second));
  }
  return median(v);
}

/// The per-layer metrics of a traced run, and the reconciliation of each op
/// kind's layer sum with the paired untraced op. `primary` ("take" or
/// "recover") is the kind the workload times.
void layer_metrics(const Trace& t, Outcome& out, const std::string& primary) {
  const auto capture = t.per_op_ms("core.capture");
  const auto walk = t.per_op_ms("core.walk");
  const auto crc = t.per_op_ms("io.crc");
  const auto append = t.per_op_ms("io.append");
  const auto index = t.per_op_ms("io.index");
  const auto stream = t.per_op_ms("io.stream");
  const auto stream_self = t.per_op_ms("io.stream", true);
  const auto apply = t.per_op_ms("core.apply");
  const auto finish = t.per_op_ms("core.finish");
  const auto minus = [](double a, double b) { return a - b; };
  const auto mb_per_s = [](double bytes, double ms) {
    return ms > 0 ? bytes / 1e6 / (ms / 1e3) : 0;
  };
  std::map<std::size_t, double> replay = finish;
  for (const auto& [op, ms] : apply) replay[op] += ms;

  out.add("core.capture_ms", med(capture), "ms");
  out.add("core.walk_ms", med(walk), "ms");
  out.add("core.objects_visited", med(t.per_op_count("core.objects_visited")),
          "count");
  out.add("core.objects_recorded",
          med(t.per_op_count("core.objects_recorded")), "count");
  out.add("core.dirty_ratio",
          med2(t.per_op_count("core.objects_recorded"),
               t.per_op_count("core.objects_visited"),
               [](double r, double v) { return v > 0 ? r / v : 0; }),
          "ratio");
  out.add("core.par2_merge_wait_ms",
          med(t.per_op_count("core.par2_merge_wait_ms")), "ms");
  out.add("core.par2_merge_buffered_peak_mb",
          med(t.per_op_count("core.par2_merge_buffered_peak_mb")), "MB");
  out.add("core.par2_steals", med(t.per_op_count("core.par2_steals")),
          "count");
  out.add("io.buffer_ms", med2(capture, walk, minus), "ms");
  out.add("io.crc_ms", med(crc), "ms");
  out.add("io.crc_mb_per_s", med2(t.per_op_count("frame_bytes"), crc, mb_per_s),
          "MB/s");
  out.add("io.append_ms", med(append), "ms");
  out.add("io.write_fsync_ms", med2(append, crc, minus), "ms");
  out.add("spec.plan_capture_ms", med(t.per_op_ms("spec.plan_capture")), "ms");
  out.add("io.index_ms", med(index), "ms");
  out.add("io.stream_ms", med(stream_self), "ms");
  out.add("io.stream_mb_per_s",
          med2(t.per_op_count("stream_bytes"), stream_self, mb_per_s), "MB/s");
  out.add("core.replay_ms", med(replay), "ms");
  out.add("core.replay_frames", med(t.per_op_count("core.replay_frames")),
          "count");
  out.add("core.stream_passes", med(t.per_op_count("core.stream_passes")),
          "count");

  // Layer sums: what the manager's op is made of, per op kind.
  // An op cut short by an error lacks some spans; it has no sum.
  std::map<std::string, std::map<std::size_t, double>> sums;
  for (const auto& [op, ms] : append)
    if (capture.count(op) != 0) sums["take"][op] = capture.at(op) + ms;
  for (const auto& [op, ms] : finish)
    if (index.count(op) != 0 && stream.count(op) != 0)
      sums["recover"][op] = index.at(op) + stream.at(op) + ms;
  const auto& paired = t.per_op_count("trace.op_ms");
  std::vector<std::pair<std::string, std::string>> reconcile;
  for (const auto& [kind, sum] : sums) {
    std::map<std::size_t, double> op_ms;
    for (const auto& [op, ms] : sum)
      if (paired.count(op) != 0) op_ms[op] = paired.at(op);
    const double layer_sum = med(sum);
    const double untraced = med(op_ms);
    if (kind == primary) {
      out.add("trace.layer_sum_ms", layer_sum, "ms");
      out.add("trace.op_ms_p50", untraced, "ms");
      out.add("trace.unaccounted_ms", untraced - layer_sum, "ms");
    }
    reconcile.emplace_back(
        kind, json_object({{"layer_sum_ms", json_number(layer_sum)},
                           {"untraced_op_ms_p50", json_number(untraced)},
                           {"diff_ms", json_number(untraced - layer_sum)},
                           {"ops", std::to_string(sum.size())}}));
  }
  out.detail("reconcile", json_object(reconcile));
  out.detail("reconcile_primary", json_string(primary));
}

Outcome run_takes(const TakeSpec& spec, const RunOptions& o) {
  Outcome out;
  Failures failures;
  Trace trace;
  std::optional<PlanHolder> plan;
  if (o.trace) plan.emplace(spec.graph);

  const auto setup_start = Clock::now();
  auto rig = std::make_unique<TakeRig>(spec, o);
  const double setup_s = ms_between(setup_start, Clock::now()) / 1e3;

  std::vector<double> op_ms;
  std::map<std::string, std::uint64_t> modes;
  std::uintmax_t appended = 0;
  reset_peak_rss();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(o.seconds);
  while (Clock::now() < deadline) {
    rig->roll_if_due();
    rig->graph().mutate();
    const std::uintmax_t before = fs::file_size(rig->log());
    ++out.attempted;
    try {
      if (o.trace) {
        trace.begin_op();
        if (!traced_take(trace, rig->graph(), plan->exec, rig->trace_storage(),
                         rig->manager().next_epoch(), spec.timed_mode,
                         spec.threads))
          failures.add("plan frame differs from the generic frame");
      }
      const auto t0 = Clock::now();
      const core::TakeResult r = rig->manager().take(rig->graph().root_bases());
      const double ms = ms_between(t0, Clock::now());
      ++modes[mode_name(r.mode)];
      if (r.mode != spec.timed_mode) {
        failures.add(std::string("timed take was ") + mode_name(r.mode));
      } else {
        op_ms.push_back(ms);
        appended += fs::file_size(rig->log()) - before;
        if (o.trace) trace.count("trace.op_ms", ms);
      }
    } catch (const Error& e) {
      failures.add(e.what());
    }
    rig->count_epoch();
  }
  const double peak_mb = peak_rss_mb();

  // Untimed: the log must recover to the live graph's state.
  const Epoch last = rig->close();
  const std::uint64_t live = digest(rig->graph().roots());
  const core::TypeRegistry registry = make_registry();
  try {
    if (o.trace) {
      trace.begin_op();
      if (traced_recover(trace, rig->log().string(), registry, last) != live)
        failures.add("traced recovery differs from the live graph");
    }
    const auto t0 = Clock::now();
    const core::RecoverResult r =
        core::CheckpointManager::recover(rig->log().string(), registry);
    if (o.trace) {
      trace.count("trace.op_ms", ms_between(t0, Clock::now()));
      trace.count("core.replay_frames",
                  static_cast<double>(r.checkpoints_applied));
      trace.count("core.stream_passes", static_cast<double>(r.stream_passes));
    }
    if (r.state.epoch != last || digest(r.state) != live)
      failures.add("recovered state differs from the live graph");
  } catch (const Error& e) {
    failures.add(std::string("recovery: ") + e.what());
  }
  rig->remove_logs();

  out.failed = failures.count;
  out.detail("op_modes", mode_counts(modes));
  if (o.trace) {
    layer_metrics(trace, out, "take");
    trace.write_json(o.dir / "spans.json");
  } else {
    e2e_samples(out, op_ms, appended, op_ms.size(), peak_mb, setup_s);
  }
  return out;
}

Outcome run_history(const RunOptions& o) {
  Outcome out;
  Failures failures;
  Trace trace;
  const auto setup_start = Clock::now();
  auto rig =
      std::make_unique<HistoryRig>(o, o.trace ? &trace : nullptr, failures);
  const double setup_s = ms_between(setup_start, Clock::now()) / 1e3;
  const core::TypeRegistry registry = make_registry();

  // Targets are a stratified sample drawn from the seed: op k of a cycle
  // reads epoch bitrev(k) ^ mask, with a fresh seeded mask per cycle of
  // kHistoryEpochs ops. Any first 2^j ops of a cycle then hit every
  // (kHistoryEpochs >> j)-th epoch, so even a partial cycle samples log
  // positions and replay depths evenly. Ops come in pairs, one target in
  // each half of the log, and the run always ends on a whole pair: the
  // full at the middle epoch is a step in op time, and an unpaired op
  // would move the median across it.
  static_assert((kHistoryEpochs & (kHistoryEpochs - 1)) == 0);
  std::mt19937_64 rng(o.seed);
  const auto bitrev = [](Epoch i) {
    Epoch r = 0;
    for (Epoch bit = 1; bit < kHistoryEpochs; bit <<= 1, i >>= 1)
      r = (r << 1) | (i & 1);
    return r;
  };
  Epoch mask = 0;
  Epoch k = 0;

  std::vector<double> op_ms;
  std::map<std::string, std::uint64_t> modes;
  reset_peak_rss();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(o.seconds);
  while (Clock::now() < deadline || k % 2 != 0) {
    if (k % kHistoryEpochs == 0) mask = rng() % kHistoryEpochs;
    const Epoch target = bitrev(k++ % kHistoryEpochs) ^ mask;
    const std::uint64_t want = rig->digest_at(target);
    ++out.attempted;
    try {
      if (o.trace) {
        trace.begin_op();
        if (traced_recover(trace, rig->log().string(), registry, target) !=
            want)
          failures.add("traced recovery differs from epoch " +
                       std::to_string(target));
      }
      const auto t0 = Clock::now();
      const core::RecoverResult r = core::CheckpointManager::recover_to_epoch(
          rig->log().string(), registry, target);
      const double ms = ms_between(t0, Clock::now());
      // The one mode of this op: the target served from the live log, with
      // no salvage and no fallback generation.
      const bool clean = r.generations_tried == 1 && r.log_clean;
      ++modes[clean ? "recover_to_epoch" : "recover_to_epoch_salvaged"];
      if (r.state.epoch != target || digest(r.state) != want) {
        failures.add("recover_to_epoch(" + std::to_string(target) +
                     ") differs from the state taken at that epoch");
        continue;
      }
      op_ms.push_back(ms);
      if (o.trace) {
        trace.count("trace.op_ms", ms);
        trace.count("core.replay_frames",
                    static_cast<double>(r.checkpoints_applied));
        trace.count("core.stream_passes",
                    static_cast<double>(r.stream_passes));
      }
    } catch (const Error& e) {
      failures.add(e.what());
    }
  }
  const double peak_mb = peak_rss_mb();
  remove_log(rig->log());

  out.failed = failures.count;
  out.detail("op_modes", mode_counts(modes));
  if (o.trace) {
    layer_metrics(trace, out, "recover");
    trace.write_json(o.dir / "spans.json");
  } else {
    e2e_samples(out, op_ms, rig->log_bytes(), kHistoryEpochs, peak_mb,
                setup_s);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-incr", "alldirty-sharded", "history-read"};
  return names;
}

Outcome run_workload(const RunOptions& o) {
  if (o.workload == "paper-incr") return run_takes(paper_incr(o.seed), o);
  if (o.workload == "alldirty-sharded")
    return run_takes(alldirty_sharded(o.seed), o);
  if (o.workload == "history-read") return run_history(o);
  throw Error("unknown workload '" + o.workload + "'");
}

}  // namespace e2e
