#include "layers.hpp"

#include <vector>

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel_checkpoint.hpp"
#include "core/recovery.hpp"
#include "io/byte_sink.hpp"
#include "io/crc32.hpp"
#include "io/data_writer.hpp"
#include "io/frame_index.hpp"

namespace e2e {

using namespace ickpt;

namespace {

/// The manager's capture: Checkpoint at one thread, ParallelCheckpoint above.
core::CheckpointStats capture(io::ByteSink& sink, Epoch epoch,
                              std::span<core::Checkpointable* const> roots,
                              core::Mode mode, unsigned threads,
                              core::ParallelStats* pstats) {
  io::DataWriter writer(sink);
  core::CheckpointStats stats;
  if (threads > 1) {
    core::ParallelOptions popts;
    popts.mode = mode;
    popts.threads = threads;
    core::ParallelStats p = core::ParallelCheckpoint::run(writer, epoch,
                                                          roots, popts);
    stats = p.totals;
    if (pstats != nullptr) *pstats = std::move(p);
  } else {
    core::CheckpointOptions copts;
    copts.mode = mode;
    stats = core::Checkpoint::run(writer, epoch, roots, copts);
  }
  writer.flush();
  return stats;
}

/// The merge figures of a 2-thread capture, the op's own or a probe's.
void count_merge(Trace& trace, const core::ParallelStats& p) {
  trace.count("core.par2_merge_wait_ms", p.merge_wait_seconds * 1e3);
  trace.count("core.par2_merge_buffered_peak_mb",
              static_cast<double>(p.merge_buffered_peak_bytes) / 1e6);
  trace.count("core.par2_steals", static_cast<double>(p.steals));
}

}  // namespace

bool traced_take(Trace& trace, synth::SynthWorkload& graph,
                 const spec::PlanExecutor& plan, io::StableStorage& storage,
                 Epoch epoch, core::Mode mode, unsigned threads) {
  const std::vector<bool> flags = graph.save_flags();
  const auto roots = graph.root_bases();
  Scope op(trace, "take");

  io::VectorSink frame;
  core::ParallelStats pstats;
  core::CheckpointStats stats;
  {
    Scope s(trace, "core.capture", op.id());
    stats = capture(frame, epoch, roots, mode, threads, &pstats);
  }
  {
    Scope s(trace, "io.crc", op.id());
    volatile std::uint32_t crc =
        io::Crc32::compute(frame.bytes().data(), frame.size());
    (void)crc;
  }
  {
    Scope s(trace, "io.append", op.id());
    storage.append(frame.bytes());
  }
  trace.count("frame_bytes", static_cast<double>(frame.size()));
  trace.count("core.objects_visited",
              static_cast<double>(stats.objects_visited));
  trace.count("core.objects_recorded",
              static_cast<double>(stats.objects_recorded));

  graph.restore_flags(flags);
  {
    io::CountingSink counting;
    Scope s(trace, "core.walk", op.id());
    capture(counting, epoch, roots, mode, threads, nullptr);
  }

  graph.restore_flags(flags);
  io::VectorSink plan_frame;
  {
    Scope s(trace, "spec.plan_capture", op.id());
    io::DataWriter writer(plan_frame);
    spec::run_plan_checkpoint(writer, epoch, graph.root_ptrs(), plan, mode);
    writer.flush();
  }
  // A plan writes what its tests select, whatever the header's mode says,
  // so only an incremental frame must match the generic one byte for byte.
  const bool plan_ok =
      mode != core::Mode::kIncremental || plan_frame.bytes() == frame.bytes();

  if (threads == 2) {
    count_merge(trace, pstats);
  } else {
    // The manager does not shard this capture; a probe does, so the merge
    // figures say what 2-thread capture of this dirty set would cost.
    graph.restore_flags(flags);
    io::VectorSink probe;
    core::ParallelStats p;
    {
      Scope s(trace, "core.par2_probe", op.id());
      capture(probe, epoch, roots, mode, 2, &p);
    }
    count_merge(trace, p);
  }
  graph.restore_flags(flags);
  return plan_ok;
}

std::uint64_t traced_recover(Trace& trace, const std::string& path,
                             const core::TypeRegistry& registry,
                             Epoch target) {
  const io::ScanOptions sopts{.salvage = true};
  Scope op(trace, "recover");

  io::FrameIndex index;
  {
    Scope s(trace, "io.index", op.id());
    index = io::index_frames(path, sopts, core::stream_header_probe());
  }
  const std::optional<std::size_t> at = index.find_epoch(target);
  if (!at.has_value())
    throw CorruptionError("traced recover: epoch " + std::to_string(target) +
                          " not on " + path);
  std::size_t begin = *at;
  while (index.frames[begin].mode != static_cast<std::uint8_t>(
                                         core::Mode::kFull)) {
    if (begin == 0)
      throw CorruptionError("traced recover: no full checkpoint below epoch " +
                            std::to_string(target));
    --begin;
  }

  core::Recovery recovery(registry);
  std::uint64_t streamed = 0;
  {
    Scope stream(trace, "io.stream", op.id());
    io::FrameIterator it(path, sopts);
    io::Frame frame;
    for (std::size_t i = 0; i <= *at; ++i) {
      if (!it.next(frame))
        throw CorruptionError("traced recover: log shrank while streaming");
      streamed += frame.payload.size();
      if (i < begin) continue;
      Scope s(trace, "core.apply", stream.id());
      io::DataReader reader(frame.payload);
      recovery.apply(reader);
    }
  }
  core::RecoveredState state;
  {
    Scope s(trace, "core.finish", op.id());
    state = recovery.finish();
  }
  trace.count("stream_bytes", static_cast<double>(streamed));
  return digest(state);
}

}  // namespace e2e
