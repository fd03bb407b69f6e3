// Traced op sequences for the per-layer run. Each makes the public calls
// that CheckpointManager makes for one take() or one recover_to_epoch(),
// plus a few side measurements, and wraps every call in a span.
#pragma once

#include <string>

#include "core/type_registry.hpp"
#include "harness.hpp"
#include "io/stable_storage.hpp"
#include "spec/executor.hpp"
#include "synth/workload.hpp"

namespace e2e {

/// One traced take of `graph`'s current dirty set, appended to `storage`.
/// Spans, in order: core.capture (Checkpoint::run, or ParallelCheckpoint::run
/// when threads > 1, into an io::VectorSink), io.crc (io::Crc32::compute over
/// the frame), io.append (StableStorage::append); then, each from the same
/// dirty flags, core.walk (the capture into an io::CountingSink),
/// spec.plan_capture (spec::run_plan_checkpoint), and, unless the capture
/// itself ran on 2 threads, core.par2_probe (a 2-thread sharded capture that
/// the manager does not make, the source of the core.par2_* merge counts).
/// Leaves the dirty flags as it found them. Returns false when an
/// incremental plan frame differs from the generic one.
bool traced_take(Trace& trace, ickpt::synth::SynthWorkload& graph,
                 const ickpt::spec::PlanExecutor& plan,
                 ickpt::io::StableStorage& storage, ickpt::Epoch epoch,
                 ickpt::core::Mode mode, unsigned threads);

/// One traced recovery of epoch `target` from the log at `path`. Spans:
/// io.index (io::index_frames), io.stream (one io::FrameIterator pass up to
/// the target's frame) with a core.apply child (Recovery::apply) per frame
/// of the window, and core.finish (Recovery::finish). Returns the digest of
/// the recovered state.
std::uint64_t traced_recover(Trace& trace, const std::string& path,
                             const ickpt::core::TypeRegistry& registry,
                             ickpt::Epoch target);

}  // namespace e2e
