// Epoch-history oracle for time-travel recovery.
//
// A randomized synthetic workload mutates an Inner-chain graph and records
// the *entire* live state at every epoch it checkpoints. The oracle then
// proves, state-for-state, that recover_to_epoch(N) reproduces exactly the
// recorded snapshot for every epoch still on the log — across sync, async,
// and parallel capture, before and after each binomial compaction, and
// across a process restart. Epochs the retention policy dropped must fail
// with EpochNotRetainedError naming the nearest retained neighbors — a
// wrong-state success anywhere here is the one unforgivable outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/retention.hpp"
#include "io/file_io.hpp"
#include "tests/test_types.hpp"
#include "verify/fsck.hpp"

namespace ickpt::testing {
namespace {

using core::CheckpointManager;
using core::CompactOptions;
using core::CompactPolicy;
using core::EpochNotRetainedError;
using core::ManagerOptions;
using core::Mode;
using core::RetentionManifest;
using core::RetentionPolicy;
using core::TypeRegistry;

constexpr std::size_t kInners = 6;

/// Everything observable about the workload graph at one moment: the
/// right-chain reachable from the root, each node's tag and which leaf (if
/// any) its left link names, and every linked leaf's values. Ids pin the
/// links themselves, not just the values behind them.
struct Snapshot {
  std::vector<ObjectId> chain;
  std::vector<std::int32_t> tags;
  std::vector<ObjectId> lefts;  // kNullObjectId where left is cleared
  std::vector<std::int32_t> i32s;
  std::vector<std::int64_t> i64s;
  std::vector<double> f64s;
  std::vector<bool> flags;

  bool operator==(const Snapshot&) const = default;
};

/// Snapshot the graph under `root` by walking the Inner right-chain; used
/// on the live workload and on a recovered graph alike.
Snapshot snap(const Inner* root) {
  Snapshot s;
  for (const Inner* inner = root; inner != nullptr; inner = inner->right) {
    s.chain.push_back(inner->info().id());
    s.tags.push_back(inner->tag);
    const Leaf* leaf = inner->left;
    s.lefts.push_back(leaf != nullptr ? leaf->info().id() : kNullObjectId);
    if (leaf == nullptr) continue;
    s.i32s.push_back(leaf->i32);
    s.i64s.push_back(leaf->i64);
    s.f64s.push_back(leaf->f64);
    s.flags.push_back(leaf->flag);
  }
  return s;
}

/// The synthetic workload: a right-chain of Inners, each holding one Leaf.
/// Mutation changes values, clears and restores left links, and shortens
/// or re-extends the chain (inners[i]->right is always inners[i + 1] or
/// null).
struct Workload {
  core::Heap heap;
  std::vector<Inner*> inners;
  std::vector<Leaf*> leaves;

  Workload() {
    for (std::size_t i = 0; i < kInners; ++i) {
      Inner* inner = heap.make<Inner>();
      Leaf* leaf = heap.make<Leaf>();
      inner->set_left(leaf);
      inners.push_back(inner);
      leaves.push_back(leaf);
      if (i > 0) inners[i - 1]->set_right(inner);
    }
  }

  Inner* root() { return inners.front(); }

  /// Mutate a random nonempty subset of the graph.
  void mutate(std::mt19937_64& rng) {
    bool touched = false;
    for (std::size_t i = 0; i < kInners; ++i) {
      if ((rng() & 3) == 0) {
        inners[i]->set_tag(static_cast<std::int32_t>(rng() % 100000));
        touched = true;
      }
      if ((rng() & 1) == 0) {
        leaves[i]->set_i32(static_cast<std::int32_t>(rng()));
        leaves[i]->set_i64(static_cast<std::int64_t>(rng()));
        leaves[i]->set_f64(static_cast<double>(rng() % 100000) / 13.0);
        leaves[i]->set_flag((rng() & 1) != 0);
        touched = true;
      }
    }
    if ((rng() & 3) == 0) {
      const std::size_t i = rng() % kInners;
      if (inners[i]->left != nullptr) {
        inners[i]->set_left(nullptr);
      } else {
        inners[i]->set_left(leaves[i]);
        touch(leaves[i]);
      }
      touched = true;
    }
    if ((rng() & 3) == 0) {
      std::size_t len = 1;
      while (inners[len - 1]->right != nullptr) ++len;
      if (len > 1 && ((rng() & 1) == 0 || len == kInners)) {
        inners[rng() % (len - 1)]->set_right(nullptr);
      } else if (len < kInners) {
        inners[len - 1]->set_right(inners[len]);
        for (Inner* inner = inners[len]; inner != nullptr;
             inner = inner->right) {
          touch(inner);
          touch(inner->left);
        }
      }
      touched = true;
    }
    if (!touched) leaves[0]->set_i32(static_cast<std::int32_t>(rng()));
  }

  Snapshot snap() const { return testing::snap(inners.front()); }

 private:
  /// Mark a re-linked object modified: one that was unreachable at the
  /// window's full checkpoint is in no frame of that window, and an
  /// incremental checkpoint records only modified objects.
  static void touch(core::Checkpointable* obj) {
    if (obj != nullptr) obj->info().set_modified();
  }
};

using Oracle = std::map<Epoch, Snapshot>;

class TimeTravelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_timetravel_test.log";
    clean_files();
    register_test_types(registry_);
  }
  void TearDown() override { clean_files(); }

  void clean_files() {
    std::remove(path_.c_str());
    std::remove((path_ + ".retain").c_str());
    std::remove((path_ + ".compact").c_str());
    std::remove((path_ + ".bak").c_str());
    for (int i = 0; i < 8; ++i)
      std::remove((path_ + ".quarantine." + std::to_string(i)).c_str());
  }

  /// Run `epochs` checkpoints of a fresh workload, recording the oracle.
  Oracle run_workload(Workload& w, ManagerOptions opts, unsigned epochs,
                      std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Oracle oracle;
    CheckpointManager manager(path_, opts);
    for (unsigned i = 0; i < epochs; ++i) {
      w.mutate(rng);
      auto take = manager.take(*w.root());
      oracle[take.epoch] = w.snap();
    }
    manager.flush();
    return oracle;
  }

  /// recover_to_epoch(e) must reproduce oracle[e] exactly — state equality,
  /// the frame's own epoch, never a neighbor's state.
  void expect_epoch_matches(Epoch e, const Oracle& oracle) {
    auto result = CheckpointManager::recover_to_epoch(path_, registry_, e);
    ASSERT_EQ(result.state.epoch, e);
    ASSERT_TRUE(oracle.count(e)) << "oracle has no snapshot for epoch " << e;
    EXPECT_EQ(snap(result.state.root_as<Inner>()), oracle.at(e))
        << "state mismatch at epoch " << e;
  }

  std::string path_;
  TypeRegistry registry_;
};

// --- every epoch, every capture mode ---------------------------------------

// Before any compaction the whole history is on the log: every epoch ever
// taken must recover to exactly its oracle snapshot. Run under all three
// capture pipelines — the retention machinery must not care how the frames
// were produced.
TEST_F(TimeTravelTest, EveryEpochMatchesOracleSyncCapture) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 20, 0x71ABE001);
  for (const auto& entry : oracle) expect_epoch_matches(entry.first, oracle);
}

TEST_F(TimeTravelTest, EveryEpochMatchesOracleAsyncCapture) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 5;
  opts.async_io = true;
  Oracle oracle = run_workload(w, opts, 17, 0x71ABE002);
  for (const auto& entry : oracle) expect_epoch_matches(entry.first, oracle);
}

TEST_F(TimeTravelTest, EveryEpochMatchesOracleParallelCapture) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 3;
  opts.capture_threads = 4;
  Oracle oracle = run_workload(w, opts, 15, 0x71ABE003);
  for (const auto& entry : oracle) expect_epoch_matches(entry.first, oracle);
}

// --- compaction -------------------------------------------------------------

// After a binomial compaction, every *retained* epoch still matches its
// oracle snapshot, every dropped epoch fails with EpochNotRetainedError
// naming the nearest retained neighbors, and fsck finds a log that honors
// its own declaration.
TEST_F(TimeTravelTest, PolicyCompactionPreservesRetainedHistory) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 24, 0x71ABE004);
  const Epoch newest = oracle.rbegin()->first;

  auto compacted = CheckpointManager::compact(
      path_, registry_, CompactOptions{CompactPolicy::kBinomial});
  EXPECT_EQ(compacted.epochs_dropped, 0u);
  EXPECT_EQ(compacted.retained, RetentionPolicy::schedule(newest));

  // The manifest is published and declares exactly what was written.
  auto manifest = RetentionManifest::load(path_);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->newest, newest);
  EXPECT_EQ(manifest->epochs, compacted.retained);

  for (Epoch e = 0; e <= newest; ++e) {
    if (RetentionPolicy::retained(e, newest)) {
      expect_epoch_matches(e, oracle);
    } else {
      try {
        CheckpointManager::recover_to_epoch(path_, registry_, e);
        FAIL() << "dropped epoch " << e << " recovered — wrong-state success";
      } catch (const EpochNotRetainedError& err) {
        EXPECT_EQ(err.target(), e);
        // Nearest neighbors straight off the schedule.
        const auto& sched = compacted.retained;
        auto above = std::upper_bound(sched.begin(), sched.end(), e);
        ASSERT_NE(above, sched.begin());
        ASSERT_NE(above, sched.end());
        ASSERT_TRUE(err.below().has_value());
        ASSERT_TRUE(err.above().has_value());
        EXPECT_EQ(*err.below(), *(above - 1));
        EXPECT_EQ(*err.above(), *above);
        EXPECT_NE(std::string(err.what()).find("not retained"),
                  std::string::npos)
            << err.what();
      }
    }
  }

  auto report = verify::fsck_log(path_, registry_);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// Retention survives *repeated* compaction with live epochs in between:
// monotonicity guarantees compaction N+1 finds every epoch it wants still
// present after compaction N.
TEST_F(TimeTravelTest, RepeatedCompactionStaysConsistentWithOracle) {
  Workload w;
  std::mt19937_64 rng(0x71ABE005);
  Oracle oracle;
  ManagerOptions opts;
  opts.full_interval = 4;
  Epoch newest = 0;
  for (int round = 0; round < 3; ++round) {
    {
      CheckpointManager manager(path_, opts);
      for (int i = 0; i < 9; ++i) {
        w.mutate(rng);
        auto take = manager.take(*w.root());
        oracle[take.epoch] = w.snap();
        newest = take.epoch;
      }
    }
    auto compacted = CheckpointManager::compact(
        path_, registry_, CompactOptions{CompactPolicy::kBinomial});
    EXPECT_EQ(compacted.epochs_dropped, 0u)
        << "round " << round << ": an epoch the schedule wanted was missing";
    EXPECT_EQ(compacted.retained, RetentionPolicy::schedule(newest));
    for (Epoch e : compacted.retained) expect_epoch_matches(e, oracle);
    auto report = verify::fsck_log(path_, registry_);
    EXPECT_TRUE(report.clean()) << report.to_string();
  }
}

// The epoch counter must keep advancing across a compaction: retained
// frames carry seq == epoch, so a fresh manager resumes after the newest.
TEST_F(TimeTravelTest, EpochsResumeAfterCompaction) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 10, 0x71ABE006);
  const Epoch newest = oracle.rbegin()->first;
  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  CheckpointManager manager(path_, opts);
  EXPECT_EQ(manager.next_epoch(), newest + 1);
  w.leaves[0]->set_i32(777);
  EXPECT_EQ(manager.take(*w.root()).epoch, newest + 1);
}

// --- restart ----------------------------------------------------------------

// Kill the process (destroy manager + heap), recover the newest state into
// a fresh heap, keep checkpointing, compact — the oracle must hold across
// the whole lifetime, including epochs taken before the restart.
TEST_F(TimeTravelTest, OracleHoldsAcrossRestartAndCompaction) {
  std::mt19937_64 rng(0x71ABE007);
  Oracle oracle;
  ManagerOptions opts;
  opts.full_interval = 4;
  {
    Workload w;
    CheckpointManager manager(path_, opts);
    for (int i = 0; i < 13; ++i) {
      w.mutate(rng);
      auto take = manager.take(*w.root());
      oracle[take.epoch] = w.snap();
    }
  }  // crash

  // Second life: recover newest, mutate the recovered graph directly.
  auto recovered = CheckpointManager::recover(path_, registry_);
  Inner* root = recovered.state.root_as<Inner>();
  ASSERT_EQ(snap(root), oracle.rbegin()->second);
  {
    CheckpointManager manager(path_, opts);
    std::mt19937_64 rng2(0x71ABE008);
    for (int i = 0; i < 8; ++i) {
      // Mutate the recovered chain the same way the workload would.
      for (Inner* inner = root; inner != nullptr; inner = inner->right) {
        if ((rng2() & 1) == 0 && inner->left != nullptr)
          inner->left->set_i32(static_cast<std::int32_t>(rng2()));
        if ((rng2() & 3) == 0)
          inner->set_tag(static_cast<std::int32_t>(rng2() % 100000));
      }
      auto take = manager.take(*root);
      oracle[take.epoch] = snap(root);
    }
  }

  // Pre-restart epochs are still addressable...
  for (Epoch e : {Epoch{0}, Epoch{5}, Epoch{12}}) expect_epoch_matches(e, oracle);
  // ...and stay addressable (when retained) after a policy compaction.
  const Epoch newest = oracle.rbegin()->first;
  auto compacted = CheckpointManager::compact(
      path_, registry_, CompactOptions{CompactPolicy::kBinomial});
  EXPECT_EQ(compacted.epochs_dropped, 0u);
  for (Epoch e : compacted.retained) expect_epoch_matches(e, oracle);
  EXPECT_EQ(compacted.retained, RetentionPolicy::schedule(newest));
}

// --- history ----------------------------------------------------------------

TEST_F(TimeTravelTest, HistoryListsEveryEpochThenOnlyRetained) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 12, 0x71ABE009);
  const Epoch newest = oracle.rbegin()->first;

  auto history = CheckpointManager::history(path_);
  ASSERT_EQ(history.size(), oracle.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].epoch, static_cast<Epoch>(i));
    EXPECT_TRUE(history[i].live);
    EXPECT_FALSE(history[i].resync);
    EXPECT_EQ(history[i].mode,
              i % opts.full_interval == 0 ? Mode::kFull : Mode::kIncremental);
  }

  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  history = CheckpointManager::history(path_);
  std::vector<Epoch> listed;
  for (const auto& entry : history) {
    listed.push_back(entry.epoch);
    EXPECT_EQ(entry.mode, Mode::kFull) << "epoch " << entry.epoch;
    EXPECT_EQ(entry.seq, entry.epoch) << "epoch " << entry.epoch;
  }
  EXPECT_EQ(listed, RetentionPolicy::schedule(newest));
}

// --- fsck: a half-applied policy is damage, not tidiness --------------------

// Doctor the manifest to declare a *subset* of what the log carries: fsck
// must flag every undeclared epoch (retention-undeclared, error), because a
// policy compaction that died halfway looks exactly like this.
TEST_F(TimeTravelTest, FsckFlagsUndeclaredEpochs) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  run_workload(w, opts, 12, 0x71ABE00A);

  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  auto manifest = RetentionManifest::load(path_);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_GE(manifest->epochs.size(), 3u);
  // Drop one interior declared epoch: the frame is now "undeclared".
  const Epoch dropped = manifest->epochs[1];
  manifest->epochs.erase(manifest->epochs.begin() + 1);
  manifest->save(path_);

  auto report = verify::fsck_log(path_, registry_);
  EXPECT_FALSE(report.clean());
  const auto* finding = report.first("retention-undeclared");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, verify::Severity::kError);
  EXPECT_NE(finding->message.find(std::to_string(dropped)),
            std::string::npos)
      << finding->message;
}

// The converse damage: the manifest declares an epoch the log lost.
TEST_F(TimeTravelTest, FsckFlagsMissingDeclaredEpochs) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  run_workload(w, opts, 12, 0x71ABE00B);
  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  auto manifest = RetentionManifest::load(path_);
  ASSERT_TRUE(manifest.has_value());
  // Declare an epoch that is on the schedule for `newest` but (being on the
  // schedule already) exists — so instead declare one off-schedule: both
  // retention-policy and retention-missing must fire.
  manifest->epochs.insert(
      std::upper_bound(manifest->epochs.begin(), manifest->epochs.end(),
                       Epoch{3}),
      Epoch{3});
  manifest->save(path_);

  auto report = verify::fsck_log(path_, registry_);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.first("retention-missing"), nullptr) << report.to_string();
}

// An unparseable manifest is itself a finding, not an excuse to skip the
// audit silently.
TEST_F(TimeTravelTest, FsckFlagsGarbageManifest) {
  Workload w;
  ManagerOptions opts;
  run_workload(w, opts, 6, 0x71ABE00C);
  io::write_file(path_ + ".retain", {'j', 'u', 'n', 'k', '\n'});
  auto report = verify::fsck_log(path_, registry_);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.first("retention-policy"), nullptr) << report.to_string();
}

// --- manifest round-trip ----------------------------------------------------

TEST_F(TimeTravelTest, ManifestRoundTrips) {
  EXPECT_FALSE(RetentionManifest::load(path_).has_value());
  RetentionManifest m;
  m.newest = 24;
  m.epochs = RetentionPolicy::schedule(24);
  m.save(path_);
  auto loaded = RetentionManifest::load(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->newest, m.newest);
  EXPECT_EQ(loaded->epochs, m.epochs);
  EXPECT_TRUE(loaded->declares(24));
  EXPECT_TRUE(loaded->declares(0));
  EXPECT_FALSE(loaded->declares(21));
  RetentionManifest::remove(path_);
  EXPECT_FALSE(RetentionManifest::load(path_).has_value());
}

// A squash compaction drops the history — and must drop the declaration
// with it, or fsck would flag the squashed log as damaged.
TEST_F(TimeTravelTest, SquashCompactionRemovesManifest) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 10, 0x71ABE00D);
  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  ASSERT_TRUE(RetentionManifest::load(path_).has_value());
  CheckpointManager::compact(path_, registry_);  // kSquashAll shorthand
  EXPECT_FALSE(RetentionManifest::load(path_).has_value());
  auto report = verify::fsck_log(path_, registry_);
  EXPECT_TRUE(report.clean()) << report.to_string();
  // Newest state survives the squash.
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_EQ(snap(result.state.root_as<Inner>()),
            oracle.rbegin()->second);
}

}  // namespace
}  // namespace ickpt::testing
