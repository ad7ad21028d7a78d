// Integration suite for the sweep service (runner/sweep.hpp +
// runner/checkpoint.hpp): crash/resume, shard/merge, and cross-cell build
// reuse must all reproduce the single-process uninterrupted run byte for
// byte — the acceptance bar of the service, checked here on real (small)
// grids end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/checkpoint.hpp"
#include "runner/json.hpp"
#include "runner/sweep.hpp"

namespace perigee::runner {
namespace {

namespace fs = std::filesystem;

// 3 cells x 2 seeds = 6 jobs; algorithm is a policy axis, so all three cells
// of one seed share a scenario build.
SweepSpec service_spec() {
  SweepSpec spec;
  spec.name = "service";
  spec.base.net.n = 48;
  spec.base.rounds = 2;
  spec.base.seed = 11;
  spec.seeds = 2;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  return spec;
}

std::string json_bytes(const SweepSpec& spec, const SweepResult& result) {
  std::ostringstream os;
  write_json(os, spec, result);
  return os.str();
}

// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

TEST(GridFingerprint, StableAndSensitiveToResultAxes) {
  const SweepSpec spec = service_spec();
  const std::string fingerprint = grid_fingerprint(spec);
  EXPECT_EQ(fingerprint, grid_fingerprint(spec));  // pure function

  SweepSpec changed = service_spec();
  changed.base.seed = 12;
  EXPECT_NE(grid_fingerprint(changed), fingerprint);
  changed = service_spec();
  changed.seeds = 3;
  EXPECT_NE(grid_fingerprint(changed), fingerprint);
  changed = service_spec();
  changed.nodes = {48, 64};
  EXPECT_NE(grid_fingerprint(changed), fingerprint);
  changed = service_spec();
  changed.base.scenario.churn.rate = 0.05;
  EXPECT_NE(grid_fingerprint(changed), fingerprint);
}

// Checkpoints and shard files written by earlier builds carry these hashes:
// a refactor of how the axes are serialized must not change them.
TEST(GridFingerprint, PinnedLiterals) {
  EXPECT_EQ(grid_fingerprint(service_spec()), "a07056b51d4f7416");

  SweepSpec all = service_spec();
  all.nodes = {48, 64};
  all.rounds = {1, 2};
  all.hash_models = {mining::HashPowerModel::Uniform,
                     mining::HashPowerModel::Exponential};
  all.validation_scales = {0.5, 1.0};
  all.relay = {false, true};
  all.churn_rates = {0.0, 0.05};
  all.hetero_profiles = {scenario::HeteroProfile::Off,
                         scenario::HeteroProfile::Bandwidth};
  all.withhold_fractions = {0.0, 0.1};
  all.transmission_models = {scenario::TransmissionModel::Delay,
                             scenario::TransmissionModel::Queue};
  EXPECT_EQ(grid_fingerprint(all), "950b7662d594d53b");
}

TEST(GridFingerprint, IgnoresWallClockOnlyKnobs) {
  // A checkpoint taken under one engine must resume under another: these
  // switches are byte-parity-pinned elsewhere and not result axes.
  const std::string fingerprint = grid_fingerprint(service_spec());
  SweepSpec changed = service_spec();
  changed.base.engine_jobs = 8;
  changed.base.incremental_csr = false;
  changed.base.relax_engine = sim::RelaxEngine::ParallelDelta;
  EXPECT_EQ(grid_fingerprint(changed), fingerprint);
}

TEST(ScenarioSignature, SeparatesBuildAxesFromPolicyAxes) {
  core::ExperimentConfig a = service_spec().base;
  core::ExperimentConfig b = a;

  // Policy axes: same build, different learning loop.
  b.algorithm = core::Algorithm::Random;
  b.rounds = 7;
  b.scenario.churn.rate = 0.1;
  EXPECT_EQ(scenario_signature(a), scenario_signature(b));

  // Build axes: any of these samples a different network.
  b = a;
  b.net.n = 64;
  EXPECT_NE(scenario_signature(a), scenario_signature(b));
  b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(scenario_signature(a), scenario_signature(b));
  b = a;
  b.net.validation_scale = 5.0;
  EXPECT_NE(scenario_signature(a), scenario_signature(b));
  b = a;
  b.relay = true;
  EXPECT_NE(scenario_signature(a), scenario_signature(b));
  b = a;
  b.scenario.hetero.profile = scenario::HeteroProfile::Bandwidth;
  EXPECT_NE(scenario_signature(a), scenario_signature(b));
}

TEST(CheckpointStore, RoundTripsSlotsExactlyIncludingNonFinite) {
  const std::string dir = scratch_dir("perigee_ckpt_roundtrip");
  const CheckpointStore store(dir, "fp-test");
  store.prepare();

  SlotCurves slot;
  slot.cell = 2;
  slot.seed = 1;
  slot.lambda = {1.5, std::numeric_limits<double>::infinity(), 0.1 + 0.2};
  slot.lambda50 = {-std::numeric_limits<double>::infinity(), 3.25};
  ASSERT_TRUE(store.save(slot));

  const std::vector<SlotCurves> loaded = store.load_all();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].cell, 2u);
  EXPECT_EQ(loaded[0].seed, 1u);
  ASSERT_EQ(loaded[0].lambda.size(), 3u);
  EXPECT_EQ(loaded[0].lambda[0], 1.5);
  EXPECT_TRUE(std::isinf(loaded[0].lambda[1]));
  EXPECT_GT(loaded[0].lambda[1], 0);
  // Bit-exact, not approximately: 0.1 + 0.2 != 0.3 and the codec must keep
  // that distinction or resumed aggregates drift off the reference bytes.
  EXPECT_EQ(loaded[0].lambda[2], 0.1 + 0.2);
  EXPECT_TRUE(std::isinf(loaded[0].lambda50[0]));
  EXPECT_LT(loaded[0].lambda50[0], 0);

  store.remove_all();
  EXPECT_FALSE(fs::exists(dir));
}

TEST(CheckpointStore, MissingDirectoryIsEmptyResume) {
  const CheckpointStore store(scratch_dir("perigee_ckpt_missing"), "fp");
  EXPECT_TRUE(store.load_all().empty());
}

TEST(CheckpointStore, RefusesForeignFingerprint) {
  const std::string dir = scratch_dir("perigee_ckpt_foreign");
  const CheckpointStore writer(dir, "fp-one");
  writer.prepare();
  SlotCurves slot;
  slot.lambda = {1.0};
  slot.lambda50 = {2.0};
  ASSERT_TRUE(writer.save(slot));

  const CheckpointStore reader(dir, "fp-two");
  EXPECT_THROW(reader.load_all(), std::runtime_error);
  writer.remove_all();
}

TEST(SweepService, ResumeAfterInterruptIsByteIdentical) {
  const SweepSpec spec = service_spec();
  const SweepRunner runner(4);
  const std::string reference = json_bytes(spec, runner.run(spec));

  // Simulate a run killed halfway: compute all slots, then persist only the
  // first half — exactly the on-disk state an interrupted checkpointing run
  // leaves behind (write_file_atomic means no torn files).
  const std::vector<SlotCurves> slots = runner.run_slots(spec, SweepOptions{});
  ASSERT_EQ(slots.size(), 6u);
  const std::string dir = scratch_dir("perigee_service_resume");
  const CheckpointStore store(dir, grid_fingerprint(spec));
  store.prepare();
  for (std::size_t i = 0; i < slots.size() / 2; ++i) {
    ASSERT_TRUE(store.save(slots[i]));
  }

  SweepOptions options;
  options.checkpoint_dir = dir;
  options.resume = true;
  std::atomic<std::size_t> first_done{~std::size_t{0}};
  const SweepResult resumed =
      runner.run(spec, options, [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, 6u);
        std::size_t expected = ~std::size_t{0};
        first_done.compare_exchange_strong(expected, done);
      });
  // The resumed slots were loaded, not recomputed: progress starts at 3.
  EXPECT_EQ(first_done.load(), 3u);
  EXPECT_EQ(json_bytes(spec, resumed), reference);
  CheckpointStore(dir, "").remove_all();
}

TEST(SweepService, ResumeRefusesForeignCheckpoints) {
  SweepSpec other = service_spec();
  other.base.seed = 99;  // different grid, same cell/seed shape
  const std::string dir = scratch_dir("perigee_service_foreign");
  const CheckpointStore store(dir, grid_fingerprint(other));
  store.prepare();
  SlotCurves slot;
  slot.lambda = {1.0};
  slot.lambda50 = {1.0};
  ASSERT_TRUE(store.save(slot));

  SweepOptions options;
  options.checkpoint_dir = dir;
  options.resume = true;
  EXPECT_THROW(SweepRunner(2).run(service_spec(), options),
               std::runtime_error);
  store.remove_all();
}

TEST(SweepService, ShardMergeIsByteIdentical) {
  const SweepSpec spec = service_spec();
  const SweepRunner runner(4);
  const std::string reference = json_bytes(spec, runner.run(spec));
  const std::string fingerprint = grid_fingerprint(spec);

  constexpr int kShards = 3;
  std::vector<std::string> paths;
  std::size_t covered = 0;
  for (int i = 0; i < kShards; ++i) {
    SweepOptions options;
    options.shard_index = i;
    options.shard_count = kShards;
    ShardFile shard;
    shard.shard_index = i;
    shard.shard_count = kShards;
    shard.slots = runner.run_slots(spec, options);
    // Round-robin partition: shard i owns exactly the jobs j % k == i.
    for (const SlotCurves& slot : shard.slots) {
      const std::size_t j =
          slot.cell * static_cast<std::size_t>(spec.seeds) + slot.seed;
      EXPECT_EQ(j % kShards, static_cast<std::size_t>(i));
    }
    covered += shard.slots.size();
    const std::string path =
        ::testing::TempDir() + "perigee_service_shard" + std::to_string(i) +
        ".json";
    ASSERT_TRUE(write_shard_file(path, fingerprint, shard));
    paths.push_back(path);
  }
  EXPECT_EQ(covered, 6u);  // disjoint and complete

  const SweepResult merged = merge_shards(spec, paths);
  EXPECT_EQ(json_bytes(spec, merged), reference);
  for (const std::string& path : paths) fs::remove(path);
}

TEST(SweepService, MergeValidatesShardSets) {
  const SweepSpec spec = service_spec();
  const SweepRunner runner(4);
  const std::string fingerprint = grid_fingerprint(spec);

  std::vector<std::string> paths;
  for (int i = 0; i < 2; ++i) {
    SweepOptions options;
    options.shard_index = i;
    options.shard_count = 2;
    ShardFile shard;
    shard.shard_index = i;
    shard.shard_count = 2;
    shard.slots = runner.run_slots(spec, options);
    const std::string path = ::testing::TempDir() +
                             "perigee_service_merge_check" +
                             std::to_string(i) + ".json";
    ASSERT_TRUE(write_shard_file(path, fingerprint, shard));
    paths.push_back(path);
  }

  // Missing shard: one file of a k=2 split cannot cover the grid.
  EXPECT_THROW(merge_shards(spec, {paths[0]}), std::runtime_error);
  // Duplicate shard.
  EXPECT_THROW(merge_shards(spec, {paths[0], paths[0]}), std::runtime_error);
  // Foreign grid: the fingerprint embedded in the files does not match.
  SweepSpec other = spec;
  other.base.seed = 99;
  EXPECT_THROW(merge_shards(other, paths), std::runtime_error);
  // The honest merge still works.
  EXPECT_NO_THROW(merge_shards(spec, paths));
  for (const std::string& path : paths) fs::remove(path);
}

TEST(SweepService, BuildReuseIsByteIdentical) {
  // Policy-axis grid: all cells of one seed share a scenario build, so the
  // reuse path exercises build-once-clone-many; turning it off must not
  // change a single byte.
  SweepSpec spec = service_spec();
  spec.rounds = {1, 2};  // 6 cells x 2 seeds, still 2 builds
  const SweepRunner runner(4);

  SweepOptions with_reuse;
  with_reuse.reuse_builds = true;
  SweepOptions without_reuse;
  without_reuse.reuse_builds = false;
  const std::string a = json_bytes(spec, runner.run(spec, with_reuse));
  const std::string b = json_bytes(spec, runner.run(spec, without_reuse));
  EXPECT_EQ(a, b);
  // And both equal the plain batch entry point.
  EXPECT_EQ(a, json_bytes(spec, runner.run(spec)));
}

TEST(ProgressPrinter, ConcurrentReportsNeverInterleave) {
  // Regression: the sweep CLI used to write "\r N/total" to cerr straight
  // from worker threads; two workers finishing together interleaved partial
  // lines. The printer serializes and keeps the counter monotone.
  std::ostringstream os;
  ProgressPrinter printer(os, "jobs ");
  constexpr std::size_t kTotal = 400;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      while (true) {
        const std::size_t done = next.fetch_add(1) + 1;
        if (done > kTotal) break;
        printer(done, kTotal);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  printer.finish();

  const std::string out = os.str();
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  // Every carriage-return-delimited frame is exactly "jobs <m>/400", and
  // the displayed counter never moves backwards.
  std::size_t last = 0;
  std::size_t frames = 0;
  std::stringstream frame_stream(out.substr(0, out.size() - 1));
  std::string frame;
  while (std::getline(frame_stream, frame, '\r')) {
    if (frame.empty()) continue;  // leading '\r'
    ++frames;
    ASSERT_EQ(frame.rfind("jobs ", 0), 0u) << "corrupt frame: " << frame;
    const std::size_t slash = frame.find('/');
    ASSERT_NE(slash, std::string::npos) << "corrupt frame: " << frame;
    const std::size_t shown = std::stoul(frame.substr(5, slash - 5));
    EXPECT_EQ(frame.substr(slash + 1), std::to_string(kTotal));
    EXPECT_GE(shown, last) << "meter moved backwards";
    last = shown;
  }
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(last, kTotal);  // the final report is the completion frame
}

TEST(ProgressPrinter, FinishIsIdempotentAndSilentWhenUnused) {
  std::ostringstream os;
  ProgressPrinter printer(os);
  printer.finish();
  EXPECT_TRUE(os.str().empty());
  printer(1, 2);
  printer.finish();
  printer.finish();
  EXPECT_EQ(os.str(), "\r1/2\n");
}

}  // namespace
}  // namespace perigee::runner
