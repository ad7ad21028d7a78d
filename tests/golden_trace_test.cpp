// Golden-trace regression for the sweep-cell JSON schema.
//
// A tiny fig3a/churn-style sweep (2 learning algorithms + the ideal bound
// x churn {0, 0.1} x 2 seeds at n=60) is checked in under tests/fixtures/.
// The test re-runs the identical spec in-process and compares the emitted
// JSON *structurally* against the fixture: member names and their order,
// array shapes, config-echo values (label, nodes, rounds, churn, ...) exact,
// and curve entries finite exactly where the fixture's are. Schema drift —
// a renamed cell field, a dropped axis echo, a curve that silently changed
// shape or went infinite — fails loudly here instead of silently producing
// BENCH files downstream tools misread. λ magnitudes are deliberately NOT
// compared: they are pinned by the determinism checks on this platform, and
// last-ulp libm differences across toolchains must not fail the schema
// gate.
//
// Regenerate after an intentional schema change with:
//   PERIGEE_REGEN_FIXTURES=1 ./golden_trace_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/json.hpp"
#include "runner/sweep.hpp"

namespace perigee {
namespace {

runner::SweepSpec golden_spec() {
  runner::SweepSpec spec;
  spec.name = "golden";
  spec.base.net.n = 60;
  spec.base.rounds = 5;
  spec.base.blocks_per_round = 20;
  spec.base.seed = 1;
  spec.base.coverage = 0.90;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  spec.churn_rates = {0.0, 0.1};
  spec.seeds = 2;
  return spec;
}

std::string fixture_path() {
  return std::string(PERIGEE_FIXTURE_DIR) + "/golden_sweep.json";
}

std::string run_golden_sweep() {
  const runner::SweepSpec spec = golden_spec();
  const runner::SweepRunner sweep_runner(/*jobs=*/2);
  const runner::SweepResult result = sweep_runner.run(spec);
  std::ostringstream os;
  runner::write_json(os, spec, result);
  return os.str();
}

// Structural comparison. `in_curve` relaxes numbers to finiteness-only;
// everywhere else numbers, strings and bools must match exactly (they are
// the spec/config echo that downstream tooling keys on).
void expect_same_structure(const runner::JsonValue& fixture,
                           const runner::JsonValue& fresh,
                           const std::string& path, bool in_curve) {
  using Kind = runner::JsonValue::Kind;
  ASSERT_EQ(static_cast<int>(fixture.kind), static_cast<int>(fresh.kind))
      << "kind mismatch at " << path;
  switch (fixture.kind) {
    case Kind::Object: {
      ASSERT_EQ(fixture.members.size(), fresh.members.size())
          << "member count at " << path;
      for (std::size_t i = 0; i < fixture.members.size(); ++i) {
        const auto& [fixture_key, fixture_value] = fixture.members[i];
        const auto& [fresh_key, fresh_value] = fresh.members[i];
        // Order matters: deterministic JSON is diffed byte-wise elsewhere.
        ASSERT_EQ(fixture_key, fresh_key) << "member order at " << path;
        const bool curve_member =
            in_curve || fixture_key == "curve" || fixture_key == "curve50";
        expect_same_structure(fixture_value, fresh_value,
                              path + "." + fixture_key, curve_member);
      }
      break;
    }
    case Kind::Array: {
      ASSERT_EQ(fixture.items.size(), fresh.items.size())
          << "array length at " << path;
      for (std::size_t i = 0; i < fixture.items.size(); ++i) {
        expect_same_structure(fixture.items[i], fresh.items[i],
                              path + "[" + std::to_string(i) + "]", in_curve);
      }
      break;
    }
    case Kind::Number:
      if (in_curve) {
        // Curve magnitudes float with the toolchain; their shape and
        // finiteness must not. (+inf serializes as null, so Number here
        // already means finite — assert sanity instead of equality.)
        EXPECT_GE(fresh.number, 0.0) << "negative curve value at " << path;
      } else {
        EXPECT_EQ(fixture.number, fresh.number) << "value drift at " << path;
      }
      break;
    case Kind::String:
      EXPECT_EQ(fixture.string, fresh.string) << "value drift at " << path;
      break;
    case Kind::Bool:
      EXPECT_EQ(fixture.boolean, fresh.boolean) << "value drift at " << path;
      break;
    case Kind::Null:
      break;  // kinds already matched: fixture-inf == fresh-inf
  }
}

TEST(GoldenTrace, SweepCellSchemaMatchesFixture) {
  const std::string fresh_text = run_golden_sweep();

  if (std::getenv("PERIGEE_REGEN_FIXTURES") != nullptr) {
    std::ofstream out(fixture_path());
    ASSERT_TRUE(out) << "cannot write " << fixture_path();
    out << fresh_text;
    GTEST_SKIP() << "regenerated " << fixture_path();
  }

  std::ifstream in(fixture_path());
  ASSERT_TRUE(in) << "missing fixture " << fixture_path()
                  << " — run with PERIGEE_REGEN_FIXTURES=1 to create it";
  std::stringstream buffer;
  buffer << in.rdbuf();

  const auto fixture = runner::JsonValue::parse(buffer.str());
  const auto fresh = runner::JsonValue::parse(fresh_text);
  expect_same_structure(fixture, fresh, "$", /*in_curve=*/false);
}

// The curves themselves are pinned on the platform the fixture was
// generated on: byte-identical emission across worker counts is what the
// determinism acceptance checks diff, so the golden run must agree with
// itself at any jobs value too.
TEST(GoldenTrace, GoldenSweepIsJobsInvariant) {
  const runner::SweepSpec spec = golden_spec();
  std::ostringstream sequential, parallel;
  runner::write_json(sequential, spec, runner::SweepRunner(1).run(spec));
  runner::write_json(parallel, spec, runner::SweepRunner(3).run(spec));
  EXPECT_EQ(sequential.str(), parallel.str());
}

// The congestion shape: transmission model as a real result axis (cells
// differ between delay and queue) with bandwidth-tiered profiles driving
// the queue engine's token buckets. The queuing DES is single-threaded per
// source and sources land in pre-assigned stripes, so the full sweep JSON
// must stay bit-identical at any worker count exactly like the delay-only
// grids the determinism CI diffs.
TEST(GoldenTrace, CongestionSweepIsJobsInvariant) {
  runner::SweepSpec spec;
  spec.name = "congestion-golden";
  spec.base.net.n = 60;
  spec.base.rounds = 4;
  spec.base.blocks_per_round = 20;
  spec.base.seed = 1;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset};
  spec.transmission_models = {scenario::TransmissionModel::Delay,
                              scenario::TransmissionModel::Queue};
  spec.hetero_profiles = {scenario::HeteroProfile::Off,
                          scenario::HeteroProfile::Bandwidth};
  spec.seeds = 2;
  std::ostringstream sequential, parallel;
  runner::write_json(sequential, spec, runner::SweepRunner(1).run(spec));
  runner::write_json(parallel, spec, runner::SweepRunner(3).run(spec));
  EXPECT_EQ(sequential.str(), parallel.str());

  // Source-level fan-out inside each experiment (a 2-worker engine pool
  // for every round batch and λ pass, delay and egress cells alike)
  // produces the same bytes too.
  spec.base.engine_jobs = 2;
  std::ostringstream pooled;
  runner::write_json(pooled, spec, runner::SweepRunner(1).run(spec));
  EXPECT_EQ(sequential.str(), pooled.str());
}

// Same contract with a 2-worker engine pool inside every experiment: the
// sweep JSON stays bit-identical both across sweep worker counts and
// against the inline run above — the engine worker count is a wall-clock
// knob, never a result axis.
TEST(GoldenTrace, GoldenSweepIsEngineAndJobsInvariant) {
  runner::SweepSpec spec = golden_spec();
  std::ostringstream inline_run;
  runner::write_json(inline_run, spec, runner::SweepRunner(1).run(spec));

  spec.base.engine_jobs = 2;  // source fan-out inside each experiment
  std::ostringstream pooled_seq, pooled_par;
  runner::write_json(pooled_seq, spec, runner::SweepRunner(1).run(spec));
  runner::write_json(pooled_par, spec, runner::SweepRunner(3).run(spec));
  EXPECT_EQ(pooled_seq.str(), pooled_par.str());
  // The worker count lives nowhere in the JSON, so the whole document must
  // match the inline run byte for byte.
  EXPECT_EQ(inline_run.str(), pooled_seq.str());
}

}  // namespace
}  // namespace perigee
