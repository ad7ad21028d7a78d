#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "runner/axes.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json.hpp"
#include "util/table.hpp"

namespace perigee::runner {
namespace {

// Small-but-real config: large enough for every algorithm to run, small
// enough that a grid finishes in well under a second per cell.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "test";
  spec.base.net.n = 60;
  spec.base.rounds = 2;
  spec.base.seed = 7;
  spec.seeds = 3;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  return spec;
}

TEST(ExpandGrid, CartesianCountAndOrder) {
  SweepSpec spec = small_spec();
  spec.nodes = {40, 60};
  spec.rounds = {1, 2};
  const auto cells = expand_grid(spec);
  // 3 algorithms x 2 nodes x 2 rounds, algorithm outermost.
  ASSERT_EQ(cells.size(), 12u);
  EXPECT_EQ(cells[0].config.algorithm, core::Algorithm::Random);
  EXPECT_EQ(cells[0].config.net.n, 40u);
  EXPECT_EQ(cells[0].config.rounds, 1);
  EXPECT_EQ(cells[1].config.rounds, 2);
  EXPECT_EQ(cells[2].config.net.n, 60u);
  EXPECT_EQ(cells[4].config.algorithm, core::Algorithm::PerigeeSubset);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(ExpandGrid, LabelsNameOnlySweptAxes) {
  SweepSpec spec = small_spec();
  spec.nodes = {40, 60};
  const auto cells = expand_grid(spec);
  EXPECT_EQ(cells[0].label, "algorithm=random n=40");
  EXPECT_EQ(cells[3].label, "algorithm=perigee-subset n=60");
}

TEST(ExpandGrid, UnsweptSpecYieldsOneBaseCell) {
  SweepSpec spec;
  spec.base.net.n = 50;
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].label, "base");
  EXPECT_EQ(cells[0].config.net.n, 50u);
}

// The blocks axis keeps the budget rounds x |B| exactly or refuses the
// spec: a |B| that does not divide 1 x 100 would run 33 x 3 = 99 blocks.
TEST(ExpandGrid, BlocksAxisKeepsTheBudgetOrThrows) {
  SweepSpec spec;
  spec.base.net.n = 20;
  spec.base.rounds = 1;
  ASSERT_EQ(spec.base.blocks_per_round, 100);
  spec.algorithms = {core::Algorithm::Random};
  spec.blocks_per_round = {4, 50};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 2u);
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.config.rounds * cell.config.blocks_per_round, 100);
  }

  const auto budget_error = [](const SweepSpec& grid) -> std::string {
    try {
      expand_grid(grid);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  spec.blocks_per_round = {3};
  EXPECT_EQ(budget_error(spec),
            "bad --blocks grid: |B| = 3 does not divide the block budget "
            "rounds x |B| = 1 x 100");
  EXPECT_THROW(SweepRunner(1).run(spec), std::runtime_error);

  // A budget past INT_MAX would wrap the round count.
  spec.base.rounds = 30000000;
  spec.blocks_per_round = {1};
  EXPECT_NE(budget_error(spec).find("want <= 2147483647"), std::string::npos);
}

// The cell JSON of a spec's grid with empty curves: enough to see its keys.
std::string cell_json(const SweepSpec& spec) {
  SweepResult result;
  for (SweepCell& cell : expand_grid(spec)) {
    result.cells.push_back({std::move(cell), {}, {}});
  }
  std::ostringstream os;
  write_json(os, spec, result);
  return os.str();
}

// An ablation axis enters the fingerprint and the cell JSON only when
// swept: small_spec() leaves every ablation axis alone.
void expect_key_only_when_swept(const SweepSpec& swept,
                                const std::string& key) {
  const std::string member = "\"" + key + "\":";
  EXPECT_EQ(cell_json(small_spec()).find(member), std::string::npos);
  EXPECT_NE(cell_json(swept).find(member), std::string::npos);
  EXPECT_NE(grid_fingerprint(swept), grid_fingerprint(small_spec()));
}

TEST(AblationAxes, UcbCSetsTheConfidenceConstant) {
  SweepSpec spec = small_spec();
  spec.ucb_cs = {30.0, 3000.0};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].label, "algorithm=random ucb_c=30");
  EXPECT_EQ(cells[0].config.params.ucb_c, 30.0);
  EXPECT_EQ(cells[1].config.params.ucb_c, 3000.0);
  expect_key_only_when_swept(spec, "ucb_c");
}

TEST(AblationAxes, ExploreKeepsTheOutDegree) {
  SweepSpec spec = small_spec();
  spec.explore_slots = {0, 4};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[1].label, "algorithm=random explore=4");
  EXPECT_EQ(cells[0].config.params.keep, spec.base.limits.out_cap);
  EXPECT_EQ(cells[1].config.params.keep, spec.base.limits.out_cap - 4);
  expect_key_only_when_swept(spec, "explore");
}

TEST(AblationAxes, BlocksKeepTheBlockBudget) {
  SweepSpec spec = small_spec();
  spec.base.rounds = 4;  // 4 x 100 blocks
  spec.blocks_per_round = {50, 200};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].label, "algorithm=random blocks=50");
  EXPECT_EQ(cells[0].config.blocks_per_round, 50);
  EXPECT_EQ(cells[0].config.rounds, 8);
  EXPECT_EQ(cells[1].config.blocks_per_round, 200);
  EXPECT_EQ(cells[1].config.rounds, 2);
  // The rounds axis comes first, so |B| rescales each swept round count.
  spec.rounds = {2, 4};
  spec.blocks_per_round = {50};
  const auto rescaled = expand_grid(spec);
  EXPECT_EQ(rescaled[0].label, "algorithm=random rounds=2 blocks=50");
  EXPECT_EQ(rescaled[0].config.rounds, 4);
  EXPECT_EQ(rescaled[1].config.rounds, 8);
  expect_key_only_when_swept(spec, "blocks_per_round");
}

TEST(AblationAxes, LearningSelectsTheObservationEngine) {
  SweepSpec spec = small_spec();
  spec.gossip_learning = {false, true};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].label, "algorithm=random learning=fast");
  EXPECT_EQ(cells[1].label, "algorithm=random learning=gossip");
  EXPECT_FALSE(cells[0].config.message_level);
  EXPECT_TRUE(cells[1].config.message_level);
  expect_key_only_when_swept(spec, "learning");
  EXPECT_NE(cell_json(spec).find("\"learning\": \"gossip\""),
            std::string::npos);
}

TEST(AblationAxes, AddrmanBoundsTheAddressBook) {
  SweepSpec spec = small_spec();
  spec.addrman_capacities = {std::nullopt, 10, 100};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 9u);
  EXPECT_EQ(cells[0].label, "algorithm=random addrman=full");
  EXPECT_EQ(cells[1].label, "algorithm=random addrman=10");
  EXPECT_FALSE(cells[0].config.partial_view);
  EXPECT_TRUE(cells[1].config.partial_view);
  EXPECT_EQ(cells[1].config.addrman_capacity, 10u);
  EXPECT_EQ(cells[1].config.addrman_bootstrap, 6u);   // 10 / 2 + 1
  EXPECT_EQ(cells[2].config.addrman_capacity, 100u);
  EXPECT_EQ(cells[2].config.addrman_bootstrap, 30u);  // capped
  expect_key_only_when_swept(spec, "addrman");
}

TEST(AblationAxes, BandwidthSpreadUsesMegabyteBlocks) {
  SweepSpec spec = small_spec();
  spec.bandwidth_spread = {false, true};
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[1].label, "algorithm=random bandwidth=spread");
  EXPECT_FALSE(cells[0].config.net.heterogeneous_bandwidth);
  EXPECT_EQ(cells[0].config.net.block_size_kb, 0.0);
  EXPECT_TRUE(cells[1].config.net.heterogeneous_bandwidth);
  EXPECT_EQ(cells[1].config.net.block_size_kb, 1000.0);
  expect_key_only_when_swept(spec, "bandwidth");
}

// The parse half of a table row, looked up by its flag.
std::string parse_flag(SweepSpec& spec, std::string_view flag,
                       const std::string& csv) {
  for (const SweepAxis& axis : sweep_axes()) {
    if (axis.flag == flag) return axis.parse(spec, csv);
  }
  ADD_FAILURE() << "no axis --" << flag;
  return {};
}

TEST(AblationAxes, CsvParsersAcceptSpellingsAndRejectOutOfRange) {
  SweepSpec spec = small_spec();
  EXPECT_EQ(parse_flag(spec, "addrman", "full,25"), "");
  ASSERT_EQ(spec.addrman_capacities.size(), 2u);
  EXPECT_FALSE(spec.addrman_capacities[0].has_value());
  EXPECT_EQ(spec.addrman_capacities[1], std::optional<std::size_t>(25));
  EXPECT_EQ(parse_flag(spec, "learning", "gossip"), "");
  EXPECT_EQ(spec.gossip_learning, std::vector<bool>{true});
  EXPECT_EQ(parse_flag(spec, "explore", "0,8"), "");

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"explore", "9"}, {"blocks", "0"}, {"addrman", "0"},
      {"ucb-c", "0"},   {"learning", "slow"}};
  for (const auto& [flag, value] : bad) {
    EXPECT_TRUE(parse_flag(spec, flag, value)
                    .starts_with("bad --" + flag + " value '" + value + "'"))
        << flag;
  }
  EXPECT_EQ(parse_flag(spec, "bandwidth", ","), "bad --bandwidth value ','");
  // A rejected flag leaves the axis as it was.
  EXPECT_EQ(spec.explore_slots, (std::vector<int>{0, 8}));
}

TEST(SweepRunner, JobCountDoesNotChangeResults) {
  const SweepSpec spec = small_spec();
  const SweepResult sequential = SweepRunner(1).run(spec);
  const SweepResult parallel = SweepRunner(8).run(spec);

  ASSERT_EQ(sequential.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < sequential.cells.size(); ++c) {
    EXPECT_EQ(sequential.cells[c].cell.label, parallel.cells[c].cell.label);
    // Bit-for-bit: the parallel path must be the sequential path, reordered.
    EXPECT_EQ(sequential.cells[c].curve.mean, parallel.cells[c].curve.mean);
    EXPECT_EQ(sequential.cells[c].curve.stddev,
              parallel.cells[c].curve.stddev);
    EXPECT_EQ(sequential.cells[c].curve50.mean,
              parallel.cells[c].curve50.mean);
  }

  // And so must the serialized artifacts, byte for byte.
  std::ostringstream a, b;
  write_json(a, spec, sequential);
  write_json(b, spec, parallel);
  EXPECT_EQ(a.str(), b.str());
}

TEST(SweepRunner, MultiSeedMatchesCoreApi) {
  SweepSpec spec = small_spec();
  spec.algorithms = {core::Algorithm::PerigeeSubset, core::Algorithm::Ideal};
  const SweepResult result = SweepRunner(4).run(spec);
  ASSERT_EQ(result.cells.size(), 2u);

  // The experiment cell is the per-seed run_experiment, aggregated in seed
  // order, bit for bit.
  std::vector<std::vector<double>> runs, runs50;
  for (int s = 0; s < spec.seeds; ++s) {
    core::ExperimentConfig seeded = spec.base;
    seeded.algorithm = core::Algorithm::PerigeeSubset;
    seeded.seed += static_cast<std::uint64_t>(s);
    core::ExperimentResult run = core::run_experiment(seeded);
    runs.push_back(std::move(run.lambda));
    runs50.push_back(std::move(run.lambda50));
  }
  const metrics::Curve reference = metrics::aggregate_sorted_curves(runs);
  const metrics::Curve reference50 = metrics::aggregate_sorted_curves(runs50);
  EXPECT_EQ(result.cells[0].curve.mean, reference.mean);
  EXPECT_EQ(result.cells[0].curve.stddev, reference.stddev);
  EXPECT_EQ(result.cells[0].curve50.mean, reference50.mean);

  // The ideal cell (one two-coverage pass over a shared scenario build) is
  // the per-seed run_ideal bound, aggregated the same way, bit for bit.
  std::vector<std::vector<double>> ideal, ideal50;
  for (int s = 0; s < spec.seeds; ++s) {
    core::ExperimentConfig seeded = spec.base;
    seeded.algorithm = core::Algorithm::Ideal;
    seeded.seed += static_cast<std::uint64_t>(s);
    ideal.push_back(core::run_ideal(seeded));
    seeded.coverage = 0.50;
    ideal50.push_back(core::run_ideal(seeded));
  }
  const metrics::Curve ideal_ref = metrics::aggregate_sorted_curves(ideal);
  const metrics::Curve ideal50_ref = metrics::aggregate_sorted_curves(ideal50);
  EXPECT_EQ(result.cells[1].curve.mean, ideal_ref.mean);
  EXPECT_EQ(result.cells[1].curve.stddev, ideal_ref.stddev);
  EXPECT_EQ(result.cells[1].curve50.mean, ideal50_ref.mean);
  EXPECT_EQ(result.cells[1].curve50.stddev, ideal50_ref.stddev);
}

// Splits a printed table row into its cells: columns are separated by at
// least two spaces, while a "mean ±stddev" entry holds exactly one.
std::vector<std::string> table_cells(const std::string& row) {
  static const std::regex kColumnGap(" {2,}");
  std::vector<std::string> cells;
  const std::string trimmed = row.substr(row.find_first_not_of(' '));
  std::sregex_token_iterator it(trimmed.begin(), trimmed.end(), kColumnGap,
                                -1);
  for (; it != std::sregex_token_iterator(); ++it) cells.push_back(*it);
  return cells;
}

// The lines of the table printed under the banner "== <title> ==".
std::vector<std::string> table_after(const std::string& text,
                                     const std::string& title) {
  std::istringstream in(text.substr(text.find("== " + title + " ==")));
  std::vector<std::string> lines;
  std::string line;
  std::getline(in, line);  // the banner
  while (std::getline(in, line)) {
    lines.push_back(line);
    if (line.rfind("mean", 0) == 0) break;
  }
  return lines;
}

TEST(PrintTables, OneGroupPerScaleWithSpecOrderColumns) {
  SweepSpec spec;
  spec.name = "fig4a-small";
  spec.base.net.n = 40;
  spec.base.rounds = 1;
  spec.base.blocks_per_round = 20;
  spec.base.seed = 3;
  spec.seeds = 2;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  spec.validation_scales = {0.5, 2.0};
  const SweepResult result = SweepRunner(2).run(spec);
  ASSERT_EQ(result.cells.size(), 6u);

  std::ostringstream os;
  print_tables(os, spec, result);
  const std::string text = os.str();

  const std::vector<std::string> groups = {"vscale=0.5", "vscale=2"};
  std::size_t previous = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::string title = spec.name + " " + groups[g];
    const std::size_t at = text.find("== " + title + ", 90% coverage");
    ASSERT_NE(at, std::string::npos) << groups[g];
    EXPECT_GE(at, previous) << "groups out of order";
    previous = at;

    // Cells of group g, in spec (algorithm) order: algorithm is the
    // outermost axis, so cell = a * scales + g.
    std::vector<const CellResult*> cells;
    for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
      cells.push_back(&result.cells[a * groups.size() + g]);
    }
    for (const bool main_coverage : {true, false}) {
      const std::vector<std::string> lines = table_after(
          text, title + (main_coverage ? ", 90%" : ", 50%") +
                    " coverage (ms)");
      const std::vector<std::size_t> rows = metrics::errorbar_indices(40);
      ASSERT_EQ(lines.size(), 2 + rows.size() + 1);
      EXPECT_EQ(table_cells(lines[0]),
                (std::vector<std::string>{"node", "random", "perigee-subset",
                                          "ideal"}));
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::vector<std::string> row = table_cells(lines[2 + r]);
        ASSERT_EQ(row.size(), 1 + cells.size());
        EXPECT_EQ(row[0], std::to_string(rows[r]));
        for (std::size_t c = 0; c < cells.size(); ++c) {
          const metrics::Curve& curve =
              main_coverage ? cells[c]->curve : cells[c]->curve50;
          EXPECT_EQ(row[1 + c], util::fmt(curve.mean[rows[r]]) + " ±" +
                                    util::fmt(curve.stddev[rows[r]]));
        }
      }
    }
  }
  EXPECT_EQ(text.find("== " + spec.name + " vscale=0.5, 90%"),
            text.find("== "));
  std::size_t improvements = 0;
  for (std::size_t at = text.find("improvement vs random at node 20:\n");
       at != std::string::npos;
       at = text.find("improvement vs random at node 20:\n", at + 1)) {
    ++improvements;
  }
  EXPECT_EQ(improvements, groups.size());
  EXPECT_NE(text.find("  perigee-subset: "), std::string::npos);
  EXPECT_NE(text.find("  ideal: "), std::string::npos);
  EXPECT_NE(text.find("fraction of the random->ideal gap closed by "
                      "perigee-subset at the median node: "),
            std::string::npos);
}

TEST(PrintTables, ZeroBaselinePrintsDashInsteadOfAborting) {
  SweepSpec spec;
  spec.base.net.n = 2;
  spec.base.rounds = 1;
  spec.base.blocks_per_round = 20;
  spec.base.coverage = 0.5;
  spec.algorithms = {core::Algorithm::Random, core::Algorithm::PerigeeSubset,
                     core::Algorithm::Ideal};
  const SweepResult result = SweepRunner(1).run(spec);
  for (const CellResult& cr : result.cells) {
    for (const double v : cr.curve.mean) ASSERT_EQ(v, 0.0);
  }

  std::ostringstream os;
  print_tables(os, spec, result);
  const std::string text = os.str();
  EXPECT_NE(text.find("  perigee-subset: -\n"), std::string::npos) << text;
  EXPECT_NE(text.find("  ideal: -\n"), std::string::npos) << text;
  EXPECT_NE(text.find("gap closed by perigee-subset at the median node: -\n"),
            std::string::npos)
      << text;
}

TEST(SweepRunner, ProgressReachesTotal) {
  SweepSpec spec = small_spec();
  spec.algorithms = {core::Algorithm::Random};
  std::atomic<std::size_t> last{0};
  std::atomic<std::size_t> calls{0};
  SweepRunner(2).run(spec, [&](std::size_t done, std::size_t total) {
    calls.fetch_add(1);
    if (done == total) last.store(done);
  });
  EXPECT_EQ(calls.load(), 3u);  // 1 cell x 3 seeds
  EXPECT_EQ(last.load(), 3u);
}

TEST(SweepJson, RoundTripsThroughParser) {
  const SweepSpec spec = small_spec();
  const SweepResult result = SweepRunner(2).run(spec);
  std::ostringstream os;
  write_json(os, spec, result);

  const JsonValue doc = JsonValue::parse(os.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.find("name")->string, "test");
  EXPECT_DOUBLE_EQ(doc.find("spec")->find("seeds")->number, 3.0);
  EXPECT_DOUBLE_EQ(doc.find("spec")->find("base_seed")->number, 7.0);

  const JsonValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), result.cells.size());
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const JsonValue& cell = cells->items[c];
    EXPECT_EQ(cell.find("label")->string, result.cells[c].cell.label);
    const JsonValue* mean = cell.find("curve")->find("mean");
    ASSERT_NE(mean, nullptr);
    ASSERT_EQ(mean->items.size(), result.cells[c].curve.mean.size());
    for (std::size_t i = 0; i < mean->items.size(); ++i) {
      // to_chars shortest form parses back to the exact same double.
      EXPECT_EQ(mean->items[i].number, result.cells[c].curve.mean[i]);
    }
  }
}

TEST(JsonWriter, EscapesAndNesting) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.field("s", "a\"b\\c\nd");
  w.field("t", true);
  w.field("f", false);
  w.key("arr");
  w.begin_array();
  w.value(static_cast<std::int64_t>(-3));
  w.value(0.5);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            R"({"s":"a\"b\\c\nd","t":true,"f":false,"arr":[-3,0.5,null]})");

  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.find("s")->string, "a\"b\\c\nd");
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("arr")->items.size(), 3u);
  EXPECT_EQ(doc.find("arr")->items[2].kind, JsonValue::Kind::Null);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]2"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);
}

TEST(JsonParser, DecodesUnicodeEscapesToUtf8) {
  // ASCII range.
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u007a\"").string, "Az");
  // Two-byte sequence (é, U+00E9) — the bytes JsonWriter would emit raw, so
  // an escaped spelling parses to the same std::string as the raw one.
  EXPECT_EQ(JsonValue::parse("\"caf\\u00e9\"").string, "caf\xc3\xa9");
  EXPECT_EQ(JsonValue::parse("\"caf\\u00e9\"").string,
            JsonValue::parse("\"caf\xc3\xa9\"").string);
  // Three-byte sequence (€, U+20AC).
  EXPECT_EQ(JsonValue::parse("\"\\u20AC\"").string, "\xe2\x82\xac");
  // Surrogate pair (😀, U+1F600) -> four-byte UTF-8.
  EXPECT_EQ(JsonValue::parse("\"\\ud83d\\ude00\"").string,
            "\xf0\x9f\x98\x80");
  // \u0000 is representable (NUL inside the string, not a terminator).
  const std::string nul = JsonValue::parse("\"a\\u0000b\"").string;
  ASSERT_EQ(nul.size(), 3u);
  EXPECT_EQ(nul[1], '\0');
}

TEST(JsonParser, RejectsMalformedUnicodeEscapes) {
  // Bad hex digit.
  EXPECT_THROW(JsonValue::parse("\"\\u12g4\""), std::runtime_error);
  // Truncated escape.
  EXPECT_THROW(JsonValue::parse("\"\\u12\""), std::runtime_error);
  // Lone low surrogate.
  EXPECT_THROW(JsonValue::parse("\"\\ude00\""), std::runtime_error);
  // High surrogate not followed by an escape at all.
  EXPECT_THROW(JsonValue::parse("\"\\ud83dx\""), std::runtime_error);
  // High surrogate followed by a non-surrogate escape.
  EXPECT_THROW(JsonValue::parse("\"\\ud83d\\u0041\""), std::runtime_error);
  // High surrogate at end of input.
  EXPECT_THROW(JsonValue::parse("\"\\ud83d\""), std::runtime_error);
}

TEST(JsonParser, ParsesNumbers) {
  const JsonValue doc = JsonValue::parse("[-1.5e3, 0, 42, 0.125]");
  ASSERT_EQ(doc.items.size(), 4u);
  EXPECT_DOUBLE_EQ(doc.items[0].number, -1500.0);
  EXPECT_DOUBLE_EQ(doc.items[1].number, 0.0);
  EXPECT_DOUBLE_EQ(doc.items[2].number, 42.0);
  EXPECT_DOUBLE_EQ(doc.items[3].number, 0.125);
}

TEST(AtomicWrite, WritesParseableFileAndLeavesNoTemp) {
  const std::string path =
      ::testing::TempDir() + "perigee_atomic_write_test.json";
  std::remove(path.c_str());
  EXPECT_TRUE(write_file_atomic(path, [](std::ostream& os) {
    os << "{\"ok\": true}\n";
  }));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(JsonValue::parse(content.str()).find("ok")->boolean);
  // The staging file must be gone after the rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWrite, KeepsPreviousFileIntactWhenProducerFails) {
  const std::string path =
      ::testing::TempDir() + "perigee_atomic_keep_test.json";
  ASSERT_TRUE(write_file_atomic(
      path, [](std::ostream& os) { os << "{\"generation\": 1}\n"; }));
  // A failing rewrite (stream pushed into an error state mid-production,
  // the moral equivalent of a full disk) must not touch the existing file.
  EXPECT_FALSE(write_file_atomic(path, [](std::ostream& os) {
    os << "{\"generation\": 2, truncated";
    os.setstate(std::ios::failbit);
  }));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(JsonValue::parse(content.str()).find("generation")->number, 1.0);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWrite, FailsCleanlyOnUnwritablePath) {
  EXPECT_FALSE(write_file_atomic(
      "/nonexistent-perigee-dir/out.json",
      [](std::ostream& os) { os << "{}"; }));
}

TEST(AtomicWrite, SweepResultsLandAtomically) {
  SweepSpec spec;
  spec.name = "atomic";
  spec.base.net.n = 24;
  spec.base.rounds = 0;
  spec.base.algorithm = core::Algorithm::Random;
  spec.seeds = 1;
  const SweepRunner runner(1);
  const SweepResult result = runner.run(spec, nullptr);
  const std::string path =
      ::testing::TempDir() + "perigee_atomic_sweep_test.json";
  ASSERT_TRUE(write_json_file(path, spec, result));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const JsonValue doc = JsonValue::parse(content.str());
  EXPECT_EQ(doc.find("name")->string, "atomic");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perigee::runner
