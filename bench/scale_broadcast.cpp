// Scale instrument behind BENCH_scale.json: one n = 10^5 (default) graph,
// single-source broadcast timed through every engine that claims that scale
// — the batched engine as a batch of one (the single-source delay path) and
// the parallel delta-stepping engine at worker team sizes 1 and --jobs —
// plus the snapshot/scratch footprints and the process peak RSS the soak
// test budgets against.
//
// Byte parity is asserted inline (batched vs parallel arrivals memcmp
// equal) so a timing run can never silently anchor numbers from an engine
// that stopped agreeing. Timings are medians of --reps runs per engine.
//
//   ./scale_broadcast --nodes 100000 --jobs 2 --reps 5 --json scale.json
#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/meta.hpp"
#include "runner/json.hpp"
#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "sim/parallel.hpp"
#include "topo/builders.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace perigee {
namespace {

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Wall-clock milliseconds of `fn()`, repeated `reps` times, median taken so
// a single scheduler hiccup on a small container cannot skew the anchor.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median(std::move(samples));
}

int run(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("nodes", 100000, "network size");
  flags.add_int("seed", 4242, "network/topology seed");
  flags.add_int("jobs", 2, "worker team size for the parallel engine");
  flags.add_int("reps", 5, "repetitions per engine (median reported)");
  flags.add_string("json", "", "also write the measurements to this file");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.get_int("nodes") < 2) {
    std::cerr << "bad --nodes value '" << flags.get_int("nodes")
              << "' (want >= 2)\n";
    return 1;
  }

  const auto n = static_cast<std::size_t>(flags.get_int("nodes"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int jobs = std::max(1, static_cast<int>(flags.get_int("jobs")));
  const int reps = std::max(1, static_cast<int>(flags.get_int("reps")));

  net::NetworkOptions options;
  options.n = n;
  options.seed = seed;
  const net::Network network = net::Network::build(options);
  net::Topology topology(n);
  util::Rng rng(seed);
  topo::build_random(topology, rng);
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  const net::NodeId src = static_cast<net::NodeId>(n / 8);

  const std::array<net::NodeId, 1> source{src};
  sim::MultiSourceScratch batch_scratch;
  sim::MultiSourceResult batched;
  const double batched_ms = time_ms(reps, [&] {
    sim::simulate_broadcast_batch(csr, source, batch_scratch, batched);
  });

  sim::ParallelScratch scratch;
  sim::BroadcastResult parallel1;
  const double parallel1_ms = time_ms(reps, [&] {
    sim::simulate_broadcast_parallel(csr, src, scratch, parallel1);
  });

  runner::ThreadPool pool(static_cast<unsigned>(jobs));
  sim::BroadcastResult parallelN;
  const double parallelN_ms = time_ms(reps, [&] {
    sim::simulate_broadcast_parallel(csr, src, scratch, parallelN, &pool);
  });

  // The determinism contract, enforced on the very run being anchored.
  const std::size_t bytes = n * sizeof(double);
  const double* batched_arrival = batched.arrival_of(0).data();
  if (std::memcmp(batched_arrival, parallel1.arrival.data(), bytes) != 0 ||
      std::memcmp(batched_arrival, parallelN.arrival.data(), bytes) != 0) {
    std::cerr << "FATAL: parallel engine lost byte parity with the "
                 "batched engine at n="
              << n << "\n";
    return 1;
  }

  const std::int64_t peak_kb = obs::peak_rss_kb();
  const obs::RunMeta meta = obs::capture_run_meta();

  std::cout << "n=" << n << " src=" << src << " jobs=" << jobs
            << " reps=" << reps << "\n"
            << "  batched (one source) " << batched_ms << " ms\n"
            << "  parallel-delta x1    " << parallel1_ms << " ms\n"
            << "  parallel-delta x" << jobs << "    " << parallelN_ms << " ms\n"
            << "  csr snapshot         " << csr.memory_bytes() << " bytes\n"
            << "  parallel scratch     " << scratch.memory_bytes() << " bytes\n"
            << "  peak RSS             " << peak_kb << " KiB\n";

  const std::string& path = flags.get_string("json");
  if (path.empty()) return 0;
  const bool ok = runner::write_file_atomic(path, [&](std::ostream& os) {
    runner::JsonWriter w(os);
    w.begin_object();
    w.field("title", "scale_broadcast");
    w.key("meta");
    w.begin_object();
    obs::write_run_meta_fields(w, meta);
    w.end_object();
    w.field("nodes", static_cast<std::int64_t>(n));
    w.field("seed", static_cast<std::int64_t>(seed));
    w.field("jobs", static_cast<std::int64_t>(jobs));
    w.field("reps", static_cast<std::int64_t>(reps));
    w.field("batched_ms", batched_ms);
    w.field("parallel_delta_x1_ms", parallel1_ms);
    w.field("parallel_delta_xjobs_ms", parallelN_ms);
    w.field("csr_snapshot_bytes",
            static_cast<std::int64_t>(csr.memory_bytes()));
    w.field("parallel_scratch_bytes",
            static_cast<std::int64_t>(scratch.memory_bytes()));
    w.field("peak_rss_kb", peak_kb);
    w.end_object();
    os << '\n';
  });
  if (!ok) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cerr << "wrote " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace perigee

int main(int argc, char** argv) { return perigee::run(argc, argv); }
