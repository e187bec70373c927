// Checks of the benchmark driver itself: seeded determinism of the traffic,
// latency counted from the due time, the cold catalog's size, and the
// self-time partition of a traced request.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <unordered_set>
#include <vector>

#include "loadgen.hpp"
#include "serve/feature_cache.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<Request> draw(const WorkloadSpec& spec, const Catalog& catalog, std::uint64_t seed,
                          std::size_t n) {
  RequestStream stream(spec, catalog, seed);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < n; ++i) requests.push_back(stream.next());
  return requests;
}

bool same(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].item != b[i].item || a[i].tier != b[i].tier) return false;
  return true;
}

TEST(PerfbenchTraffic, SameSeedSameArrivalsAndRequests) {
  const Catalog hot = hot_catalog();
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.cold_catalog) continue;  // covered below without the big catalog
    EXPECT_EQ(poisson_offsets_ns(spec.rate_rps, 1.0, 7), poisson_offsets_ns(spec.rate_rps, 1.0, 7))
        << spec.name;
    EXPECT_NE(poisson_offsets_ns(spec.rate_rps, 1.0, 7), poisson_offsets_ns(spec.rate_rps, 1.0, 8))
        << spec.name;
    EXPECT_TRUE(same(draw(spec, hot, 7, 2000), draw(spec, hot, 7, 2000))) << spec.name;
    EXPECT_FALSE(same(draw(spec, hot, 7, 2000), draw(spec, hot, 8, 2000))) << spec.name;
  }
}

TEST(PerfbenchTraffic, PoissonRateAndHorizon) {
  const std::vector<std::int64_t> offsets = poisson_offsets_ns(3000.0, 2.0, 3);
  ASSERT_FALSE(offsets.empty());
  EXPECT_NEAR(static_cast<double>(offsets.size()), 6000.0, 300.0);
  EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end()));
  EXPECT_LT(offsets.back(), std::int64_t{2'000'000'000});
}

TEST(PerfbenchTraffic, TieredMixAndRoundRobin) {
  const std::optional<WorkloadSpec> tiered = find_workload("tiered_swap");
  ASSERT_TRUE(tiered.has_value());
  std::size_t interactive = 0;
  const std::vector<Request> requests = draw(*tiered, hot_catalog(), 5, 10000);
  for (const Request& r : requests) {
    if (r.tier == mga::serve::Priority::kInteractive) {
      ++interactive;
    } else {
      EXPECT_EQ(r.tier, mga::serve::Priority::kBulk);
    }
  }
  EXPECT_NEAR(static_cast<double>(interactive) / 10000.0, 0.2, 0.02);

  // Round robin over a small stand-in catalog: consecutive requests never
  // share a kernel and a full cycle visits each once.
  WorkloadSpec sweep = *find_workload("cold_sweep");
  Catalog small = hot_catalog();
  small.inputs.resize(1);
  const std::vector<Request> cycle = draw(sweep, small, 9, small.kernels.size());
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    seen.insert(cycle[i].item);
    if (i > 0) {
      EXPECT_NE(cycle[i].item, cycle[i - 1].item);
    }
  }
  EXPECT_EQ(seen.size(), small.kernels.size());
}

TEST(PerfbenchCatalog, ColdSweepHasEnoughDistinctIrHashes) {
  const Catalog cold = cold_catalog();
  ASSERT_EQ(cold.inputs.size(), 1u);
  std::unordered_set<std::uint64_t> hashes;
  for (const mga::corpus::KernelSpec& kernel : cold.kernels)
    hashes.insert(mga::serve::kernel_ir_hash(kernel));
  EXPECT_GE(hashes.size(), kColdKernels);
  EXPECT_EQ(hashes.size(), cold.kernels.size());
}

TEST(PerfbenchLoadgen, StallInSubmitShowsAsLatencyOfLaterRequests) {
  // 200 requests due every 1 ms; submit of request 20 stalls for 30 ms and
  // every stub request resolves inside its own submit.
  std::vector<std::int64_t> offsets;
  for (std::int64_t i = 0; i < 200; ++i) offsets.push_back(i * 1'000'000);
  CompletionBoard board(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) board.prepare(i);
  constexpr std::size_t kStalled = 20;
  const auto stall = std::chrono::milliseconds(30);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const std::vector<SendRecord> sends = run_open_loop(offsets, start, [&](std::size_t i) {
    if (i == kStalled) std::this_thread::sleep_for(stall);
    board.mark(i, true);
  });
  ASSERT_EQ(sends.size(), offsets.size());
  ASSERT_TRUE(board.wait_for(offsets.size(), std::chrono::seconds(5)));

  const auto latency_ms = [&](std::size_t i) {
    return std::chrono::duration<double, std::milli>(board.at(i).done - sends[i].due).count();
  };
  const auto lag_ms = [&](std::size_t i) {
    return std::chrono::duration<double, std::milli>(sends[i].sent - sends[i].due).count();
  };
  // The request due 1 ms after the stalled one waited out the rest of the
  // stall before it was even sent: latency from its due time shows it.
  EXPECT_GE(latency_ms(kStalled + 1), 25.0);
  EXPECT_GE(lag_ms(kStalled + 1), 25.0);
  // Lag falls as the sender catches up, and later requests are on time.
  EXPECT_GT(lag_ms(kStalled + 1), lag_ms(kStalled + 10));
  EXPECT_LT(lag_ms(150), 5.0);

  std::vector<double> lags;
  for (std::size_t i = 0; i < sends.size(); ++i) lags.push_back(lag_ms(i));
  EXPECT_GE(percentile(lags, 0.99), 10.0);
  EXPECT_LT(percentile(lags, 0.50), 5.0);
}

TEST(PerfbenchLoadgen, ClosedLoopRefillsOnAnyCompletion) {
  // Requests complete in reverse order of submission within each window;
  // the loop must keep exactly `window` outstanding regardless.
  ClosedLoopTally tally(Clock::now(), 5.0, 1.0);
  std::vector<std::size_t> outstanding;
  std::size_t max_outstanding = 0;
  const std::size_t issued = run_closed_loop(
      4, Clock::now() + std::chrono::seconds(5), 64, tally, [&](std::size_t i) {
        outstanding.push_back(i);
        max_outstanding = std::max(max_outstanding, outstanding.size());
        if (outstanding.size() == 4) {
          tally.mark(true);  // newest first
          outstanding.pop_back();
        }
      });
  EXPECT_EQ(issued, 64u);
  EXPECT_EQ(max_outstanding, 4u);
  EXPECT_EQ(tally.succeeded(), issued - outstanding.size());
}

TEST(PerfbenchLoadgen, ClosedLoopTallyCountsByWindow) {
  // Started 1.5 s ago with 1 s windows over 3 s: marks land in window 1.
  const Clock::time_point start = Clock::now() - std::chrono::milliseconds(1500);
  ClosedLoopTally tally(start, 3.0, 1.0);
  for (int i = 0; i < 5; ++i) tally.mark(true);
  tally.mark(false);
  EXPECT_EQ(tally.completed(), 6u);
  EXPECT_EQ(tally.succeeded(), 5u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_EQ(tally.per_window(), (std::vector<std::size_t>{0, 5, 0}));
  // A mark after the last whole window is counted but in no window.
  ClosedLoopTally late(start - std::chrono::seconds(10), 3.0, 1.0);
  late.mark(true);
  EXPECT_EQ(late.succeeded(), 1u);
  EXPECT_EQ(late.per_window(), (std::vector<std::size_t>{0, 0, 0}));
}

TEST(PerfbenchLoadgen, WindowPercentiles) {
  std::vector<TimedSample> samples;
  for (int w = 0; w < 3; ++w)
    for (int i = 0; i < 100; ++i) samples.push_back({w + 0.001 * i, w * 10.0 + i});
  samples.push_back({3.5, 1e9});  // a window below the sample floor is left out
  const std::vector<double> p50 = window_percentiles(samples, 1.0, 0.5, 10);
  ASSERT_EQ(p50.size(), 3u);
  EXPECT_DOUBLE_EQ(p50[0], 49.5);
  EXPECT_DOUBLE_EQ(p50[2], 69.5);
}

TEST(PerfbenchLoadgen, StealMonitorSharesAreBracketed) {
  const Clock::time_point before = Clock::now();
  StealMonitor monitor(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const Clock::time_point now = Clock::now();
  // Nothing was sampled before the monitor started: no bracketing sample.
  EXPECT_EQ(monitor.share(before - std::chrono::seconds(1), now), 0.0);
  const double share = monitor.share(now - std::chrono::milliseconds(40),
                                     now - std::chrono::milliseconds(10));
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
}

TEST(PerfbenchSpans, SelfTimesPartitionTheRequest) {
  using mga::obs::Stage;
  const auto event = [](Stage stage, std::uint64_t start, std::uint64_t end) {
    mga::obs::TraceEvent e;
    e.request_id = 1;
    e.stage = stage;
    e.start_ns = start;
    e.dur_ns = end - start;
    return e;
  };
  // due 0, sent 100, submitted 400 (facade submit 120..380, route 150..160),
  // enqueued at 300 (admission overlaps the submit tail), resolved 2000.
  const std::vector<mga::obs::TraceEvent> service = {
      event(Stage::kSubmit, 120, 380),       event(Stage::kRoute, 150, 160),
      event(Stage::kAdmissionWait, 300, 700), event(Stage::kLingerWait, 700, 750),
      event(Stage::kDispatchWait, 750, 800),  event(Stage::kCacheLookup, 800, 900),
      event(Stage::kProfile, 900, 910),       event(Stage::kDispatchWait, 910, 950),
      event(Stage::kForward, 950, 1800),      event(Stage::kPlanExecute, 950, 1700),
      event(Stage::kDispatchWait, 1800, 1850)};
  std::map<std::string, LayerSelf> layers;
  const std::uint64_t root_self = attribute_request({0, 2000}, {100, 400}, service, layers);
  // Root self = send lag (0..100) + publish-to-callback gap (1850..2000).
  EXPECT_EQ(root_self, 250u);
  double total_us = 0.0;
  for (const auto& [name, layer] : layers) total_us += layer.self_us;
  EXPECT_NEAR(total_us, 2.0, 1e-9);  // 2000 ns, exactly partitioned
  EXPECT_NEAR(layers["route"].self_us, 0.010, 1e-9);
  EXPECT_NEAR(layers["submit"].self_us, 0.250, 1e-9);
  EXPECT_NEAR(layers["serve.submit"].self_us, 0.040, 1e-9);
  EXPECT_NEAR(layers["admission_wait"].self_us, 0.300, 1e-9);  // clipped to start at 400
  EXPECT_NEAR(layers["plan_execute"].self_us, 0.750, 1e-9);
  EXPECT_NEAR(layers["forward"].self_us, 0.100, 1e-9);
  EXPECT_EQ(layers["dispatch_wait"].count, 3u);
}

}  // namespace
}  // namespace perfbench
