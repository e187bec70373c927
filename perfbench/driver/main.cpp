// perfbench_driver — the repository benchmark (see ../README.md).
//
//   perfbench_driver --workload <hot_zipf|cold_sweep|tiered_swap> --seed <n>
//                    --seconds <s> --trace <0|1> [--trace-out <path>]
//                    [--commit <id>]
//
// One process, one workload. A single driver thread sends seeded requests
// to TuningService::submit on an open-loop Poisson schedule (after an untimed
// warm-in) and times each from its due time to its ticket's resolution; in
// between open-loop segments it measures capacity in closed-loop segments
// that keep 256 requests outstanding.
// `--trace 0` reports the end-to-end metrics; `--trace 1` is the separate
// traced run that reports per-layer metrics: it runs the phases with obs
// tracing off and then on (the difference is the tracing overhead), times
// isolated calls into each layer, and writes one Chrome trace.
//
// Every completed request's config is checked against direct
// MgaTuner::tune, every ticket must resolve, and each workload's cache
// behaviour must match its definition; any violation exits 1. The last
// stdout line is the JSON result.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "hwsim/cpu_model.hpp"
#include "loadgen.hpp"
#include "obs/options.hpp"
#include "obs/trace.hpp"
#include "runtime/compiled.hpp"
#include "serve/feature_cache.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using mga::serve::Priority;

constexpr const char* kMachine = "comet-lake";
/// Requests the closed-loop phase keeps outstanding.
constexpr std::size_t kClosedWindow = 256;
/// Length of the windows timed metrics are computed over, seconds.
constexpr double kWindowS = 1.0;
/// How long the driver waits for stragglers after a phase stops sending.
constexpr auto kDrainTimeout = std::chrono::seconds(60);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench_trace.json";
  std::string commit = "unknown";
};

[[nodiscard]] bool parse_args(int argc, char** argv, Args& args) {
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) return false;
    const std::string value = argv[++a];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0 && args.seconds <= 600.0;
}

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// A "Key:   value" field of a /proc text file, or "" when absent.
[[nodiscard]] std::string proc_field(const char* path, const std::string& key) {
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    return value;
  }
  return "";
}

[[nodiscard]] std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// --- the service under test ---------------------------------------------------

struct Deployment {
  std::shared_ptr<mga::serve::ModelRegistry> registry;
  std::unique_ptr<mga::serve::TuningService> service;
};

[[nodiscard]] mga::serve::TuneRequest make_request(const Catalog& catalog, const Request& r) {
  mga::serve::TuneRequest request;
  request.kernel = catalog.kernels[catalog.kernel_of(r.item)];
  request.input_bytes = catalog.inputs[catalog.input_of(r.item)];
  request.options = request_options(r.tier);
  return request;
}

/// Catalog items the warm-up touches, in order: every item of the hot
/// catalog; for the cold catalog one full round-robin cycle ending just
/// before the open-loop phase's first kernel, so that kernel is the least
/// recently used entry when the phase starts.
[[nodiscard]] std::vector<std::uint32_t> warm_up_items(const WorkloadSpec& spec,
                                                       const Catalog& catalog,
                                                       std::size_t rr_offset) {
  std::vector<std::uint32_t> items;
  if (spec.popularity == Popularity::kRoundRobin) {
    for (std::size_t k = 0; k < catalog.kernels.size(); ++k)
      items.push_back(static_cast<std::uint32_t>(
          ((rr_offset + k) % catalog.kernels.size()) * catalog.inputs.size()));
  } else {
    for (std::size_t i = 0; i < catalog.items(); ++i)
      items.push_back(static_cast<std::uint32_t>(i));
  }
  return items;
}

/// Train, register (compiles the runtime plan), start the service with
/// default ServeOptions, and warm its cache over the catalog. Returns false
/// when a warm-up request fails.
[[nodiscard]] bool set_up(const Catalog& catalog, const std::vector<std::uint32_t>& warm,
                          Deployment& deployment) {
  deployment.service.reset();
  deployment.registry = std::make_shared<mga::serve::ModelRegistry>();
  deployment.registry->add(kMachine, mga::core::MgaTuner::train(tuner_options()));
  deployment.service = std::make_unique<mga::serve::TuningService>(deployment.registry,
                                                                   mga::serve::ServeOptions{});
  std::vector<mga::serve::TuneTicket> tickets;
  tickets.reserve(warm.size());
  for (const std::uint32_t item : warm)
    tickets.push_back(deployment.service->submit(make_request(catalog, Request{item})));
  bool ok = true;
  for (const mga::serve::TuneTicket& ticket : tickets) ok = ticket.get().ok() && ok;
  return ok;
}

// --- ground truth ---------------------------------------------------------------

/// Per catalog item: the direct-tune answer and the hwsim quality of it.
struct Truth {
  mga::hwsim::OmpConfig config;
  double log_speedup = 0.0;          // log(default time / served time)
  double log_oracle_fraction = 0.0;  // log(oracle-best time / served time)
  bool known = false;
};

class GroundTruth {
 public:
  GroundTruth(const mga::core::MgaTuner& tuner, const Catalog& catalog)
      : tuner_(tuner), catalog_(catalog), truths_(catalog.items()) {}

  /// Direct MgaTuner::tune for `item`, memoized.
  const Truth& at(std::uint32_t item) {
    Truth& truth = truths_[item];
    if (truth.known) return truth;
    const mga::corpus::KernelSpec& kernel = catalog_.kernels[catalog_.kernel_of(item)];
    const double input = catalog_.inputs[catalog_.input_of(item)];
    truth.config = tuner_.tune(kernel, input);
    const mga::hwsim::KernelWorkload workload = mga::corpus::generate(kernel).workload;
    const auto run = [&](const mga::hwsim::OmpConfig& config) {
      return mga::hwsim::cpu_execute(workload, tuner_.machine(), input, config).seconds;
    };
    const double served = run(truth.config);
    double oracle = served;
    for (const mga::hwsim::OmpConfig& config : tuner_.space())
      oracle = std::min(oracle, run(config));
    truth.log_speedup = std::log(run(mga::hwsim::default_config(tuner_.machine())) / served);
    truth.log_oracle_fraction = std::log(oracle / served);
    truth.known = true;
    return truth;
  }

 private:
  const mga::core::MgaTuner& tuner_;
  const Catalog& catalog_;
  std::vector<Truth> truths_;
};

// --- phases -----------------------------------------------------------------------

/// One open-loop phase of traffic: what was sent, when, and how each request
/// resolved. It is planned (arrivals and requests drawn, board allocated)
/// before any phase starts sending, so no generation work sits between two
/// back-to-back phases.
struct Phase {
  std::string name;
  std::vector<std::int64_t> offsets_ns;
  double seconds = 0.0;
  std::vector<Request> requests;
  std::vector<SendRecord> sends;
  std::unique_ptr<CompletionBoard> board;
  Clock::time_point start{}, stop{};  // sending window
  double cpu_start = 0.0;
  double cpu_s = 0.0;  // process CPU, start -> all resolved
  mga::serve::ServiceStatsSnapshot before, after;

  [[nodiscard]] std::size_t sent() const { return sends.size(); }
  [[nodiscard]] const CompletionCount& resolved() const { return *board; }
};

/// One closed-loop phase: requests are drawn as they are sent and their
/// outcomes tallied, not stored.
struct ClosedPhase {
  std::string name;
  double seconds = 0.0;
  std::size_t issued = 0;
  std::unique_ptr<ClosedLoopTally> tally;
  Clock::time_point start{}, stop{};
  double cpu_start = 0.0;
  double cpu_s = 0.0;
  mga::serve::ServiceStatsSnapshot before, after;

  [[nodiscard]] std::size_t sent() const { return issued; }
  [[nodiscard]] const CompletionCount& resolved() const { return *tally; }
};

[[nodiscard]] std::unique_ptr<Phase> plan_open_loop(std::string name, const WorkloadSpec& spec,
                                                    RequestStream& stream, double seconds,
                                                    std::uint64_t seed) {
  auto phase = std::make_unique<Phase>();
  phase->name = std::move(name);
  phase->seconds = seconds;
  phase->offsets_ns = poisson_offsets_ns(spec.rate_rps, seconds, seed);
  phase->requests.reserve(phase->offsets_ns.size());
  for (std::size_t i = 0; i < phase->offsets_ns.size(); ++i)
    phase->requests.push_back(stream.next());
  phase->board = std::make_unique<CompletionBoard>(phase->offsets_ns.size());
  for (std::size_t i = 0; i < phase->offsets_ns.size(); ++i) phase->board->prepare(i);
  return phase;
}

[[nodiscard]] std::unique_ptr<ClosedPhase> plan_closed_loop(std::string name, double seconds) {
  auto phase = std::make_unique<ClosedPhase>();
  phase->name = std::move(name);
  phase->seconds = seconds;
  return phase;
}

/// Submit `phase.requests[i]` and route its outcome onto the phase board.
[[nodiscard]] auto submitter(mga::serve::TuningService& service, const Catalog& catalog,
                             Phase& phase) {
  return [&service, &catalog, &phase](std::size_t i) {
    mga::serve::TuneTicket ticket = service.submit(make_request(catalog, phase.requests[i]));
    CompletionBoard* board = phase.board.get();
    ticket.on_resolved([board, i](const mga::serve::TuneOutcome& outcome) {
      board->mark(i, outcome);
    });
  };
}

template <class P>
void begin_phase(mga::serve::TuningService& service, P& phase) {
  phase.before = service.stats_snapshot();
  phase.cpu_start = cpu_seconds();
}

/// Send an open-loop phase due from `start`; returns once the last request
/// is sent, without waiting for outcomes.
void send_open_loop(mga::serve::TuningService& service, const Catalog& catalog, Phase& phase,
                    Clock::time_point start) {
  begin_phase(service, phase);
  phase.start = start;
  phase.sends = run_open_loop(phase.offsets_ns, start, submitter(service, catalog, phase));
  phase.stop = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(phase.seconds));
}

/// `truth` gives each request's expected config (memoized direct tune, on
/// the driver thread); the resolving thread compares against it.
template <class Truth>
void send_closed_loop(mga::serve::TuningService& service, const Catalog& catalog,
                      RequestStream& stream, Truth&& truth, ClosedPhase& phase) {
  begin_phase(service, phase);
  phase.start = Clock::now();
  phase.stop = phase.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(phase.seconds));
  phase.tally = std::make_unique<ClosedLoopTally>(phase.start, phase.seconds, kWindowS);
  ClosedLoopTally* tally = phase.tally.get();
  phase.issued = run_closed_loop(
      kClosedWindow, phase.stop, std::numeric_limits<std::size_t>::max(), *tally,
      [&](std::size_t) {
        const Request request = stream.next();
        const mga::hwsim::OmpConfig expected = truth(request.item);
        mga::serve::TuneTicket ticket = service.submit(make_request(catalog, request));
        ticket.on_resolved([tally, expected](const mga::serve::TuneOutcome& outcome) {
          tally->mark(outcome, expected);
        });
      });
}

/// Wait for every request of `phase` to resolve; stamps CPU and stats. A
/// lost ticket aborts the process: its callback could still fire into a
/// board about to be freed, so nothing after it can be trusted.
template <class P>
void finish_phase(mga::serve::TuningService& service, P& phase) {
  const bool drained = phase.resolved().wait_for(phase.sent(), kDrainTimeout);
  phase.cpu_s = cpu_seconds() - phase.cpu_start;
  phase.after = service.stats_snapshot();
  if (drained) return;
  std::cerr << "VIOLATION: " << phase.name << ": " << phase.sent() - phase.resolved().completed()
            << " of " << phase.sent() << " tickets never resolved\n";
  std::_Exit(1);
}

/// Periodic hot swap of the serving model with a bit-identical clone, on a
/// second driver thread.
class Swapper {
 public:
  Swapper(mga::serve::ModelRegistry& registry, double period_ms, SpanLog& spans)
      : registry_(registry),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(period_ms))),
        spans_(spans),
        thread_([this] { loop(); }) {}

  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  ~Swapper() { stop(); }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Wall time of each ModelRegistry::swap call, ms. Read after stop().
  [[nodiscard]] const std::vector<double>& swap_ms() const { return swap_ms_; }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  void loop() {
    Clock::time_point next = Clock::now() + period_;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_until(lock, next, [&] { return stopping_; })) {
      lock.unlock();
      try {
        mga::core::MgaTuner clone = registry_.get(kMachine)->clone();
        const Clock::time_point t0 = Clock::now();
        registry_.swap(kMachine, std::move(clone));
        const Clock::time_point t1 = Clock::now();
        swap_ms_.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        spans_.record("registry.swap", 0, t0, t1, 1);
      } catch (const std::exception& error) {
        std::cerr << "swap failed: " << error.what() << "\n";
        failed_ = true;
      }
      next += period_;
      lock.lock();
    }
  }

  mga::serve::ModelRegistry& registry_;
  const Clock::duration period_;
  SpanLog& spans_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;        // guarded by mutex_
  std::vector<double> swap_ms_;  // swap thread only until joined
  bool failed_ = false;          // swap thread only until joined
  std::thread thread_;           // last: starts after every member it uses
};

// --- phase analysis -----------------------------------------------------------------

struct PhaseSummary {
  std::size_t sent = 0, succeeded = 0, failed = 0, rejected = 0;
  std::vector<TimedSample> latency_ms;              // ok requests, due -> resolved
  std::vector<TimedSample> interactive_latency_ms;  // top tier present
  std::size_t mismatches = 0;
  double log_speedup_sum = 0.0;
  double log_oracle_sum = 0.0;
};

[[nodiscard]] PhaseSummary summarize(const Phase& phase, GroundTruth& truth) {
  PhaseSummary summary;
  summary.sent = phase.sent();
  // The highest-priority tier carrying traffic in this phase.
  Priority top = Priority::kBulk;
  for (std::size_t i = 0; i < summary.sent; ++i) top = std::min(top, phase.requests[i].tier);
  for (std::size_t i = 0; i < summary.sent; ++i) {
    const Completion& done = phase.board->at(i);
    if (!done.ok) {
      ++summary.failed;
      if (done.error == mga::serve::ServeErrorKind::kRejected) ++summary.rejected;
      continue;
    }
    ++summary.succeeded;
    const double ms =
        std::chrono::duration<double, std::milli>(done.done - phase.sends[i].due).count();
    const TimedSample sample{seconds_between(phase.start, phase.sends[i].due), ms};
    summary.latency_ms.push_back(sample);
    if (phase.requests[i].tier == top) summary.interactive_latency_ms.push_back(sample);
    const Truth& expected = truth.at(phase.requests[i].item);
    if (!(done.config == expected.config)) ++summary.mismatches;
    summary.log_speedup_sum += expected.log_speedup;
    summary.log_oracle_sum += expected.log_oracle_fraction;
  }
  return summary;
}

[[nodiscard]] PhaseSummary summarize(const ClosedPhase& phase) {
  PhaseSummary summary;
  summary.sent = phase.sent();
  summary.succeeded = phase.tally->succeeded();
  summary.failed = phase.tally->failed();
  summary.rejected = phase.tally->rejected();
  summary.mismatches = phase.tally->mismatches();
  return summary;
}

template <class P>
void print_phase(const P& phase, const PhaseSummary& summary) {
  std::cout << "phase " << phase.name << ": sent " << summary.sent << ", succeeded "
            << summary.succeeded << ", failed " << summary.failed << " (rejected "
            << summary.rejected << "), window " << phase.seconds << " s\n";
}

/// Counters accumulated between two snapshots.
struct StatsDelta {
  mga::serve::FeatureCacheStats cache;
  std::uint64_t batches = 0, batched_requests = 0, failed = 0, rejected = 0;
  std::uint64_t forwards_compiled = 0, forwards_interpreted = 0, plan_layout_misses = 0;
  double extract_busy_us = 0.0, forward_busy_us = 0.0, publish_busy_us = 0.0;
};

[[nodiscard]] StatsDelta stats_delta(const mga::serve::ServiceStatsSnapshot& a,
                                     const mga::serve::ServiceStatsSnapshot& b) {
  StatsDelta d;
  d.cache.hits = b.cache.hits - a.cache.hits;
  d.cache.misses = b.cache.misses - a.cache.misses;
  d.cache.evictions = b.cache.evictions - a.cache.evictions;
  d.cache.profile_memo_hits = b.cache.profile_memo_hits - a.cache.profile_memo_hits;
  d.cache.profiles_run = b.cache.profiles_run - a.cache.profiles_run;
  d.batches = b.batches - a.batches;
  d.batched_requests = b.batched_requests - a.batched_requests;
  d.failed = b.failed - a.failed;
  for (std::size_t t = 0; t < mga::serve::kNumTiers; ++t)
    d.rejected += b.tiers[t].rejected - a.tiers[t].rejected;
  d.forwards_compiled = b.forwards_compiled - a.forwards_compiled;
  d.forwards_interpreted = b.forwards_interpreted - a.forwards_interpreted;
  d.plan_layout_misses = b.plan_layout_misses - a.plan_layout_misses;
  d.extract_busy_us = b.pipeline.extract_busy_us - a.pipeline.extract_busy_us;
  d.forward_busy_us = b.pipeline.forward_busy_us - a.pipeline.forward_busy_us;
  d.publish_busy_us = b.pipeline.publish_busy_us - a.pipeline.publish_busy_us;
  return d;
}

// --- results ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = not a sampled statistic
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void violation(const std::string& what) {
    std::cerr << "VIOLATION: " << what << "\n";
    violations_.push_back(what);
  }
  [[nodiscard]] bool correct() const { return violations_.empty(); }

  void print(std::size_t attempted, std::size_t failed) const {
    for (const Metric& m : metrics_) {
      std::cout << "metric " << m.name << " = " << m.value << " " << m.unit;
      if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
      std::cout << "\n";
    }
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": "
         << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double value = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      json << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name << "\": {\"value\": " << value
           << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
};

void print_fingerprint(const Args& args, const WorkloadSpec& spec,
                       const mga::serve::ServeOptions& options, std::size_t driver_threads) {
  std::ostringstream out;
  out << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << json_escape(proc_field("/proc/cpuinfo", "model name"))
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"commit\": \""
      << json_escape(args.commit) << "\", \"driver_threads\": " << driver_threads
      << ", \"serve_options\": {\"shards\": " << options.shards
      << ", \"workers\": " << options.workers
      << ", \"pipeline\": " << (options.pipeline ? "true" : "false")
      << ", \"queue_capacity\": " << options.queue_capacity
      << ", \"max_batch\": " << options.max_batch << ", \"linger_us\": "
      << std::chrono::duration_cast<std::chrono::microseconds>(options.linger).count()
      << ", \"compiled_runtime\": " << (options.compiled_runtime ? "true" : "false")
      << ", \"cache_shards\": " << options.cache.shards
      << ", \"cache_capacity_per_shard\": " << options.cache.capacity_per_shard
      << ", \"telemetry\": " << (options.telemetry.enabled ? "true" : "false") << "}}";
  std::cout << "fingerprint " << out.str() << "\n";
}

/// Checks every workload applies to a finished phase.
template <class P>
void check_phase(const P& phase, const PhaseSummary& summary, Report& report) {
  if (summary.sent != summary.succeeded + summary.failed)
    report.violation(phase.name + ": sent != succeeded + failed");
  if (summary.mismatches != 0)
    report.violation(phase.name + ": " + std::to_string(summary.mismatches) +
                     " served configs differ from direct MgaTuner::tune");
}

/// The workload-definition checks on a measured phase's cache counters.
void check_cache(const WorkloadSpec& spec, const mga::serve::FeatureCacheStats& cache,
                 Report& report) {
  if (spec.name == "cold_sweep" && cache.hits != 0)
    report.violation("cold_sweep: feature_cache.hit_rate " + std::to_string(cache.hit_rate()) +
                     " after warm-up (must be 0)");
  if (spec.name == "hot_zipf" && cache.hit_rate() < 0.99)
    report.violation("hot_zipf: feature_cache.hit_rate " + std::to_string(cache.hit_rate()) +
                     " after warm-up (must be >= 0.99)");
}

[[nodiscard]] std::vector<double> values(const std::vector<TimedSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const TimedSample& s : samples) out.push_back(s.value);
  return out;
}

// Timed metrics are medians over 1 s windows of a per-window statistic,
// counting only windows in which the host (hypervisor) stole at most
// kMaxWindowSteal of the machine's CPU. On a shared host, steal comes in
// episodes of tens of seconds to minutes during which every wake-up of an
// idle CPU waits on the hypervisor; such a window measures the neighbours,
// not the program. When an episode covers nearly a whole run, the
// kMinCountedWindows least-stolen windows count instead. Which windows count
// is decided from /proc/stat, never from the latencies themselves.
constexpr double kMaxWindowSteal = 0.02;
constexpr std::size_t kMinCountedWindows = 5;

struct Windows {
  std::vector<double> steal;  // host steal share per whole window of the phase
  double limit = 0.0;         // a window counts when its steal is at most this

  [[nodiscard]] bool keep(std::size_t w) const { return w < steal.size() && steal[w] <= limit; }
};

/// The windows of each of `phases`, under one steal limit for all of them.
template <class P>
[[nodiscard]] std::vector<Windows> judge_windows(const std::vector<const P*>& phases,
                                                 const StealMonitor& monitor) {
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowS));
  std::vector<Windows> judged(phases.size());
  std::vector<double> sorted;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const auto n = static_cast<std::size_t>(std::floor(phases[k]->seconds / kWindowS + 1e-9));
    for (std::size_t w = 0; w < n; ++w) {
      const Clock::time_point from = phases[k]->start + static_cast<int>(w) * window;
      judged[k].steal.push_back(monitor.share(from, from + window));
    }
    sorted.insert(sorted.end(), judged[k].steal.begin(), judged[k].steal.end());
  }
  std::sort(sorted.begin(), sorted.end());
  const double limit =
      sorted.empty()
          ? kMaxWindowSteal
          : std::max(kMaxWindowSteal, sorted[std::min(kMinCountedWindows, sorted.size()) - 1]);
  for (std::size_t k = 0; k < phases.size(); ++k) {
    judged[k].limit = limit;
    std::size_t counted = 0;
    for (std::size_t w = 0; w < judged[k].steal.size(); ++w) counted += judged[k].keep(w) ? 1 : 0;
    std::cout << phases[k]->name << ": " << counted << " of " << judged[k].steal.size()
              << " windows counted (host steal <= " << limit << "), phase steal "
              << monitor.share(phases[k]->start, phases[k]->stop) << "\n";
  }
  return judged;
}

template <class P>
[[nodiscard]] Windows judge_windows(const P& phase, const StealMonitor& monitor) {
  return judge_windows(std::vector<const P*>{&phase}, monitor).front();
}

/// Samples of one phase and the windows of it that count.
struct WindowedPart {
  const std::vector<TimedSample>* samples;
  const Windows* windows;
};

/// Median, over the counted windows of every part, of each window's p-th
/// percentile; the p-th percentile of every sample when no counted window
/// holds at least 10 samples beyond the percentile.
[[nodiscard]] double windowed(const std::vector<WindowedPart>& parts, double p) {
  const auto min_samples = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - p)));
  std::vector<double> per_window, all;
  for (const WindowedPart& part : parts) {
    const std::vector<double> counted = window_percentiles(
        *part.samples, kWindowS, p, min_samples,
        [&](std::size_t w) { return part.windows->keep(w); });
    per_window.insert(per_window.end(), counted.begin(), counted.end());
    const std::vector<double> every = values(*part.samples);
    all.insert(all.end(), every.begin(), every.end());
  }
  if (per_window.empty()) return percentile(std::move(all), p);
  return percentile(std::move(per_window), 0.5);
}

/// Requests due in counted windows: how many were sent, and how many of
/// them completed within the workload's limit (a failed request is a miss).
struct SloCount {
  std::size_t sent = 0, good = 0;

  void add(const Phase& phase, const WorkloadSpec& spec, const Windows& windows) {
    for (std::size_t i = 0; i < phase.sent(); ++i) {
      const auto w =
          static_cast<std::size_t>(seconds_between(phase.start, phase.sends[i].due) / kWindowS);
      if (!windows.keep(w)) continue;
      ++sent;
      const Completion& done = phase.board->at(i);
      if (done.ok && std::chrono::duration<double, std::milli>(done.done - phase.sends[i].due)
                             .count() <= spec.latency_limit_ms)
        ++good;
    }
  }
  [[nodiscard]] double attainment() const {
    return sent == 0 ? 0.0 : static_cast<double>(good) / static_cast<double>(sent);
  }
};

/// Completions per second in each counted window of a closed-loop phase.
void add_rates(const ClosedPhase& phase, const Windows& windows, std::vector<double>& rates) {
  const std::vector<std::size_t> per_window = phase.tally->per_window();
  for (std::size_t w = 0; w < per_window.size(); ++w)
    if (windows.keep(w)) rates.push_back(static_cast<double>(per_window[w]) / kWindowS);
}

[[nodiscard]] double capacity_rps(const ClosedPhase& phase, const Windows& windows) {
  std::vector<double> rates;
  add_rates(phase, windows, rates);
  return percentile(std::move(rates), 0.5);
}

/// One readable line of per-window values, so a run's drift can be seen.
template <class T>
void print_windows(const std::string& what, const std::vector<T>& per_window) {
  std::cout << "by window, " << what << ":";
  for (const T& value : per_window) std::cout << " " << value;
  std::cout << "\n";
}

[[nodiscard]] double geomean(double log_sum, std::size_t n) {
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

[[nodiscard]] double peak_rss_mb() {
  const std::string hwm = proc_field("/proc/self/status", "VmHWM");  // "123456 kB"
  return hwm.empty() ? 0.0 : std::stod(hwm) / 1024.0;
}

/// Open-loop traffic sent, untimed, before each measured open-loop phase so
/// lazily built state (plan layouts, allocator pools, thread wake paths) is
/// in place when timing starts.
constexpr double kWarmInSeconds = 2.0;

/// Everything a run shares: the catalog, the seeded stream, the deployment.
struct Bench {
  const Args& args;
  const WorkloadSpec& spec;
  Catalog catalog;
  RequestStream stream;
  std::vector<std::uint32_t> warm;
  Deployment deployment;
  std::shared_ptr<const mga::core::MgaTuner> tuner;  // held across hot swaps
  std::unique_ptr<GroundTruth> truth;
  SpanLog spans;
  Report report;
  StealMonitor steal;

  Bench(const Args& a, const WorkloadSpec& s)
      : args(a), spec(s), catalog(catalog_for(s)), stream(s, catalog, a.seed),
        warm(warm_up_items(s, catalog, stream.round_robin_offset())) {}

  /// Set up `reps` times (the last deployment is kept); returns each
  /// setup's wall time.
  std::vector<double> set_up_reps(int reps) {
    std::vector<double> setup_s;
    for (int rep = 0; rep < reps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      if (!set_up(catalog, warm, deployment)) report.violation("warm-up request failed");
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    tuner = deployment.registry->get(kMachine);
    truth = std::make_unique<GroundTruth>(*tuner, catalog);
    for (const std::uint32_t item : warm) (void)truth->at(item);
    return setup_s;
  }

  [[nodiscard]] std::uint64_t phase_seed(std::uint64_t phase) const {
    return mga::util::hash_combine(args.seed, phase);
  }

  /// Send `phases` back to back on one continuous open-loop schedule (the
  /// service never drains in between), calling `at_start(k)` just before
  /// phase k starts, then wait for all of them.
  void run_open(const std::vector<Phase*>& phases,
                const std::function<void(std::size_t)>& at_start = {}) {
    mga::serve::TuningService& service = *deployment.service;
    // A short lead so the first arrivals are not already late.
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t k = 0; k < phases.size(); ++k) {
      if (at_start) at_start(k);
      send_open_loop(service, catalog, *phases[k], start);
      start = phases[k]->stop;
    }
    for (Phase* phase : phases) finish_phase(service, *phase);
  }

  /// Stop the swap thread (if any) and return its swap times. Swaps run
  /// through open-loop phases only: in a closed loop they would make
  /// capacity depend on how swaps fall within its windows.
  std::vector<double> stop_swaps(std::unique_ptr<Swapper>& swapper) {
    if (!swapper) return {};
    swapper->stop();
    if (swapper->failed()) report.violation("a registry swap threw");
    std::vector<double> swap_ms = swapper->swap_ms();
    swapper.reset();
    return swap_ms;
  }

  PhaseSummary summarize_checked(const Phase& phase) {
    PhaseSummary summary = summarize(phase, *truth);
    print_phase(phase, summary);
    check_phase(phase, summary, report);
    return summary;
  }

  PhaseSummary summarize_checked(const ClosedPhase& phase) {
    PhaseSummary summary = summarize(phase);
    print_phase(phase, summary);
    check_phase(phase, summary, report);
    return summary;
  }

  void run_closed(ClosedPhase& phase) {
    send_closed_loop(*deployment.service, catalog, stream,
                     [this](std::uint32_t item) { return truth->at(item).config; }, phase);
    finish_phase(*deployment.service, phase);
  }
};

// --- the end-to-end run -----------------------------------------------------------------

/// Setups timed per end-to-end run; setup_s is their median.
constexpr int kSetupReps = 5;
/// The end-to-end run alternates this many open-loop and closed-loop
/// segments, so both kinds of measurement sample the whole run: on a shared
/// host throughput and wake-up latency drift over tens of seconds, and one
/// contiguous block of each would catch one stretch of it. The open loop,
/// which every gated metric comes from, gets kOpenShare of --seconds.
constexpr std::size_t kCycles = 5;
constexpr double kOpenShare = 0.7;

int run_end_to_end(Bench& bench) {
  const std::vector<double> setup_s = bench.set_up_reps(kSetupReps);
  const double open_s = kOpenShare * bench.args.seconds / static_cast<double>(kCycles);
  const double closed_s = (1.0 - kOpenShare) * bench.args.seconds / static_cast<double>(kCycles);

  std::unique_ptr<Phase> warm_in =
      plan_open_loop("warm_in", bench.spec, bench.stream, kWarmInSeconds, bench.phase_seed(1));
  std::vector<std::unique_ptr<Phase>> opens;
  std::vector<std::unique_ptr<ClosedPhase>> closeds;
  for (std::size_t k = 0; k < kCycles; ++k) {
    // Each segment is planned just before it runs, so requests reach the
    // service in stream order (a round-robin sweep never revisits a kernel
    // early) and the first segment shares the warm-in's schedule.
    const std::string n = std::to_string(k + 1);
    opens.push_back(plan_open_loop("open_loop." + n, bench.spec, bench.stream, open_s,
                                   bench.phase_seed(2 + k)));
    closeds.push_back(plan_closed_loop("closed_loop." + n, closed_s));
    std::unique_ptr<Swapper> swapper;
    if (bench.spec.swap_period_ms > 0.0)
      swapper = std::make_unique<Swapper>(*bench.deployment.registry,
                                          bench.spec.swap_period_ms, bench.spans);
    if (k == 0)
      bench.run_open({warm_in.get(), opens[k].get()});
    else
      bench.run_open({opens[k].get()});
    (void)bench.stop_swaps(swapper);
    bench.run_closed(*closeds[k]);
  }

  const PhaseSummary w = bench.summarize_checked(*warm_in);
  std::size_t attempted = w.sent, failed = w.failed;
  std::size_t sent = 0, succeeded = 0, open_failed = 0;
  double cpu_s = 0.0, log_speedup_sum = 0.0, log_oracle_sum = 0.0;
  std::vector<PhaseSummary> open_summaries;
  for (const std::unique_ptr<Phase>& open : opens) {
    open_summaries.push_back(bench.summarize_checked(*open));
    const PhaseSummary& o = open_summaries.back();
    check_cache(bench.spec, stats_delta(open->before, open->after).cache, bench.report);
    sent += o.sent;
    succeeded += o.succeeded;
    open_failed += o.failed;
    cpu_s += open->cpu_s;
    log_speedup_sum += o.log_speedup_sum;
    log_oracle_sum += o.log_oracle_sum;
  }
  std::size_t closed_succeeded = 0;
  for (const std::unique_ptr<ClosedPhase>& closed : closeds) {
    const PhaseSummary c = bench.summarize_checked(*closed);
    closed_succeeded += c.succeeded;
    attempted += c.sent;
    failed += c.failed;
  }
  attempted += sent;
  failed += open_failed;

  std::vector<const Phase*> open_phases;
  for (const std::unique_ptr<Phase>& open : opens) open_phases.push_back(open.get());
  const std::vector<Windows> open_windows = judge_windows(open_phases, bench.steal);
  std::vector<const ClosedPhase*> closed_phases;
  for (const std::unique_ptr<ClosedPhase>& closed : closeds) closed_phases.push_back(closed.get());
  const std::vector<Windows> closed_windows = judge_windows(closed_phases, bench.steal);
  std::vector<double> rates;
  for (std::size_t k = 0; k < closeds.size(); ++k) add_rates(*closeds[k], closed_windows[k], rates);

  std::vector<WindowedPart> all, interactive;
  SloCount slo;
  for (std::size_t k = 0; k < opens.size(); ++k) {
    all.push_back({&open_summaries[k].latency_ms, &open_windows[k]});
    interactive.push_back({&open_summaries[k].interactive_latency_ms, &open_windows[k]});
    slo.add(*opens[k], bench.spec, open_windows[k]);
  }
  print_windows("closed-loop completions per s, counted windows", rates);

  Report& report = bench.report;
  report.add("setup_s", percentile(setup_s, 0.5), "s", setup_s.size());
  report.add("p50_ms", windowed(all, 0.50), "ms", succeeded);
  report.add("slo_attainment", slo.attainment(), "ratio", slo.sent);
  report.add("cpu_us_per_req", cpu_s * 1e6 / static_cast<double>(succeeded), "us", succeeded);
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("speedup_vs_default", geomean(log_speedup_sum, succeeded), "x", succeeded);
  report.add("oracle_fraction", geomean(log_oracle_sum, succeeded), "ratio", succeeded);
  // Printed with the end-to-end set but gated as per-layer metrics (see
  // README: their run-to-run spread on a shared host exceeds any bound).
  std::cout << "also capacity_rps = " << percentile(rates, 0.5) << " req/s (n="
            << closed_succeeded << ")\n"
            << "also p99_ms = " << windowed(all, 0.99) << " ms (n=" << succeeded << ")\n"
            << "also interactive_p99_ms = " << windowed(interactive, 0.99) << " ms\n"
            << "also failed_share = "
            << static_cast<double>(open_failed) / static_cast<double>(sent) << " ratio (n="
            << sent << ")\n";
  report.print(attempted, failed);
  return report.correct() ? 0 : 1;
}

// --- the traced run -------------------------------------------------------------------

/// Layers of the traced blocking path, as reported (`request` is the root's
/// own self time: send lag plus the resolution-to-callback gap).
constexpr const char* kTraceLayers[] = {"request",       "serve.submit", "submit",
                                        "route",         "admission_wait", "linger_wait",
                                        "dispatch_wait", "features",     "profile",
                                        "forward",       "plan_execute"};
/// Least share of the traced median request that named layers must cover.
constexpr double kMinAttributedShare = 0.75;

/// Length of the traced open-loop window: long enough for stable per-layer
/// means, short enough that every span fits the obs rings and the trace
/// file stays tens of MB at 10k req/s.
constexpr double kTracedOpenSeconds = 2.0;
constexpr std::size_t kTraceRingCapacity = std::size_t{1} << 17;

/// Time `fn` `reps` times as `name` isolation spans; returns the mean in us.
template <class Fn>
double time_calls(SpanLog& spans, const char* name, std::size_t reps, Fn&& fn) {
  double total_us = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn(r);
    const Clock::time_point t1 = Clock::now();
    spans.record(name, 0, t0, t1);
    total_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
  }
  return reps == 0 ? 0.0 : total_us / static_cast<double>(reps);
}

/// Isolated calls into each layer's public entry points, on the idle
/// service's own tuner, plan and registry.
void measure_layers(Bench& bench, std::vector<double>& swap_ms) {
  Report& report = bench.report;
  const mga::core::MgaTuner& tuner = *bench.tuner;
  const Catalog& catalog = bench.catalog;
  const std::size_t kernels = catalog.kernels.size();
  // At least a few hundred calls, and every distinct kernel at least once.
  const std::size_t calls = std::max<std::size_t>(kernels, 256);
  volatile std::uint64_t sink = 0;

  report.add("feature_cache.key_us",
             time_calls(bench.spans, "kernel_ir_hash", calls,
                        [&](std::size_t r) {
                          sink = sink + mga::serve::kernel_ir_hash(catalog.kernels[r % kernels]);
                        }),
             "us", calls);

  std::vector<mga::core::KernelFeatures> features(std::min<std::size_t>(kernels, 16));
  const std::size_t extract_calls = std::clamp<std::size_t>(kernels, 128, 512);
  report.add("core.extract_us",
             time_calls(bench.spans, "extract_features", extract_calls,
                        [&](std::size_t r) {
                          mga::core::KernelFeatures f = tuner.extract_features(
                              catalog.kernels[r % kernels]);
                          if (r < features.size()) features[r] = std::move(f);
                        }),
             "us", extract_calls);

  const std::size_t profile_calls = std::max<std::size_t>(catalog.items(), 1024);
  report.add("hwsim.profile_us",
             time_calls(bench.spans, "profile_counters", profile_calls,
                        [&](std::size_t r) {
                          const std::size_t item = r % catalog.items();
                          const mga::hwsim::PapiCounters c = tuner.profile_counters(
                              features[catalog.kernel_of(item) % features.size()].workload,
                              catalog.inputs[catalog.input_of(item)]);
                          sink = sink + static_cast<std::uint64_t>(c.cpu_clock_cycles);
                        }),
             "us", profile_calls);

  const std::shared_ptr<const mga::runtime::CompiledForward> plan =
      bench.deployment.registry->resolve(kMachine).plan;
  if (!plan) {
    report.violation("registry resolved no compiled plan");
  } else {
    for (const auto& [batch, name, span] :
         {std::tuple<std::size_t, const char*, const char*>{1, "runtime.forward_b1_us",
                                                            "predict_labels.b1"},
          {8, "runtime.forward_b8_us", "predict_labels.b8"},
          {32, "runtime.forward_b32_us", "predict_labels.b32"}}) {
      std::vector<std::vector<mga::hwsim::PapiCounters>> groups;
      for (const mga::core::KernelFeatures& f : features) {
        std::vector<mga::hwsim::PapiCounters> rows;
        for (std::size_t i = 0; i < batch; ++i)
          rows.push_back(tuner.profile_counters(f.workload,
                                                catalog.inputs[i % catalog.inputs.size()]));
        groups.push_back(std::move(rows));
      }
      // One untimed call per group first: it plans the shape bucket's layout.
      for (std::size_t k = 0; k < features.size(); ++k)
        sink = sink + static_cast<std::uint64_t>(
                          plan->predict_labels(features[k].graph, features[k].scaled_vector,
                                               groups[k])
                              .front());
      const std::size_t reps = 8 * features.size();
      report.add(name,
                 time_calls(bench.spans, span, reps,
                            [&](std::size_t r) {
                              const std::size_t k = r % features.size();
                              const std::vector<int> labels = plan->predict_labels(
                                  features[k].graph, features[k].scaled_vector, groups[k]);
                              sink = sink + static_cast<std::uint64_t>(labels.front());
                            }),
                 "us", reps);
    }
  }

  if (swap_ms.empty()) {
    // No swaps on the serving path: time them on a side registry.
    mga::serve::ModelRegistry side;
    side.add(kMachine, tuner.clone());
    (void)time_calls(bench.spans, "registry.swap", 4, [&](std::size_t) {
      const Clock::time_point t0 = Clock::now();
      side.swap(kMachine, tuner.clone());
      swap_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    });
  }
}

int run_traced(Bench& bench) {
  mga::obs::ObsOptions obs_options;
  obs_options.enabled = false;
  obs_options.ring_capacity = kTraceRingCapacity;
  mga::obs::configure(obs_options);

  (void)bench.set_up_reps(1);
  const double seconds = bench.args.seconds;
  std::unique_ptr<Phase> warm_in =
      plan_open_loop("warm_in", bench.spec, bench.stream, kWarmInSeconds, bench.phase_seed(1));
  std::unique_ptr<Phase> open_a = plan_open_loop("open_loop_untraced", bench.spec, bench.stream,
                                                 0.4 * seconds, bench.phase_seed(2));
  std::unique_ptr<Phase> open_b = plan_open_loop("open_loop_traced", bench.spec, bench.stream,
                                                 kTracedOpenSeconds, bench.phase_seed(3));
  std::unique_ptr<ClosedPhase> closed_a =
      plan_closed_loop("closed_loop_untraced", 0.15 * seconds);
  std::unique_ptr<ClosedPhase> closed_b = plan_closed_loop("closed_loop_traced", 0.15 * seconds);

  std::unique_ptr<Swapper> swapper;
  if (bench.spec.swap_period_ms > 0.0)
    swapper = std::make_unique<Swapper>(*bench.deployment.registry, bench.spec.swap_period_ms,
                                        bench.spans);
  // The traced window follows the untraced one on the same schedule, so
  // both see the same service state; only requests submitted while obs is
  // enabled carry a trace id.
  mga::obs::TraceCollector& collector = mga::obs::TraceCollector::instance();
  bench.run_open({warm_in.get(), open_a.get(), open_b.get()}, [&](std::size_t k) {
    if (k != 2) return;
    collector.clear();
    mga::obs::enable();
  });
  mga::obs::disable();
  const std::vector<mga::obs::TraceEvent> events = collector.snapshot();
  const std::uint64_t dropped = collector.dropped();
  std::vector<double> swap_ms = bench.stop_swaps(swapper);

  bench.run_closed(*closed_a);
  mga::obs::enable();
  bench.run_closed(*closed_b);
  mga::obs::disable();

  PhaseSummary summaries[5];
  const Phase* open_phases[3] = {warm_in.get(), open_a.get(), open_b.get()};
  for (std::size_t p = 0; p < 3; ++p) summaries[p] = bench.summarize_checked(*open_phases[p]);
  summaries[3] = bench.summarize_checked(*closed_a);
  summaries[4] = bench.summarize_checked(*closed_b);
  std::size_t attempted = 0, failed = 0;
  for (const PhaseSummary& summary : summaries) {
    attempted += summary.sent;
    failed += summary.failed;
  }
  const PhaseSummary& a = summaries[1];
  const PhaseSummary& b = summaries[2];
  const Windows untraced_windows = judge_windows(*open_a, bench.steal);
  const StatsDelta delta = stats_delta(open_b->before, open_b->after);
  check_cache(bench.spec, delta.cache, bench.report);
  if (dropped != 0)
    bench.report.violation(std::to_string(dropped) + " trace events overwritten (ring too small)");

  measure_layers(bench, swap_ms);
  Report& report = bench.report;
  const Phase& traced = *open_b;

  // tail latency, from the untraced open-loop window
  report.add("p99_ms", windowed({{&a.latency_ms, &untraced_windows}}, 0.99), "ms",
             a.latency_ms.size());
  report.add("interactive_p99_ms",
             windowed({{&a.interactive_latency_ms, &untraced_windows}}, 0.99), "ms",
             a.interactive_latency_ms.size());

  // driver
  std::vector<double> lag_ms, submit_us;
  for (const SendRecord& send : traced.sends) {
    lag_ms.push_back(std::chrono::duration<double, std::milli>(send.sent - send.due).count());
    submit_us.push_back(
        std::chrono::duration<double, std::micro>(send.submitted - send.sent).count());
  }
  report.add("driver.send_lag_p50_ms", percentile(lag_ms, 0.50), "ms", lag_ms.size());
  report.add("driver.send_lag_p99_ms", percentile(lag_ms, 0.99), "ms", lag_ms.size());
  report.add("host.steal_share", bench.steal.share(traced.start, traced.stop), "ratio");

  // serve
  std::vector<double> queue_ms, compute_ms;
  for (std::size_t i = 0; i < traced.sent(); ++i) {
    const Completion& done = traced.board->at(i);
    if (!done.ok) continue;
    queue_ms.push_back(done.queue_wait_us / 1000.0);
    compute_ms.push_back(done.compute_us / 1000.0);
  }
  const mga::obs::StageSummary stages = mga::obs::summarize_stages(events);
  const auto stage_mean_us = [&](mga::obs::Stage stage) {
    const mga::obs::StageStats& s = stages[static_cast<std::size_t>(stage)];
    return s.count == 0 ? 0.0 : s.total_us / static_cast<double>(s.count);
  };
  const auto stage_count = [&](mga::obs::Stage stage) {
    return static_cast<std::size_t>(stages[static_cast<std::size_t>(stage)].count);
  };
  report.add("serve.submit_us_mean", mean(submit_us), "us", submit_us.size());
  report.add("serve.queue_wait_ms_p50", percentile(queue_ms, 0.50), "ms", queue_ms.size());
  report.add("serve.queue_wait_ms_p99", percentile(queue_ms, 0.99), "ms", queue_ms.size());
  report.add("serve.compute_ms_p50", percentile(compute_ms, 0.50), "ms", compute_ms.size());
  report.add("serve.admission_wait_us_mean", stage_mean_us(mga::obs::Stage::kAdmissionWait),
             "us", stage_count(mga::obs::Stage::kAdmissionWait));
  report.add("serve.linger_wait_us_mean", stage_mean_us(mga::obs::Stage::kLingerWait), "us",
             stage_count(mga::obs::Stage::kLingerWait));
  report.add("serve.dispatch_wait_us_mean", stage_mean_us(mga::obs::Stage::kDispatchWait), "us",
             stage_count(mga::obs::Stage::kDispatchWait));
  report.add("serve.mean_batch",
             delta.batches == 0 ? 0.0
                                : static_cast<double>(delta.batched_requests) /
                                      static_cast<double>(delta.batches),
             "count", delta.batches);
  report.add("serve.batches", static_cast<double>(delta.batches), "count");
  report.add("serve.extract_busy_ms", delta.extract_busy_us / 1000.0, "ms");
  report.add("serve.forward_busy_ms", delta.forward_busy_us / 1000.0, "ms");
  report.add("serve.publish_busy_ms", delta.publish_busy_us / 1000.0, "ms");
  report.add("serve.rejected", static_cast<double>(delta.rejected), "count");
  report.add("serve.failed", static_cast<double>(delta.failed), "count");
  report.add("failed_share", static_cast<double>(b.failed) / static_cast<double>(b.sent),
             "ratio", b.sent);

  // feature_cache, hwsim, runtime counters over the traced window
  const std::uint64_t lookups = delta.cache.hits + delta.cache.misses;
  report.add("feature_cache.hit_rate", delta.cache.hit_rate(), "ratio", lookups);
  report.add("feature_cache.lookups", static_cast<double>(lookups), "count");
  report.add("feature_cache.misses", static_cast<double>(delta.cache.misses), "count");
  report.add("feature_cache.evictions", static_cast<double>(delta.cache.evictions), "count");
  report.add("feature_cache.profile_memo_hits",
             static_cast<double>(delta.cache.profile_memo_hits), "count");
  report.add("hwsim.profiles_run", static_cast<double>(delta.cache.profiles_run), "count");
  report.add("runtime.forwards_compiled", static_cast<double>(delta.forwards_compiled), "count");
  report.add("runtime.forwards_interpreted", static_cast<double>(delta.forwards_interpreted),
             "count");
  report.add("runtime.plan_layout_misses", static_cast<double>(delta.plan_layout_misses),
             "count");

  // registry
  report.add("registry.swaps", static_cast<double>(swap_ms.size()), "count");
  report.add("registry.swap_ms_mean", mean(swap_ms), "ms", swap_ms.size());
  report.add("registry.swap_ms_max",
             swap_ms.empty() ? 0.0 : *std::max_element(swap_ms.begin(), swap_ms.end()), "ms",
             swap_ms.size());

  // obs: traced vs untraced, same service, adjacent windows
  const double p50_a = percentile(values(a.latency_ms), 0.5);
  const double p50_b = percentile(values(b.latency_ms), 0.5);
  report.add("obs.trace_overhead", p50_a > 0.0 ? p50_b / p50_a : 0.0, "ratio", b.succeeded);
  const double cap_a = capacity_rps(*closed_a, judge_windows(*closed_a, bench.steal));
  const double cap_b = capacity_rps(*closed_b, judge_windows(*closed_b, bench.steal));
  report.add("capacity_rps", cap_a, "req/s", summaries[3].succeeded);
  report.add("obs.trace_overhead_capacity", cap_b > 0.0 ? cap_a / cap_b : 0.0, "ratio");

  // Per-layer self time along each traced request's blocking path.
  std::map<std::uint64_t, std::vector<mga::obs::TraceEvent>> by_request;
  for (const mga::obs::TraceEvent& event : events)
    if (event.request_id != 0) by_request[event.request_id].push_back(event);
  std::map<std::string, LayerSelf> layers;
  struct Attributed {
    double root_ms = 0.0;
    double attributed_ms = 0.0;
  };
  std::vector<Attributed> per_request;
  std::vector<BenchSpan> bench_spans = bench.spans.spans();
  for (std::size_t i = 0; i < traced.sent(); ++i) {
    const Completion& done = traced.board->at(i);
    if (!done.ok || done.trace_id == 0) continue;
    const SendRecord& send = traced.sends[i];
    const Interval root{collector.to_ns(send.due), collector.to_ns(done.done)};
    const Interval submit_call{collector.to_ns(send.sent), collector.to_ns(send.submitted)};
    static const std::vector<mga::obs::TraceEvent> kNone;
    const auto it = by_request.find(done.trace_id);
    const std::uint64_t root_self =
        attribute_request(root, submit_call, it == by_request.end() ? kNone : it->second, layers);
    const double root_ms = static_cast<double>(root.end - root.start) / 1e6;
    per_request.push_back({root_ms, root_ms - static_cast<double>(root_self) / 1e6});
    bench_spans.push_back({"request", done.trace_id, root.start, root.end - root.start, 0});
    bench_spans.push_back({"serve.submit", done.trace_id, submit_call.start,
                           submit_call.end - submit_call.start, 0});
  }
  // Reconcile with p50: the requests around the traced median latency must
  // have most of their time attributed to named layers.
  std::sort(per_request.begin(), per_request.end(),
            [](const Attributed& x, const Attributed& y) { return x.root_ms < y.root_ms; });
  double band_root = 0.0, band_attributed = 0.0;
  for (std::size_t i = per_request.size() * 2 / 5; i < per_request.size() * 3 / 5; ++i) {
    band_root += per_request[i].root_ms;
    band_attributed += per_request[i].attributed_ms;
  }
  const double attributed_share = band_root > 0.0 ? band_attributed / band_root : 0.0;
  report.add("trace.p50_attributed_share", attributed_share, "ratio", per_request.size() / 5);
  if ((bench.spec.name == "hot_zipf" || bench.spec.name == "cold_sweep") &&
      attributed_share < kMinAttributedShare)
    report.violation("layer self times cover only " + std::to_string(attributed_share) +
                     " of the traced p50 request");
  // Cache hits and misses are one layer on the blocking path (one span per
  // request, named by outcome); their counts stay separate.
  LayerSelf features = layers["cache_lookup"];
  features.count += layers["feature_extract"].count;
  features.self_us += layers["feature_extract"].self_us;
  report.add("trace.cache_lookup.count", static_cast<double>(layers["cache_lookup"].count),
             "count");
  report.add("trace.feature_extract.count",
             static_cast<double>(layers["feature_extract"].count), "count");
  layers.erase("cache_lookup");
  layers.erase("feature_extract");
  layers["features"] = features;
  for (const char* name : kTraceLayers) {
    const LayerSelf& layer = layers[name];
    report.add(std::string("trace.") + name + ".self_us",
               layer.count == 0 ? 0.0 : layer.self_us / static_cast<double>(layer.count), "us",
               layer.count);
    report.add(std::string("trace.") + name + ".count", static_cast<double>(layer.count),
               "count");
  }

  if (!write_combined_trace(bench.args.trace_out, events, bench_spans))
    report.violation("could not write " + bench.args.trace_out);
  else
    std::cout << "trace written to " << bench.args.trace_out << " (" << events.size()
              << " service spans, " << bench_spans.size() << " benchmark spans)\n";
  report.print(attempted, failed);
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Die with the launcher (run.py): a killed run must not leave load behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: " << argv[0]
              << " --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--trace-out <path>] [--commit <id>]\n";
    return 2;
  }
  const std::optional<WorkloadSpec> spec = find_workload(args.workload);
  if (!spec) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // Sender + steal monitor, plus the swap thread on swap workloads.
  print_fingerprint(args, *spec, mga::serve::ServeOptions{},
                    spec->swap_period_ms > 0.0 ? 3 : 2);
  Bench bench(args, *spec);
  return args.trace ? run_traced(bench) : run_end_to_end(bench);
}
