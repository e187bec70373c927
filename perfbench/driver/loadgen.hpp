// The load generator: an open-loop sender that times every request from the
// moment it was due, a closed-loop refiller that keeps a fixed number of
// requests outstanding, and the completion board both record into.
//
// Both loops are templates over a `submit(index)` callable, so the tests
// drive them with a stub in place of TuningService::submit. The callable
// must eventually call `CompletionBoard::mark(index, ...)` exactly once per
// index, from any thread (the service does it from the thread that resolves
// the ticket).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "hwsim/workload.hpp"
#include "serve/ticket.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// What resolved one request; written once by the resolving thread.
struct Completion {
  Clock::time_point done{};
  bool ok = false;
  mga::serve::ServeErrorKind error = mga::serve::ServeErrorKind::kRejected;
  mga::hwsim::OmpConfig config;
  double queue_wait_us = 0.0;
  double compute_us = 0.0;
  std::uint64_t trace_id = 0;
};

/// Count of resolved requests the driver thread can block on. Each mark
/// writes its own record first and then counts: the counter is the
/// release/acquire edge that publishes the record to the reader.
class CompletionCount {
 public:
  [[nodiscard]] std::size_t completed() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  /// Block until the count differs from `seen`; returns the new count.
  [[nodiscard]] std::size_t wait_change(std::size_t seen) const noexcept;

  /// Block until at least `n` requests are marked or `timeout` passes;
  /// returns whether all `n` arrived.
  [[nodiscard]] bool wait_for(std::size_t n, Clock::duration timeout) const;

 protected:
  void publish() noexcept;

 private:
  std::atomic<std::size_t> count_{0};
};

/// Table of up to `capacity` completions. Slots live in chunks the driver
/// thread allocates on demand (`prepare`) before it submits the request
/// that owns them. Slot i is written only by the thread that marks i.
class CompletionBoard : public CompletionCount {
 public:
  explicit CompletionBoard(std::size_t capacity) : chunks_((capacity + kChunk - 1) / kChunk) {}

  CompletionBoard(const CompletionBoard&) = delete;
  CompletionBoard& operator=(const CompletionBoard&) = delete;

  /// Make slot `index` (< capacity) writable. Driver thread only, before the
  /// request that owns the slot is submitted.
  void prepare(std::size_t index) {
    std::unique_ptr<Completion[]>& chunk = chunks_[index / kChunk];
    if (!chunk) chunk = std::make_unique<Completion[]>(kChunk);
  }

  /// Record request `index`'s outcome, stamped now.
  void mark(std::size_t index, const mga::serve::TuneOutcome& outcome) noexcept;
  /// Stub form for tests: success or failure without a TuneResult.
  void mark(std::size_t index, bool ok) noexcept;

  /// Valid once `completed()` covers the index (acquire on the counter).
  [[nodiscard]] const Completion& at(std::size_t index) const noexcept {
    return chunks_[index / kChunk][index % kChunk];
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 14;

  [[nodiscard]] Completion& slot(std::size_t index) noexcept {
    return chunks_[index / kChunk][index % kChunk];
  }

  std::vector<std::unique_ptr<Completion[]>> chunks_;  // sized once, filled by prepare
};

/// Outcomes of a closed-loop phase, tallied as they resolve. Nothing is kept
/// per request, so the driver's memory does not grow with the throughput it
/// measures and peak RSS stays the service's. Successes are also counted
/// per `window_s` window of the phase, by the time they resolved.
class ClosedLoopTally : public CompletionCount {
 public:
  ClosedLoopTally(Clock::time_point start, double seconds, double window_s);

  ClosedLoopTally(const ClosedLoopTally&) = delete;
  ClosedLoopTally& operator=(const ClosedLoopTally&) = delete;

  /// Record one outcome, stamped now; a success counts as a mismatch when
  /// its config differs from `expected`.
  void mark(const mga::serve::TuneOutcome& outcome,
            const mga::hwsim::OmpConfig& expected) noexcept;
  /// Stub form for tests.
  void mark(bool ok) noexcept;

  [[nodiscard]] std::size_t succeeded() const noexcept { return succeeded_.load(); }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_.load(); }
  [[nodiscard]] std::size_t rejected() const noexcept { return rejected_.load(); }
  [[nodiscard]] std::size_t mismatches() const noexcept { return mismatches_.load(); }

  /// Successes resolved in each whole window of the phase.
  [[nodiscard]] std::vector<std::size_t> per_window() const;

 private:
  void count_success() noexcept;

  const Clock::time_point start_;
  const Clock::duration window_;
  const std::size_t windows_;
  std::unique_ptr<std::atomic<std::size_t>[]> per_window_;
  std::atomic<std::size_t> succeeded_{0}, failed_{0}, rejected_{0}, mismatches_{0};
};

/// When each request was due, and when the driver thread actually called
/// and returned from `submit`.
struct SendRecord {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point submitted{};
};

/// Open loop: request i is due at `start + offsets_ns[i]`. The sender sleeps
/// until the next due time and, when it is running late, sends every overdue
/// request back to back — a stall inside `submit` therefore shows up as
/// latency (counted from the due time) of the requests queued behind it.
template <class Submit>
std::vector<SendRecord> run_open_loop(const std::vector<std::int64_t>& offsets_ns,
                                      Clock::time_point start, Submit&& submit) {
  std::vector<SendRecord> sends(offsets_ns.size());
  for (std::size_t i = 0; i < offsets_ns.size(); ++i) {
    SendRecord& send = sends[i];
    send.due = start + std::chrono::nanoseconds(offsets_ns[i]);
    if (Clock::now() < send.due) std::this_thread::sleep_until(send.due);
    send.sent = Clock::now();
    submit(i);
    send.submitted = Clock::now();
  }
  return sends;
}

/// Closed loop: keep `window` requests outstanding until `end` (or until
/// `max_requests` are issued), refilling on any completion regardless of
/// submit order; `done` counts the resolutions. Request indices are issued
/// from 0. Returns the number of requests issued.
template <class Submit>
std::size_t run_closed_loop(std::size_t window, Clock::time_point end,
                            std::size_t max_requests, const CompletionCount& done,
                            Submit&& submit) {
  std::size_t issued = 0;
  std::size_t resolved = done.completed();
  while (issued < max_requests && Clock::now() < end) {
    if (issued - resolved >= window) {
      resolved = done.wait_change(resolved);
      continue;
    }
    submit(issued++);
    resolved = done.completed();
  }
  return issued;
}

/// Percentile by linear interpolation between closest ranks (p in [0, 1]);
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] double mean(const std::vector<double>& samples);

/// A sample stamped with its request's due time (seconds into the phase).
struct TimedSample {
  double t_s = 0.0;
  double value = 0.0;
};

/// Samples grouped into consecutive `window_s` windows by `t_s`; window w
/// covers [w * window_s, (w + 1) * window_s).
[[nodiscard]] std::vector<std::vector<double>> group_windows(
    const std::vector<TimedSample>& samples, double window_s);

/// Per-window percentiles over `group_windows`; windows holding fewer than
/// `min_samples` samples, or whose index `keep` rejects, are left out.
[[nodiscard]] std::vector<double> window_percentiles(
    const std::vector<TimedSample>& samples, double window_s, double p,
    std::size_t min_samples, const std::function<bool(std::size_t)>& keep = {});

/// Samples the host-wide CPU steal time (time the hypervisor ran something
/// else while this machine's CPUs wanted to run) from /proc/stat on its own
/// thread, so a measurement window can be judged by how much CPU the host
/// took away during it. Reads nothing and reports 0 where /proc/stat has no
/// steal column.
class StealMonitor {
 public:
  explicit StealMonitor(std::chrono::milliseconds period = std::chrono::milliseconds(100));
  ~StealMonitor();

  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Share of all CPU time stolen over [from, to), between the samples
  /// bracketing the interval; 0 when none bracket it.
  [[nodiscard]] double share(Clock::time_point from, Clock::time_point to) const;

 private:
  struct Sample {
    Clock::time_point at{};
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  void sample();
  void loop();

  const std::chrono::milliseconds period_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;         // guarded by mutex_
  std::vector<Sample> samples_;  // guarded by mutex_
  std::thread thread_;           // last: starts after every member it uses
};

}  // namespace perfbench
