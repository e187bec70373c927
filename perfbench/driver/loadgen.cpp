#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <numeric>

namespace perfbench {

void CompletionBoard::mark(std::size_t index, const mga::serve::TuneOutcome& outcome) noexcept {
  Completion& done = slot(index);
  done.done = Clock::now();
  done.ok = outcome.ok();
  if (done.ok) {
    const mga::serve::TuneResult& result = outcome.value();
    done.config = result.config;
    done.queue_wait_us = result.queue_wait_us;
    done.compute_us = result.compute_us;
    done.trace_id = result.trace_id;
  } else {
    done.error = outcome.error().kind;
  }
  publish();
}

void CompletionBoard::mark(std::size_t index, bool ok) noexcept {
  Completion& done = slot(index);
  done.done = Clock::now();
  done.ok = ok;
  publish();
}

void CompletionCount::publish() noexcept {
  count_.fetch_add(1, std::memory_order_acq_rel);
  count_.notify_all();
}

std::size_t CompletionCount::wait_change(std::size_t seen) const noexcept {
  count_.wait(seen, std::memory_order_acquire);
  return count_.load(std::memory_order_acquire);
}

bool CompletionCount::wait_for(std::size_t n, Clock::duration timeout) const {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (completed() < n) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ClosedLoopTally::ClosedLoopTally(Clock::time_point start, double seconds, double window_s)
    : start_(start),
      window_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(window_s))),
      windows_(static_cast<std::size_t>(std::floor(seconds / window_s + 1e-9))),
      per_window_(std::make_unique<std::atomic<std::size_t>[]>(windows_)) {}

void ClosedLoopTally::count_success() noexcept {
  succeeded_.fetch_add(1, std::memory_order_relaxed);
  const Clock::duration since = Clock::now() - start_;
  if (since < Clock::duration::zero()) return;
  const auto w = static_cast<std::size_t>(since / window_);
  if (w < windows_) per_window_[w].fetch_add(1, std::memory_order_relaxed);
}

void ClosedLoopTally::mark(const mga::serve::TuneOutcome& outcome,
                           const mga::hwsim::OmpConfig& expected) noexcept {
  if (outcome.ok()) {
    count_success();
    if (!(outcome.value().config == expected)) mismatches_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (outcome.error().kind == mga::serve::ServeErrorKind::kRejected)
      rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  publish();
}

void ClosedLoopTally::mark(bool ok) noexcept {
  if (ok) {
    count_success();
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  publish();
}

std::vector<std::size_t> ClosedLoopTally::per_window() const {
  std::vector<std::size_t> counts(windows_);
  for (std::size_t w = 0; w < windows_; ++w)
    counts[w] = per_window_[w].load(std::memory_order_acquire);
  return counts;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::vector<std::vector<double>> group_windows(const std::vector<TimedSample>& samples,
                                               double window_s) {
  std::vector<std::vector<double>> windows;
  for (const TimedSample& sample : samples) {
    const auto w = static_cast<std::size_t>(std::max(0.0, sample.t_s) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(sample.value);
  }
  return windows;
}

std::vector<double> window_percentiles(const std::vector<TimedSample>& samples,
                                       double window_s, double p, std::size_t min_samples,
                                       const std::function<bool(std::size_t)>& keep) {
  std::vector<std::vector<double>> windows = group_windows(samples, window_s);
  std::vector<double> result;
  for (std::size_t w = 0; w < windows.size(); ++w)
    if (!windows[w].empty() && windows[w].size() >= min_samples && (!keep || keep(w)))
      result.push_back(percentile(std::move(windows[w]), p));
  return result;
}

StealMonitor::StealMonitor(std::chrono::milliseconds period)
    : period_(period), thread_([this] { loop(); }) {}

StealMonitor::~StealMonitor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StealMonitor::sample() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return;
  std::uint64_t fields[8] = {};
  for (std::uint64_t& field : fields)
    if (!(stat >> field)) return;
  Sample s;
  s.at = Clock::now();
  s.steal = fields[7];
  for (const std::uint64_t field : fields) s.total += field;
  const std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(s);
}

void StealMonitor::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    lock.unlock();
    sample();
    lock.lock();
    cv_.wait_for(lock, period_, [&] { return stopping_; });
  }
}

double StealMonitor::share(Clock::time_point from, Clock::time_point to) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Sample* first = nullptr;
  const Sample* last = nullptr;
  for (const Sample& s : samples_) {
    if (s.at <= from) first = &s;
    if (s.at >= to && last == nullptr) last = &s;
  }
  if (first == nullptr || last == nullptr || last->total <= first->total) return 0.0;
  return static_cast<double>(last->steal - first->steal) /
         static_cast<double>(last->total - first->total);
}

}  // namespace perfbench
