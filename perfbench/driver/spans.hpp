// The benchmark's own trace spans and the per-layer self-time analysis of a
// traced run.
//
// The service records its stage spans through mga::obs (enabled only in the
// traced run). The benchmark adds, from outside the service:
//   request        root span per request, due time -> ticket resolved
//   serve.submit   the driver's call into TuningService::submit
//   <layer call>   isolation spans around direct calls into one layer
//                  (kernel_ir_hash, extract_features, profile_counters,
//                  predict_labels.bN, registry.swap)
// Spans stay in memory and are written once, as one Chrome trace, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// One benchmark-side span on the obs collector's clock. `name` must be a
/// string literal (spans keep the pointer).
struct BenchSpan {
  const char* name = "";
  std::uint64_t request_id = 0;  // shared with the service spans; 0 = none
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // 0 = driver thread, 1 = swap thread
};

/// Thread-safe in-memory span log.
class SpanLog {
 public:
  void record(const char* name, std::uint64_t request_id,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, std::uint32_t tid = 0);

  [[nodiscard]] std::vector<BenchSpan> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<BenchSpan> spans_;  // guarded by mutex_
};

/// Self time and span count of one layer, summed over requests.
struct LayerSelf {
  std::uint64_t count = 0;
  double self_us = 0.0;
};

/// A span's extent in ns on the obs collector's clock.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Self-time attribution of one request's blocking path. `root` is the
/// request span, `submit_call` the driver's serve.submit span, `service`
/// the obs spans carrying the request's id (any order).
///
/// The top-level children (serve.submit and the service's scheduling and
/// compute stages) are laid end to end: each is clipped to start no earlier
/// than the previous one ended and to end within the root, so the layers'
/// self times plus the root's own self time add up to the root's duration
/// exactly. Nested spans (the facade's submit and route inside
/// serve.submit, plan_execute inside forward) take their time out of their
/// parent's self time. Returns the root's self time in ns: what no layer
/// covers (send lag, resolution-to-callback gap).
std::uint64_t attribute_request(const Interval& root, const Interval& submit_call,
                                const std::vector<mga::obs::TraceEvent>& service,
                                std::map<std::string, LayerSelf>& layers);

/// Write the service's obs events and the benchmark spans as one Chrome
/// trace (service events via obs::write_chrome_trace; benchmark spans as a
/// "perfbench/driver" process). Returns false when the file cannot be
/// written.
bool write_combined_trace(const std::string& path,
                          const std::vector<mga::obs::TraceEvent>& service,
                          const std::vector<BenchSpan>& bench);

}  // namespace perfbench
