#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

using mga::obs::Stage;

constexpr std::uint32_t kDriverPid = 9000;

[[nodiscard]] std::uint64_t overlap(const Interval& a, const Interval& b) {
  const std::uint64_t s = std::max(a.start, b.start);
  const std::uint64_t e = std::min(a.end, b.end);
  return e > s ? e - s : 0;
}

[[nodiscard]] Interval interval_of(const mga::obs::TraceEvent& event) {
  return {event.start_ns, event.start_ns + event.dur_ns};
}

/// Stages laid end to end on the blocking path (the pipelined engine's
/// scheduler split, the legacy queue_wait, and the compute stages).
[[nodiscard]] bool top_level(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait:
    case Stage::kAdmissionWait:
    case Stage::kLingerWait:
    case Stage::kDispatchWait:
    case Stage::kCacheLookup:
    case Stage::kFeatureExtract:
    case Stage::kProfile:
    case Stage::kForward:
      return true;
    default:
      return false;
  }
}

void add(std::map<std::string, LayerSelf>& layers, const std::string& name, std::uint64_t ns) {
  LayerSelf& layer = layers[name];
  layer.count += 1;
  layer.self_us += static_cast<double>(ns) / 1000.0;
}

}  // namespace

void SpanLog::record(const char* name, std::uint64_t request_id,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end, std::uint32_t tid) {
  const mga::obs::TraceCollector& collector = mga::obs::TraceCollector::instance();
  BenchSpan span;
  span.name = name;
  span.request_id = request_id;
  span.start_ns = collector.to_ns(start);
  const std::uint64_t end_ns = collector.to_ns(end);
  span.dur_ns = end_ns > span.start_ns ? end_ns - span.start_ns : 0;
  span.tid = tid;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<BenchSpan> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t attribute_request(const Interval& root, const Interval& submit_call,
                                const std::vector<mga::obs::TraceEvent>& service,
                                std::map<std::string, LayerSelf>& layers) {
  struct Child {
    Interval span;
    std::string name;
    Stage stage = Stage::kSubmit;
    bool bench_submit = false;
  };
  std::vector<Child> children;
  children.push_back({submit_call, "serve.submit", Stage::kSubmit, true});
  Interval facade_submit{}, route{}, plan{};
  for (const mga::obs::TraceEvent& event : service) {
    if (top_level(event.stage)) {
      children.push_back({interval_of(event), mga::obs::to_string(event.stage), event.stage});
    } else if (event.stage == Stage::kSubmit) {
      facade_submit = interval_of(event);
    } else if (event.stage == Stage::kRoute) {
      route = interval_of(event);
    } else if (event.stage == Stage::kPlanExecute) {
      plan = interval_of(event);
    }
  }
  std::stable_sort(children.begin(), children.end(),
                   [](const Child& a, const Child& b) { return a.span.start < b.span.start; });

  std::uint64_t cursor = root.start;
  std::uint64_t covered = 0;
  for (const Child& child : children) {
    const Interval clipped{std::max(child.span.start, cursor),
                           std::min(child.span.end, root.end)};
    if (clipped.end <= clipped.start) continue;
    std::uint64_t self = clipped.end - clipped.start;
    covered += self;
    cursor = clipped.end;
    if (child.bench_submit) {
      // serve.submit > the facade's submit span > its route span.
      const std::uint64_t facade = overlap(facade_submit, clipped);
      const std::uint64_t routed = overlap(route, clipped);
      if (facade > 0) {
        add(layers, "submit", facade - std::min(facade, routed));
        add(layers, "route", routed);
      }
      self -= std::min(self, facade);
    } else if (child.stage == Stage::kForward) {
      const std::uint64_t planned = overlap(plan, clipped);
      if (planned > 0) add(layers, "plan_execute", planned);
      self -= std::min(self, planned);
    }
    add(layers, child.name, self);
  }
  const std::uint64_t total = root.end > root.start ? root.end - root.start : 0;
  const std::uint64_t root_self = total - std::min(total, covered);
  add(layers, "request", root_self);
  return root_self;
}

bool write_combined_trace(const std::string& path,
                          const std::vector<mga::obs::TraceEvent>& service,
                          const std::vector<BenchSpan>& bench) {
  std::ostringstream doc;
  mga::obs::write_chrome_trace(doc, {mga::obs::TraceSection{"serve", service}});
  std::string text = doc.str();
  // Re-open the traceEvents array to append the benchmark's own spans.
  const std::size_t close = text.rfind("]}");
  if (close == std::string::npos) return false;
  text.resize(close);
  const bool empty = !text.empty() && text.back() == '[';

  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << text << (empty ? "" : ",")
      << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << kDriverPid
      << ",\"tid\":0,\"args\":{\"name\":\"perfbench/driver\"}}";
  for (const BenchSpan& span : bench) {
    out << ",{\"ph\":\"X\",\"name\":\"" << span.name << "\",\"cat\":\"perfbench\",\"ts\":"
        << static_cast<double>(span.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(span.dur_ns) / 1000.0 << ",\"pid\":" << kDriverPid
        << ",\"tid\":" << span.tid << ",\"args\":{\"request_id\":" << span.request_id << "}}";
  }
  out << "]}\n";
  std::ofstream file(path);
  return static_cast<bool>(file << out.str());
}

}  // namespace perfbench
