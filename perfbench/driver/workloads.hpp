// Workload definitions of the repository benchmark: the request catalogs,
// the tuner every workload serves with, and the seeded request generators.
//
// The service only ever sees what these functions generate; everything is a
// pure function of the workload name and the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuner.hpp"
#include "corpus/spec.hpp"
#include "serve/ticket.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// How request items are drawn from the catalog.
enum class Popularity {
  kZipf,        // item rank r drawn with weight 1 / r^zipf_s
  kRoundRobin,  // kernel (offset + i) mod N: consecutive requests never share one
};

struct WorkloadSpec {
  std::string name;
  bool cold_catalog = false;  // cold_sweep's variant catalog instead of the hot one
  Popularity popularity = Popularity::kZipf;
  double zipf_s = 1.1;
  double rate_rps = 0.0;          // open-loop Poisson arrival rate
  double latency_limit_ms = 0.0;  // SLO limit behind slo_attainment
  /// Share of requests on the interactive tier (kBlock); the rest ride
  /// `bulk` (kReject) when positive, else the normal tier (kBlock).
  double interactive_share = 0.0;
  /// A second driver thread hot-swaps the model every `swap_period_ms`.
  double swap_period_ms = 0.0;
};

/// The benchmark's workloads: the ones BENCHMARK.json gates, in its order,
/// then tiered_swap, which runs by name but is not gated.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] std::optional<WorkloadSpec> find_workload(std::string_view name);

/// Request catalog: every request names one kernel and one input size.
struct Catalog {
  std::vector<mga::corpus::KernelSpec> kernels;
  std::vector<double> inputs;

  [[nodiscard]] std::size_t items() const noexcept { return kernels.size() * inputs.size(); }
  [[nodiscard]] std::size_t kernel_of(std::size_t item) const noexcept {
    return item / inputs.size();
  }
  [[nodiscard]] std::size_t input_of(std::size_t item) const noexcept {
    return item % inputs.size();
  }
};

/// hot_zipf / tiered_swap: the serve benches' 16 openmp_suite kernels (the
/// first 8 are the tuner's training loops) x 7 input sizes.
[[nodiscard]] Catalog hot_catalog();

/// cold_sweep: deterministic parameter variants of every openmp_suite and
/// opencl_suite spec, deduplicated by `kernel_ir_hash`, at one input size.
/// Holds at least kColdKernels kernels, more than the default per-shard
/// feature cache (8 stripes x 32 entries).
inline constexpr std::size_t kColdKernels = 1024;
[[nodiscard]] Catalog cold_catalog();

[[nodiscard]] Catalog catalog_for(const WorkloadSpec& spec);

/// The serve benches' tuner: 8 openmp_suite loops x 5 input sizes, 12 epochs.
[[nodiscard]] mga::core::MgaTunerOptions tuner_options();

struct Request {
  std::uint32_t item = 0;  // catalog item index
  mga::serve::Priority tier = mga::serve::Priority::kNormal;
};

/// Seeded request stream. Draws are sequential, so one stream feeds the
/// open-loop phase and then the closed-loop phase, and the same seed always
/// yields the same sequence.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, const Catalog& catalog, std::uint64_t seed);

  [[nodiscard]] Request next();

  /// First kernel index of the round-robin order (seed-dependent).
  [[nodiscard]] std::size_t round_robin_offset() const noexcept { return offset_; }

 private:
  WorkloadSpec spec_;
  std::size_t kernels_ = 0;
  std::size_t inputs_ = 0;
  std::vector<double> zipf_cdf_;       // over popularity ranks
  std::vector<std::uint32_t> by_rank_;  // rank -> catalog item (fixed order)
  std::size_t offset_ = 0;
  std::size_t issued_ = 0;
  mga::util::Rng rng_;
};

/// Poisson arrival offsets (ns from the phase start) at `rate_rps` covering
/// `seconds`; a pure function of the seed.
[[nodiscard]] std::vector<std::int64_t> poisson_offsets_ns(double rate_rps, double seconds,
                                                           std::uint64_t seed);

/// Submission policy of a request's tier.
[[nodiscard]] mga::serve::RequestOptions request_options(mga::serve::Priority tier);

}  // namespace perfbench
