// Metrics registry + export: one snapshot, two wire formats.
//
// The serving stack already keeps every number an operator wants —
// ServerStats counters, LinkStats fault/ARQ tallies, FusionEngine lane
// accounting, the flight recorder — but each in its own struct with its own
// accessor. MetricsRegistry is the flattening seam: callers
// (AuthServer::export_metrics, the throughput bench's --metrics-out)
// register named counter/gauge series once per snapshot and render them as
//
//   * Prometheus text exposition format (# HELP / # TYPE / samples, with
//     optional {label="..."} sets) for scrape-style consumers, and
//   * a flat JSON document ({"schema": "rbc.metrics.v1", "metrics": {...}})
//     for the repo's own tooling (scripts/check_metrics.py validates it,
//     scripts/bench_trend.py trends it).
//
// The registry is snapshot-scoped and single-threaded by design: build,
// render, discard. Consistency of the numbers themselves is the source
// snapshot's job (ServerStats slices are taken under the shard stripes'
// locks), not the renderer's.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rbc::obs {

enum class MetricsFormat : u8 {
  kPrometheus = 0,
  kJson = 1,
};

class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// Monotone counter series. Registering the same name again appends
  /// another sample to that family (use distinct label sets).
  void counter(const std::string& name, const std::string& help, double value,
               const Labels& labels = {});

  /// Point-in-time gauge series.
  void gauge(const std::string& name, const std::string& help, double value,
             const Labels& labels = {});

  std::string render(MetricsFormat format) const;
  std::string prometheus() const;
  std::string json() const;

  std::size_t series_count() const noexcept;

  /// The JSON document's schema tag; bump when the shape changes.
  static constexpr const char* kJsonSchema = "rbc.metrics.v1";

 private:
  struct Sample {
    Labels labels;
    double value = 0.0;
  };
  struct Family {
    std::string name;
    std::string help;
    bool is_counter = false;
    std::vector<Sample> samples;
  };

  Family& family(const std::string& name, const std::string& help,
                 bool is_counter);

  std::vector<Family> families_;  // insertion order — deterministic output
};

}  // namespace rbc::obs
