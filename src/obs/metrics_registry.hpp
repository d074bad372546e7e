// Named metric registry with Prometheus text exposition.
//
// Instrumentation sites resolve a Counter/Histogram by name once (keeping a
// reference; registered metrics are never destroyed before process exit) and
// then update it lock-free. The registry itself is mutex-guarded only on the
// registration path. Metrics may carry a fixed `technique=` label so one
// family (e.g. technique_requests_total) holds one series per redundancy
// technique instead of mangling the technique into the metric name.
//
// render_prometheus() writes the standard text exposition format — HELP/TYPE
// headers per family, counters as `<name>_total`, histograms with cumulative
// log2 `le` buckets plus `_sum`/`_count` — sorted by (family, label) so the
// output is byte-deterministic regardless of registration order. Any
// Prometheus scraper or promtool can consume a metrics_*.prom artifact (or a
// live `GET /metrics` scrape from net::Gateway) directly.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/counter.hpp"
#include "obs/gauge.hpp"
#include "obs/histogram.hpp"

namespace redundancy::obs {

class MetricsRegistry {
 public:
  /// Process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& instance();

  /// Find-or-create by (name, technique label). The returned reference stays
  /// valid for the registry's lifetime. Thread-safe. An empty `technique`
  /// means an unlabelled series. A label spec containing '=' names its own
  /// label key ("loop=0" renders `{loop="0"}`) — the gateway's per-reactor
  /// metric shards use this; a bare value keeps the `technique=` key.
  Counter& counter(const std::string& name, const std::string& technique = "");
  Histogram& histogram(const std::string& name,
                       const std::string& technique = "");
  /// Last-value gauges for derived readings (windowed burn rates, window
  /// percentiles) that go up and down — rendered as `# TYPE <fam> gauge`.
  Gauge& gauge(const std::string& name, const std::string& technique = "");

  /// Prometheus text exposition of every registered metric, sorted by
  /// (sanitised family name, technique label) — byte-deterministic for a
  /// given set of metric values. Metric names are sanitised to
  /// [a-zA-Z0-9_:].
  void render_prometheus(std::ostream& out) const;

  /// render_prometheus() as a string (what `GET /metrics` serves).
  [[nodiscard]] std::string render_prometheus_text() const;

  /// Write render_prometheus() to `path` (convention: metrics_<name>.prom).
  /// Returns false if the file could not be opened.
  bool write_prometheus_file(const std::string& path) const;

  /// Zero every registered metric (tests; metrics stay registered).
  void reset_all();

  /// Snapshot of (exposition key, total) for every counter, registration
  /// order. Labelled series render as `name{technique="x"}`.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_totals() const;
  /// Label of every counter registered under `name`, registration order
  /// (how the SLO engine's health view finds the techniques).
  [[nodiscard]] std::vector<std::string> counter_labels(
      const std::string& name) const;
  /// Snapshot of (exposition key, snapshot) for every histogram,
  /// registration order.
  [[nodiscard]] std::vector<std::pair<std::string, HistogramSnapshot>>
  histogram_snapshots() const;
  /// Snapshot of (exposition key, value) for every gauge, registration
  /// order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauge_values()
      const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::string technique;  ///< "" = unlabelled
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mutex_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Histogram>> histograms_;
  std::vector<Entry<Gauge>> gauges_;
};

}  // namespace redundancy::obs
