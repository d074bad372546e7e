#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace redundancy::obs {

namespace {

std::string sanitise(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// `{technique="nvp"}` (or "" when unlabelled); `extra` appends one more
/// label pair, used for the histogram `le` label. A label spec containing
/// '=' carries its own key ("loop=0" renders as `loop="0"`); a bare value
/// keeps the historical `technique=` key.
std::string label_set(const std::string& technique,
                      const std::string& extra = {}) {
  if (technique.empty() && extra.empty()) return {};
  std::string out{"{"};
  if (!technique.empty()) {
    const std::size_t eq = technique.find('=');
    if (eq == std::string::npos) {
      out += "technique=\"" + escape_label(technique) + "\"";
    } else {
      out += sanitise(technique.substr(0, eq)) + "=\"" +
             escape_label(technique.substr(eq + 1)) + "\"";
    }
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

std::string exposition_key(const std::string& name,
                           const std::string& technique) {
  return technique.empty() ? name : name + label_set(technique);
}

/// Sorted (family, technique, metric*) view for deterministic rendering.
template <typename Entry>
std::vector<const Entry*> sorted_view(const std::vector<Entry>& entries) {
  std::vector<const Entry*> view;
  view.reserve(entries.size());
  for (const auto& e : entries) view.push_back(&e);
  std::sort(view.begin(), view.end(), [](const Entry* a, const Entry* b) {
    const std::string fa = sanitise(a->name), fb = sanitise(b->name);
    if (fa != fb) return fa < fb;
    return a->technique < b->technique;
  });
  return view;
}

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: pool workers hold cached Counter/Histogram pointers
  // and may still bump them during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& technique) {
  std::lock_guard lock(mutex_);
  for (auto& e : counters_) {
    if (e.name == name && e.technique == technique) return *e.metric;
  }
  counters_.push_back({name, technique, std::make_unique<Counter>()});
  return *counters_.back().metric;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& technique) {
  std::lock_guard lock(mutex_);
  for (auto& e : histograms_) {
    if (e.name == name && e.technique == technique) return *e.metric;
  }
  histograms_.push_back({name, technique, std::make_unique<Histogram>()});
  return *histograms_.back().metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& technique) {
  std::lock_guard lock(mutex_);
  for (auto& e : gauges_) {
    if (e.name == name && e.technique == technique) return *e.metric;
  }
  gauges_.push_back({name, technique, std::make_unique<Gauge>()});
  return *gauges_.back().metric;
}

void MetricsRegistry::render_prometheus(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  std::string prev_family;
  for (const auto* e : sorted_view(counters_)) {
    const std::string fam = sanitise(e->name);
    if (fam != prev_family) {
      out << "# HELP " << fam << "_total redundancy counter " << fam << "\n";
      out << "# TYPE " << fam << "_total counter\n";
      prev_family = fam;
    }
    out << fam << "_total" << label_set(e->technique) << " "
        << e->metric->total() << "\n";
  }
  prev_family.clear();
  for (const auto* e : sorted_view(gauges_)) {
    const std::string fam = sanitise(e->name);
    if (fam != prev_family) {
      out << "# HELP " << fam << " redundancy gauge " << fam << "\n";
      out << "# TYPE " << fam << " gauge\n";
      prev_family = fam;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", e->metric->value());
    out << fam << label_set(e->technique) << " " << value << "\n";
  }
  prev_family.clear();
  for (const auto* e : sorted_view(histograms_)) {
    const std::string fam = sanitise(e->name);
    if (fam != prev_family) {
      out << "# HELP " << fam << " redundancy histogram " << fam << "\n";
      out << "# TYPE " << fam << " histogram\n";
      prev_family = fam;
    }
    const HistogramSnapshot s = e->metric->snapshot();
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      cumulative += s.buckets[b];
      // Only emit buckets up to the last occupied one; +Inf carries the rest.
      if (s.buckets[b] == 0) continue;
      out << fam << "_bucket"
          << label_set(e->technique,
                       "le=\"" +
                           std::to_string(HistogramSnapshot::bucket_bound(b)) +
                           "\"")
          << " " << cumulative << "\n";
    }
    out << fam << "_bucket" << label_set(e->technique, "le=\"+Inf\"") << " "
        << s.count << "\n";
    out << fam << "_sum" << label_set(e->technique) << " " << s.sum << "\n";
    out << fam << "_count" << label_set(e->technique) << " " << s.count
        << "\n";
  }
}

std::string MetricsRegistry::render_prometheus_text() const {
  std::ostringstream out;
  render_prometheus(out);
  return out.str();
}

bool MetricsRegistry::write_prometheus_file(const std::string& path) const {
  std::ofstream out{path};
  if (!out.is_open()) return false;
  render_prometheus(out);
  return true;
}

void MetricsRegistry::reset_all() {
  std::lock_guard lock(mutex_);
  for (auto& e : counters_) e.metric->reset();
  for (auto& e : histograms_) e.metric->reset();
  for (auto& e : gauges_) e.metric->reset();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_totals() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& e : counters_) {
    out.emplace_back(exposition_key(e.name, e.technique), e.metric->total());
  }
  return out;
}

std::vector<std::string> MetricsRegistry::counter_labels(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& e : counters_) {
    if (e.name == name) out.push_back(e.technique);
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::histogram_snapshots() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& e : histograms_) {
    out.emplace_back(exposition_key(e.name, e.technique),
                     e.metric->snapshot());
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_values()
    const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& e : gauges_) {
    out.emplace_back(exposition_key(e.name, e.technique), e.metric->value());
  }
  return out;
}

}  // namespace redundancy::obs
