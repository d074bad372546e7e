#include "tracetool/trace_model.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <utility>

#include "tracetool/jsonl.hpp"

namespace redundancy::tracetool {

namespace {

std::string get_str(const JsonObject& o, const char* key) {
  const auto it = o.find(key);
  return it != o.end() && it->second.kind == JsonValue::Kind::string
             ? it->second.str
             : std::string{};
}

std::uint64_t get_u64(const JsonObject& o, const char* key) {
  const auto it = o.find(key);
  if (it == o.end()) return 0;
  if (it->second.kind == JsonValue::Kind::uinteger) return it->second.u64;
  if (it->second.kind == JsonValue::Kind::number && it->second.num > 0) {
    return static_cast<std::uint64_t>(it->second.num);
  }
  return 0;
}

double get_num(const JsonObject& o, const char* key) {
  const auto it = o.find(key);
  return it == o.end() ? 0.0 : it->second.as_number();
}

bool get_bool(const JsonObject& o, const char* key) {
  const auto it = o.find(key);
  return it != o.end() && it->second.kind == JsonValue::Kind::boolean &&
         it->second.b;
}

/// Span names the instrumentation uses for one unit of variant execution.
bool is_variant_span(const std::string& name) {
  return name == "variant" || name == "component" || name == "alternative" ||
         name == "replica";
}

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f%%", fraction * 100.0);
  return buf;
}

std::string fixed(double v, int digits = 1) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

void load_trace(std::istream& in, TraceData& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto object = parse_flat_object(line);
    if (!object.has_value()) {
      ++out.malformed_lines;
      continue;
    }
    const std::string type = get_str(*object, "type");
    if (type == "span") {
      obs::SpanRecord span;
      span.trace_id = get_u64(*object, "trace");
      span.span_id = get_u64(*object, "span");
      span.parent_id = get_u64(*object, "parent");
      span.name = get_str(*object, "name");
      span.detail = get_str(*object, "detail");
      span.t_start_ns = get_u64(*object, "t_start_ns");
      span.t_end_ns = get_u64(*object, "t_end_ns");
      span.ok = get_bool(*object, "ok");
      out.spans.push_back(std::move(span));
    } else if (type == "adjudication") {
      obs::AdjudicationEvent event;
      event.trace_id = get_u64(*object, "trace");
      event.parent_id = get_u64(*object, "parent");
      event.technique = get_str(*object, "technique");
      event.t_ns = get_u64(*object, "t_ns");
      event.round = get_u64(*object, "round");
      event.electorate = get_u64(*object, "electorate");
      event.ballots_seen = get_u64(*object, "ballots_seen");
      event.ballots_failed = get_u64(*object, "ballots_failed");
      event.accepted = get_bool(*object, "accepted");
      event.verdict = get_str(*object, "verdict");
      event.winner = get_str(*object, "winner");
      event.stragglers_cancelled = get_u64(*object, "stragglers_cancelled");
      out.adjudications.push_back(std::move(event));
    } else {
      ++out.unknown_records;
    }
  }
}

std::string fault_class_of(const std::string& technique) {
  // The obs labels each instrumentation site emits, mapped to the fault
  // class Table 2 assigns the technique family (paper_cell spellings).
  static const std::map<std::string, std::string> kFaults{
      {"nvp", "development"},
      {"sql_nvp", "development"},
      {"recovery_blocks", "development"},
      {"concurrent_recovery_blocks", "development"},
      {"self_checking", "development"},
      {"parallel_evaluation", "development"},
      {"parallel_selection", "development"},
      {"sequential_alternatives", "development"},
      {"data_diversity", "development"},
      {"process_replicas", "malicious"},
      {"nvariant_data", "malicious"},
      {"checkpoint_recovery", "Heisenbugs"},
      {"process_pair", "Heisenbugs"},
      {"microreboot", "Heisenbugs"},
  };
  const auto it = kFaults.find(technique);
  return it != kFaults.end() ? it->second : "—";
}

std::vector<TechniqueAttribution> attribute(const TraceData& trace) {
  std::map<std::string, TechniqueAttribution> rows;
  for (const auto& e : trace.adjudications) {
    TechniqueAttribution& row = rows[e.technique];
    if (row.verdicts == 0) {
      row.technique = e.technique;
      row.fault_class = fault_class_of(e.technique);
    }
    ++row.verdicts;
    if (e.accepted) {
      ++row.accepted;
      if (e.ballots_failed > 0) ++row.masked;
    } else {
      ++row.rejected;
    }
    row.ballots_seen += e.ballots_seen;
    row.ballots_failed += e.ballots_failed;
    row.stragglers_cancelled += e.stragglers_cancelled;
    row.rounds += e.round;
  }
  std::vector<TechniqueAttribution> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

std::vector<PatternLatency> critical_path(const TraceData& trace) {
  // Index spans by (trace, span) — span ids alone can collide between the
  // processes that appended to one trace file — and collect, per parent
  // span, the variant-execution children. A span that parents variant spans
  // is a pattern span (its name is the technique/pattern label), whether it
  // is a root (live request) or nested under a campaign shard.
  using SpanKey = std::pair<obs::TraceId, obs::SpanId>;
  std::map<SpanKey, const obs::SpanRecord*> by_id;
  for (const auto& s : trace.spans) {
    by_id.emplace(SpanKey{s.trace_id, s.span_id}, &s);
  }

  struct Window {
    std::uint64_t first_start = UINT64_MAX;
    std::uint64_t last_end = 0;
    std::uint64_t work = 0;
  };
  std::map<SpanKey, Window> windows;
  for (const auto& s : trace.spans) {
    if (!is_variant_span(s.name) || s.parent_id == 0) continue;
    const SpanKey parent_key{s.trace_id, s.parent_id};
    if (by_id.find(parent_key) == by_id.end()) continue;
    Window& w = windows[parent_key];
    w.first_start = std::min(w.first_start, s.t_start_ns);
    w.last_end = std::max(w.last_end, s.t_end_ns);
    w.work += s.duration_ns();
  }

  std::map<std::string, PatternLatency> rows;
  for (const auto& [parent_key, w] : windows) {
    const obs::SpanRecord& parent = *by_id.at(parent_key);
    PatternLatency& row = rows[parent.name];
    if (row.requests == 0) row.pattern = parent.name;
    ++row.requests;
    row.total_ns += parent.duration_ns();
    if (w.first_start >= parent.t_start_ns) {
      row.queue_ns += w.first_start - parent.t_start_ns;
    }
    if (w.last_end >= w.first_start) {
      row.variant_ns += w.last_end - w.first_start;
    }
    if (parent.t_end_ns >= w.last_end) {
      row.adjudication_ns += parent.t_end_ns - w.last_end;
    }
    row.variant_work_ns += w.work;
  }

  std::vector<PatternLatency> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

SloReport slo_report(const TraceData& trace, double slo_pct) {
  SloReport report;
  report.slo_pct = slo_pct;
  const double budget = 1.0 - slo_pct / 100.0;  // allowed failure fraction
  SloRow overall;
  overall.technique = "overall";
  for (const auto& row : attribute(trace)) {
    SloRow r;
    r.technique = row.technique;
    r.verdicts = row.verdicts;
    r.rejected = row.rejected;
    r.failure_rate = row.failure_rate();
    r.budget_consumed = budget > 0.0 ? r.failure_rate / budget : 0.0;
    overall.verdicts += r.verdicts;
    overall.rejected += r.rejected;
    report.rows.push_back(std::move(r));
  }
  overall.failure_rate = overall.verdicts
                             ? double(overall.rejected) /
                                   double(overall.verdicts)
                             : 0.0;
  overall.budget_consumed =
      budget > 0.0 ? overall.failure_rate / budget : 0.0;
  report.rows.push_back(std::move(overall));
  return report;
}

std::string attribution_markdown(
    const std::vector<TechniqueAttribution>& rows) {
  std::string out;
  out +=
      "| technique | faults (Table 2) | verdicts | accepted | masked | "
      "failed | mask rate | failure rate | ballots seen | ballots failed | "
      "straggler-cancel rate | avg rounds |\n";
  out +=
      "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& r : rows) {
    const double avg_rounds =
        r.verdicts ? double(r.rounds) / double(r.verdicts) : 0.0;
    out += "| " + r.technique + " | " + r.fault_class + " | " +
           std::to_string(r.verdicts) + " | " + std::to_string(r.accepted) +
           " | " + std::to_string(r.masked) + " | " +
           std::to_string(r.rejected) + " | " + pct(r.mask_rate()) + " | " +
           pct(r.failure_rate()) + " | " + std::to_string(r.ballots_seen) +
           " | " + std::to_string(r.ballots_failed) + " | " +
           pct(r.straggler_cancel_rate()) + " | " + fixed(avg_rounds, 2) +
           " |\n";
  }
  if (rows.empty()) out += "| _no adjudication events in trace_ ||||||||||||\n";
  return out;
}

std::string latency_markdown(const std::vector<PatternLatency>& rows) {
  std::string out;
  out +=
      "| pattern | requests | mean total µs | queue µs (%) | variant µs (%) "
      "| adjudication µs (%) | fan-out work µs |\n";
  out += "|---|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& r : rows) {
    if (r.requests == 0) continue;
    const double n = double(r.requests);
    const double total = double(r.total_ns) / n / 1000.0;
    const double queue = double(r.queue_ns) / n / 1000.0;
    const double variant = double(r.variant_ns) / n / 1000.0;
    const double adjudicate = double(r.adjudication_ns) / n / 1000.0;
    const double work = double(r.variant_work_ns) / n / 1000.0;
    const double denom = total > 0.0 ? total : 1.0;
    out += "| " + r.pattern + " | " + std::to_string(r.requests) + " | " +
           fixed(total) + " | " + fixed(queue) + " (" +
           pct(queue / denom) + ") | " + fixed(variant) + " (" +
           pct(variant / denom) + ") | " + fixed(adjudicate) + " (" +
           pct(adjudicate / denom) + ") | " + fixed(work) + " |\n";
  }
  if (rows.empty()) out += "| _no pattern spans in trace_ |||||||\n";
  return out;
}

std::string slo_markdown(const SloReport& report) {
  std::string out;
  out += "SLO target: " + fixed(report.slo_pct, 3) +
         "% of adjudications accepted (error budget " +
         pct(1.0 - report.slo_pct / 100.0) + ")\n\n";
  out +=
      "| technique | verdicts | failed | failure rate | error budget "
      "consumed | status |\n";
  out += "|---|---:|---:|---:|---:|---|\n";
  for (const auto& r : report.rows) {
    const char* status = r.budget_consumed > 1.0          ? "EXHAUSTED"
                         : r.budget_consumed > 0.75       ? "at risk"
                                                          : "within budget";
    out += "| " + r.technique + " | " + std::to_string(r.verdicts) + " | " +
           std::to_string(r.rejected) + " | " + pct(r.failure_rate) + " | " +
           pct(r.budget_consumed) + " | " + status + " |\n";
  }
  return out;
}

void load_flight(std::istream& in, FlightDump& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto object = parse_flat_object(line);
    if (!object.has_value()) {
      ++out.malformed_lines;
      continue;
    }
    const std::string type = get_str(*object, "type");
    if (type == "flight") {
      FlightEvent event;
      event.t_ns = get_u64(*object, "t_ns");
      event.kind = get_str(*object, "kind");
      event.name = get_str(*object, "name");
      event.trace = get_u64(*object, "trace");
      event.a = get_u64(*object, "a");
      event.b = get_u64(*object, "b");
      event.ok = get_bool(*object, "ok");
      event.thread = get_u64(*object, "thread");
      out.events.push_back(std::move(event));
    } else if (type == "flight_header") {
      // A file a crash handler appended to can hold several generations;
      // the last header describes the final (post-crash) dump.
      out.threads = get_u64(*object, "threads");
      out.records_per_thread = get_u64(*object, "records_per_thread");
      out.dropped = get_u64(*object, "dropped");
      ++out.headers;
    } else {
      ++out.unknown_records;
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns < y.t_ns;
                   });
}

std::string flight_markdown(const FlightDump& dump, std::size_t tail) {
  std::string out;
  out += "Events: " + std::to_string(dump.events.size()) + " across " +
         std::to_string(dump.threads) + " thread ring(s) of " +
         std::to_string(dump.records_per_thread) + " records";
  if (dump.headers > 1) {
    out += " (" + std::to_string(dump.headers) + " dump generations)";
  }
  if (dump.dropped > 0) {
    out += ", " + std::to_string(dump.dropped) + " dropped over thread cap";
  }
  if (dump.malformed_lines > 0) {
    out += ", " + std::to_string(dump.malformed_lines) +
           " malformed lines (torn records are expected in crash dumps)";
  }
  out += "\n\n";
  if (dump.events.empty()) {
    out += "_no flight events_\n";
    return out;
  }

  const std::uint64_t t0 = dump.events.front().t_ns;
  const std::uint64_t t1 = dump.events.back().t_ns;
  out += "Covered span: " + fixed(double(t1 - t0) / 1e6, 3) + " ms\n\n";

  std::map<std::string, std::size_t> by_kind;
  std::map<std::size_t, std::size_t> by_thread;
  for (const auto& e : dump.events) {
    ++by_kind[e.kind];
    ++by_thread[e.thread];
  }
  out += "| kind | events |\n|---|---:|\n";
  for (const auto& [kind, n] : by_kind) {
    out += "| " + kind + " | " + std::to_string(n) + " |\n";
  }
  out += "\n| thread | events |\n|---:|---:|\n";
  for (const auto& [thread, n] : by_thread) {
    out += "| " + std::to_string(thread) + " | " + std::to_string(n) + " |\n";
  }

  const std::size_t n = dump.events.size() < tail ? dump.events.size() : tail;
  out += "\nLast " + std::to_string(n) + " events (newest last):\n\n";
  out += "| t offset ms | kind | name | trace | a | b | ok | thread |\n";
  out += "|---:|---|---|---:|---:|---:|---|---:|\n";
  for (std::size_t i = dump.events.size() - n; i < dump.events.size(); ++i) {
    const FlightEvent& e = dump.events[i];
    out += "| " + fixed(double(e.t_ns - t0) / 1e6, 3) + " | " + e.kind +
           " | " + e.name + " | " + std::to_string(e.trace) + " | " +
           std::to_string(e.a) + " | " + std::to_string(e.b) + " | " +
           (e.ok ? "yes" : "no") + " | " + std::to_string(e.thread) + " |\n";
  }
  return out;
}

void load_slo_snapshot(std::istream& in, SloSnapshot& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto object = parse_flat_object(line);
    if (!object.has_value()) {
      ++out.malformed_lines;
      continue;
    }
    const std::string type = get_str(*object, "type");
    if (type == "slo_window") {
      SloWindowRow row;
      row.request_class = get_str(*object, "class");
      row.window = get_str(*object, "window");
      row.window_s = get_u64(*object, "window_s");
      row.total = get_u64(*object, "total");
      row.errors = get_u64(*object, "errors");
      row.error_rate = get_num(*object, "error_rate");
      row.burn_rate = get_num(*object, "burn_rate");
      row.p50_ns = get_num(*object, "p50_ns");
      row.p95_ns = get_num(*object, "p95_ns");
      row.p99_ns = get_num(*object, "p99_ns");
      out.windows.push_back(std::move(row));
    } else if (type == "slo_class") {
      SloClassRow row;
      row.request_class = get_str(*object, "class");
      row.latency_slo_ns = get_u64(*object, "latency_slo_ns");
      row.availability = get_num(*object, "availability");
      row.state = get_str(*object, "state");
      row.total = get_u64(*object, "total");
      row.errors = get_u64(*object, "errors");
      row.budget_allowed = get_num(*object, "budget_allowed");
      row.budget_consumed = get_num(*object, "budget_consumed");
      for (const auto& [key, value] : *object) {
        if (key.rfind("alert_", 0) == 0 &&
            value.kind == JsonValue::Kind::boolean && value.b) {
          row.firing.push_back(key.substr(6));
        }
      }
      out.classes.push_back(std::move(row));
    } else {
      ++out.unknown_records;
    }
  }
}

std::string slo_snapshot_markdown(const SloSnapshot& snapshot) {
  std::string out;
  if (snapshot.malformed_lines > 0) {
    out += "(" + std::to_string(snapshot.malformed_lines) +
           " malformed lines skipped)\n\n";
  }
  out += "## Classes\n\n";
  out +=
      "| class | state | latency SLO ms | availability | total | errors | "
      "budget consumed | firing |\n";
  out += "|---|---|---:|---:|---:|---:|---:|---|\n";
  for (const auto& c : snapshot.classes) {
    std::string firing;
    for (const auto& f : c.firing) {
      if (!firing.empty()) firing += ", ";
      firing += f;
    }
    if (firing.empty()) firing = "—";
    out += "| " + c.request_class + " | " + c.state + " | " +
           fixed(double(c.latency_slo_ns) / 1e6, 3) + " | " +
           pct(c.availability) + " | " + std::to_string(c.total) + " | " +
           std::to_string(c.errors) + " | " + pct(c.budget_consumed) +
           " | " + firing + " |\n";
  }
  if (snapshot.classes.empty()) out += "| _no slo_class records_ ||||||||\n";

  out += "\n## Windows\n\n";
  out +=
      "| class | window | total | errors | error rate | burn rate | p50 ms "
      "| p95 ms | p99 ms |\n";
  out += "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& w : snapshot.windows) {
    out += "| " + w.request_class + " | " + w.window + " | " +
           std::to_string(w.total) + " | " + std::to_string(w.errors) +
           " | " + pct(w.error_rate) + " | " + fixed(w.burn_rate, 2) +
           " | " + fixed(w.p50_ns / 1e6, 3) + " | " +
           fixed(w.p95_ns / 1e6, 3) + " | " + fixed(w.p99_ns / 1e6, 3) +
           " |\n";
  }
  if (snapshot.windows.empty()) out += "| _no slo_window records_ |||||||||\n";
  return out;
}

}  // namespace redundancy::tracetool
