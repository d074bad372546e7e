// tracetool analysis model tests. Traces are synthesised through the same
// obs::to_jsonl serialiser the runtime sinks use, so these tests pin the
// producer/consumer contract: whatever the recorder writes, tracetool reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/sink.hpp"
#include "tracetool/jsonl.hpp"
#include "tracetool/trace_model.hpp"

namespace redundancy::tracetool {
namespace {

obs::SpanRecord span(std::uint64_t id, std::uint64_t parent,
                     const std::string& name, std::uint64_t start,
                     std::uint64_t end, bool ok = true) {
  obs::SpanRecord s;
  s.trace_id = 1;
  s.span_id = id;
  s.parent_id = parent;
  s.name = name;
  s.t_start_ns = start;
  s.t_end_ns = end;
  s.ok = ok;
  return s;
}

obs::AdjudicationEvent adjudication(const std::string& technique,
                                    bool accepted, std::size_t seen,
                                    std::size_t failed, std::size_t round = 1,
                                    std::size_t stragglers = 0) {
  obs::AdjudicationEvent e;
  e.trace_id = 1;
  e.technique = technique;
  e.round = round;
  e.electorate = seen + stragglers;
  e.ballots_seen = seen;
  e.ballots_failed = failed;
  e.accepted = accepted;
  e.verdict = accepted ? "ok" : "no acceptable result";
  e.stragglers_cancelled = stragglers;
  return e;
}

/// One request per technique: an NVP vote that masked a failed ballot, a
/// recovery-blocks run whose alternatives all failed, and a self-checking
/// switchover that cancelled a straggler.
TraceData make_trace() {
  std::ostringstream out;
  // nvp: parent 1000..10000, variants windowed 2000..7000.
  out << obs::to_jsonl(span(10, 0, "nvp", 1'000, 10'000)) << "\n";
  out << obs::to_jsonl(span(11, 10, "variant", 2'000, 5'000)) << "\n";
  out << obs::to_jsonl(span(12, 10, "variant", 2'200, 6'000)) << "\n";
  out << obs::to_jsonl(span(13, 10, "variant", 2'100, 7'000)) << "\n";
  out << obs::to_jsonl(adjudication("nvp", true, 3, 1)) << "\n";
  // recovery blocks: sequential alternatives, both rejected.
  out << obs::to_jsonl(span(20, 0, "recovery_blocks", 0, 8'000)) << "\n";
  out << obs::to_jsonl(span(21, 20, "alternative", 1'000, 3'000, false))
      << "\n";
  out << obs::to_jsonl(span(22, 20, "alternative", 3'000, 6'000, false))
      << "\n";
  out << obs::to_jsonl(adjudication("recovery_blocks", false, 2, 2, 2))
      << "\n";
  // self-checking: acting + spare components, one straggler cancelled.
  out << obs::to_jsonl(span(30, 0, "self_checking", 0, 5'000)) << "\n";
  out << obs::to_jsonl(span(31, 30, "component", 0, 4'000)) << "\n";
  out << obs::to_jsonl(span(32, 30, "component", 0, 4'500)) << "\n";
  out << obs::to_jsonl(adjudication("self_checking", true, 2, 0, 1, 1))
      << "\n";

  std::istringstream in{out.str()};
  TraceData trace;
  load_trace(in, trace);
  return trace;
}

TEST(TracetoolLoad, RoundTripsRecorderSerialisation) {
  const TraceData trace = make_trace();
  ASSERT_EQ(trace.spans.size(), 10u);
  ASSERT_EQ(trace.adjudications.size(), 3u);
  EXPECT_EQ(trace.malformed_lines, 0u);
  EXPECT_EQ(trace.unknown_records, 0u);

  const obs::SpanRecord& root = trace.spans[0];
  EXPECT_EQ(root.name, "nvp");
  EXPECT_EQ(root.span_id, 10u);
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.t_start_ns, 1'000u);
  EXPECT_TRUE(root.ok);
  EXPECT_FALSE(trace.spans[5].ok);

  const obs::AdjudicationEvent& vote = trace.adjudications[0];
  EXPECT_EQ(vote.technique, "nvp");
  EXPECT_TRUE(vote.accepted);
  EXPECT_EQ(vote.ballots_failed, 1u);
}

TEST(TracetoolLoad, CountsMalformedAndUnknownLines) {
  std::istringstream in{
      "{\"type\":\"span\",\"trace\":1\n"      // truncated record
      "{\"type\":\"checkpoint\",\"id\":1}\n"  // parseable, unknown type
      "\n"                                    // blank lines are skipped
      "not json at all\n"};
  TraceData trace;
  load_trace(in, trace);
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.malformed_lines, 2u);
  EXPECT_EQ(trace.unknown_records, 1u);
}

TEST(TracetoolJsonl, KeepsUint64TimestampsExact) {
  // 2^63 + 3 is not representable as a double; the parser must keep it.
  const auto object = parse_flat_object(
      "{\"t\":9223372036854775811,\"s\":\"a\\\"b\\n\",\"neg\":-2.5,"
      "\"on\":true,\"off\":null}");
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->at("t").u64, 9223372036854775811ull);
  EXPECT_EQ(object->at("s").str, "a\"b\n");
  EXPECT_EQ(object->at("neg").num, -2.5);
  EXPECT_TRUE(object->at("on").b);
  EXPECT_FALSE(parse_flat_object("{\"nested\":{}}").has_value());
  EXPECT_FALSE(parse_flat_object("{\"t\":1").has_value());
  EXPECT_FALSE(parse_flat_object("{\"t\":1} trailing").has_value());
}

TEST(TracetoolAttribution, AttributesVerdictsPerTechniqueWithFaultClass) {
  const auto rows = attribute(make_trace());
  ASSERT_EQ(rows.size(), 3u);
  // Sorted by technique name.
  EXPECT_EQ(rows[0].technique, "nvp");
  EXPECT_EQ(rows[1].technique, "recovery_blocks");
  EXPECT_EQ(rows[2].technique, "self_checking");

  EXPECT_EQ(rows[0].fault_class, "development");
  EXPECT_EQ(rows[0].verdicts, 1u);
  EXPECT_EQ(rows[0].accepted, 1u);
  EXPECT_EQ(rows[0].masked, 1u);
  EXPECT_EQ(rows[0].ballots_seen, 3u);
  EXPECT_EQ(rows[0].ballots_failed, 1u);
  EXPECT_DOUBLE_EQ(rows[0].mask_rate(), 1.0);
  EXPECT_DOUBLE_EQ(rows[0].failure_rate(), 0.0);

  EXPECT_EQ(rows[1].rejected, 1u);
  EXPECT_EQ(rows[1].rounds, 2u);
  EXPECT_DOUBLE_EQ(rows[1].failure_rate(), 1.0);

  EXPECT_EQ(rows[2].stragglers_cancelled, 1u);
  EXPECT_DOUBLE_EQ(rows[2].straggler_cancel_rate(), 1.0 / 3.0);
}

TEST(TracetoolAttribution, FaultClassMirrorsTable2) {
  EXPECT_EQ(fault_class_of("nvp"), "development");
  EXPECT_EQ(fault_class_of("recovery_blocks"), "development");
  EXPECT_EQ(fault_class_of("self_checking"), "development");
  EXPECT_EQ(fault_class_of("process_replicas"), "malicious");
  EXPECT_EQ(fault_class_of("nvariant_data"), "malicious");
  EXPECT_EQ(fault_class_of("checkpoint_recovery"), "Heisenbugs");
  EXPECT_EQ(fault_class_of("microreboot"), "Heisenbugs");
  EXPECT_EQ(fault_class_of("not_a_technique"), "—");
}

TEST(TracetoolLatency, DecomposesCriticalPathPerPattern) {
  const auto rows = critical_path(make_trace());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].pattern, "nvp");
  EXPECT_EQ(rows[1].pattern, "recovery_blocks");
  EXPECT_EQ(rows[2].pattern, "self_checking");

  // nvp: parent 1000..10000; variant window 2000..7000.
  EXPECT_EQ(rows[0].requests, 1u);
  EXPECT_EQ(rows[0].total_ns, 9'000u);
  EXPECT_EQ(rows[0].queue_ns, 1'000u);
  EXPECT_EQ(rows[0].variant_ns, 5'000u);
  EXPECT_EQ(rows[0].adjudication_ns, 3'000u);
  EXPECT_EQ(rows[0].variant_work_ns, 3'000u + 3'800 + 4'900);

  // recovery blocks: queue 1000, window 1000..6000, tail 2000.
  EXPECT_EQ(rows[1].queue_ns, 1'000u);
  EXPECT_EQ(rows[1].variant_ns, 5'000u);
  EXPECT_EQ(rows[1].adjudication_ns, 2'000u);

  // Decomposition tiles the parent span exactly for each request.
  for (const auto& r : rows) {
    EXPECT_EQ(r.queue_ns + r.variant_ns + r.adjudication_ns, r.total_ns)
        << r.pattern;
  }
}

TEST(TracetoolSlo, ErrorBudgetAccounting) {
  const SloReport report = slo_report(make_trace(), 99.0);
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_EQ(report.rows.back().technique, "overall");

  const SloRow& nvp = report.rows[0];
  EXPECT_DOUBLE_EQ(nvp.failure_rate, 0.0);
  EXPECT_DOUBLE_EQ(nvp.budget_consumed, 0.0);

  const SloRow& rb = report.rows[1];
  EXPECT_DOUBLE_EQ(rb.failure_rate, 1.0);
  EXPECT_NEAR(rb.budget_consumed, 100.0, 1e-9);

  const SloRow& overall = report.rows.back();
  EXPECT_EQ(overall.verdicts, 3u);
  EXPECT_EQ(overall.rejected, 1u);
  EXPECT_NEAR(overall.failure_rate, 1.0 / 3.0, 1e-12);
}

TEST(TracetoolMarkdown, RendersAllThreeReports) {
  const TraceData trace = make_trace();

  const std::string attribution = attribution_markdown(attribute(trace));
  EXPECT_NE(attribution.find("| technique | faults (Table 2) |"),
            std::string::npos);
  EXPECT_NE(attribution.find("| nvp | development | 1 | 1 | 1 | 0 |"),
            std::string::npos);
  EXPECT_NE(attribution.find("| recovery_blocks | development |"),
            std::string::npos);
  EXPECT_NE(attribution.find("| self_checking | development |"),
            std::string::npos);

  const std::string latency = latency_markdown(critical_path(trace));
  EXPECT_NE(latency.find("| nvp | 1 |"), std::string::npos);
  EXPECT_NE(latency.find("adjudication µs"), std::string::npos);

  const std::string slo = slo_markdown(slo_report(trace, 99.0));
  EXPECT_NE(slo.find("| nvp | 1 | 0 | 0.00% | 0.00% | within budget |"),
            std::string::npos);
  EXPECT_NE(slo.find("EXHAUSTED"), std::string::npos);
  EXPECT_NE(slo.find("| overall | 3 | 1 |"), std::string::npos);
}

TEST(TracetoolFlight, LoadsSortsAndKeepsTheLastHeader) {
  std::istringstream in{
      "{\"type\":\"flight_header\",\"threads\":1,\"records_per_thread\":64,"
      "\"dropped\":0,\"t_dump_ns\":100}\n"
      "{\"type\":\"flight\",\"kind\":\"mark\",\"t_ns\":90,\"trace\":0,"
      "\"name\":\"early\",\"a\":1,\"b\":0,\"ok\":true,\"thread\":0}\n"
      // A second generation appended by a later crash dump: its header wins.
      "{\"type\":\"flight_header\",\"threads\":2,\"records_per_thread\":64,"
      "\"dropped\":3,\"t_dump_ns\":500}\n"
      "{\"type\":\"flight\",\"kind\":\"gateway\",\"t_ns\":400,\"trace\":7,"
      "\"name\":\"/vote\",\"a\":503,\"b\":120000,\"ok\":false,\"thread\":1}\n"
      "{\"type\":\"flight\",\"kind\":\"span\",\"t_ns\":200,\"trace\":7,"
      "\"name\":\"nvp.run\",\"a\":1000,\"b\":4,\"ok\":true,\"thread\":0}\n"
      "{\"type\":\"flight\",\"kind\":\"mark\",\"t_ns\":2"  // torn record
      "\n"
      "{\"type\":\"slo_window\",\"class\":\"x\"}\n"};  // wrong schema
  FlightDump dump;
  load_flight(in, dump);

  EXPECT_EQ(dump.headers, 2u);
  EXPECT_EQ(dump.threads, 2u);
  EXPECT_EQ(dump.dropped, 3u);
  EXPECT_EQ(dump.malformed_lines, 1u);
  EXPECT_EQ(dump.unknown_records, 1u);
  ASSERT_EQ(dump.events.size(), 3u);
  // Time-sorted regardless of file (dump-generation) order.
  EXPECT_EQ(dump.events[0].name, "early");
  EXPECT_EQ(dump.events[1].name, "nvp.run");
  EXPECT_EQ(dump.events[2].name, "/vote");
  EXPECT_EQ(dump.events[2].a, 503u);
  EXPECT_FALSE(dump.events[2].ok);

  const std::string md = flight_markdown(dump, 2);
  EXPECT_NE(md.find("3 across 2 thread ring(s)"), std::string::npos);
  EXPECT_NE(md.find("3 dropped over thread cap"), std::string::npos);
  EXPECT_NE(md.find("torn records are expected"), std::string::npos);
  EXPECT_NE(md.find("Last 2 events"), std::string::npos);
  // The tail keeps the newest events; the oldest one falls off.
  EXPECT_NE(md.find("| /vote |"), std::string::npos);
  EXPECT_EQ(md.find("| early |"), std::string::npos);
}

TEST(TracetoolFlight, EmptyDumpRendersPlaceholder) {
  FlightDump dump;
  EXPECT_NE(flight_markdown(dump, 8).find("_no flight events_"),
            std::string::npos);
}

TEST(TracetoolSloSnapshot, LoadsWindowsClassesAndFiringAlerts) {
  std::istringstream in{
      "{\"type\":\"slo_window\",\"class\":\"/vote\",\"window\":\"10s\","
      "\"window_s\":10,\"total\":100,\"errors\":40,\"error_rate\":0.4,"
      "\"burn_rate\":400,\"p50_ns\":1000000,\"p95_ns\":2000000,"
      "\"p99_ns\":150000000}\n"
      "{\"type\":\"slo_class\",\"class\":\"/vote\",\"latency_slo_ns\":5000000,"
      "\"availability\":0.999,\"state\":\"failing\",\"total\":1000,"
      "\"errors\":40,\"budget_allowed\":0.001,\"budget_consumed\":40,"
      "\"last_transition_ns\":123,\"alert_fast_burn\":true,"
      "\"alert_slow_burn\":false}\n"
      "garbage\n"};
  SloSnapshot snapshot;
  load_slo_snapshot(in, snapshot);

  EXPECT_EQ(snapshot.malformed_lines, 1u);
  ASSERT_EQ(snapshot.windows.size(), 1u);
  const SloWindowRow& w = snapshot.windows[0];
  EXPECT_EQ(w.request_class, "/vote");
  EXPECT_EQ(w.window, "10s");
  EXPECT_EQ(w.total, 100u);
  EXPECT_DOUBLE_EQ(w.error_rate, 0.4);
  EXPECT_DOUBLE_EQ(w.burn_rate, 400.0);
  EXPECT_DOUBLE_EQ(w.p99_ns, 150000000.0);

  ASSERT_EQ(snapshot.classes.size(), 1u);
  const SloClassRow& c = snapshot.classes[0];
  EXPECT_EQ(c.state, "failing");
  EXPECT_EQ(c.latency_slo_ns, 5000000u);
  ASSERT_EQ(c.firing.size(), 1u);  // only the true alert_ key survives
  EXPECT_EQ(c.firing[0], "fast_burn");

  const std::string md = slo_snapshot_markdown(snapshot);
  EXPECT_NE(md.find("## Classes"), std::string::npos);
  EXPECT_NE(md.find("## Windows"), std::string::npos);
  EXPECT_NE(md.find("| /vote | failing |"), std::string::npos);
  EXPECT_NE(md.find("fast_burn"), std::string::npos);
}

TEST(TracetoolSloSnapshot, EmptySnapshotRendersPlaceholders) {
  SloSnapshot snapshot;
  const std::string md = slo_snapshot_markdown(snapshot);
  EXPECT_NE(md.find("_no slo_class records_"), std::string::npos);
  EXPECT_NE(md.find("_no slo_window records_"), std::string::npos);
}

TEST(TracetoolMarkdown, EmptyTraceRendersPlaceholders) {
  const TraceData trace;
  EXPECT_NE(attribution_markdown(attribute(trace))
                .find("_no adjudication events in trace_"),
            std::string::npos);
  EXPECT_NE(latency_markdown(critical_path(trace))
                .find("_no pattern spans in trace_"),
            std::string::npos);
}

}  // namespace
}  // namespace redundancy::tracetool
