// One-call wiring of live telemetry for examples, benches and experiment
// drivers, driven entirely by environment variables so every binary stays
// opt-in and zero-cost by default:
//
//   REDUNDANCY_OBS_HTTP_PORT   start a 1-loop ops net::Gateway on
//                              127.0.0.1:<port> (decimal 0..65535; 0 or an
//                              invalid value = ephemeral; the chosen port is
//                              printed). Serves /metrics, /healthz and /slo
//                              (the SLO engine's health view and snapshot),
//                              /traces?n=K (from a RingTraceSink, default 32
//                              lines), and /debug/flight when the flight
//                              recorder is on. Its gateway.* series carry
//                              the label server="ops".
//   REDUNDANCY_OBS_TRACE_FILE  also append every record to this JSONL file
//                              (tools/tracetool input).
//   REDUNDANCY_OBS_SAMPLE      root-span sampling divisor (default 1).
//   REDUNDANCY_OBS_HTTP_LINGER_MS
//                              how long linger_from_env() sleeps before the
//                              process exits, so scrapers can hit the
//                              endpoints after the workload finished.
//   REDUNDANCY_SLO_TARGETS     per-class SLOs as class=latency_ms@avail_pct
//                              (e.g. "process_replicas=50@99"):
//                              registers the classes and feeds the engine
//                              the recorder's spans, which score the classes
//                              named after them. Each class adds a
//                              slo:<class> row to /healthz and exports
//                              windowed burn-rate/error/percentile gauges.
//   REDUNDANCY_SLO_EPOCH_MS    SLO engine window rotation period (default
//                              10000).
//   REDUNDANCY_FLIGHT_DUMP     enable the obs::FlightRecorder black box,
//                              install the crash handler appending to this
//                              path, serve /debug/flight, and dump on SLO
//                              breach.
//   REDUNDANCY_FLIGHT_RING     flight records per thread (default 1024).
//
// Related (read by net::Gateway, not by this helper):
//   REDUNDANCY_GATEWAY_LOOPS   reactor loop count for gateway hosts
//                              (default min(cores/2, 8), floor 1); each loop
//                              exports its own loop="N"-labelled gateway.*
//                              metric shards through /metrics.
//
// Setting the port, the trace file, the SLO targets or the flight dump
// enables the recorder for the process lifetime and starts the one
// obs::SloTracker, whose health view windows every technique's exact
// verdict counters. With none of those set, start_live_telemetry_from_env()
// returns nullptr and nothing changes.
#pragma once

#include <memory>

#include "obs/sink.hpp"
#include "obs/slo.hpp"

namespace redundancy::net {
class Gateway;
}  // namespace redundancy::net

namespace redundancy::core {

/// Owns the wired-up telemetry; destroying it stops the SLO engine, flushes
/// the recorder and stops the ops gateway (sinks stay attached — the
/// Recorder is process-wide and the process is exiting anyway).
struct LiveTelemetry {
  std::shared_ptr<obs::RingTraceSink> ring;
  std::shared_ptr<obs::JsonlTraceSink> trace_file;
  std::shared_ptr<obs::SloTracker> slo;
  std::unique_ptr<net::Gateway> http;

  ~LiveTelemetry();
};

/// Wire up whatever the REDUNDANCY_OBS_* environment asks for; nullptr when
/// none of it is set.
std::unique_ptr<LiveTelemetry> start_live_telemetry_from_env();

/// Sleep REDUNDANCY_OBS_HTTP_LINGER_MS milliseconds (0/unset: return at
/// once) so a scraper can reach the endpoints after the workload is done.
void linger_from_env();

}  // namespace redundancy::core
