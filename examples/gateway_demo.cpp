// gateway_demo: a long-running net::Gateway host for end-to-end drills —
// the demo routes (/fast hedged+cached, /vote 3-variant majority, /echo,
// /big) plus the in-process /metrics, /healthz, /slo and /debug/flight,
// served until SIGTERM or SIGINT. This is what the gateway-e2e CI job
// curls against.
//
// Environment:
//   REDUNDANCY_GATEWAY_PORT       listen port (default 8217)
//   REDUNDANCY_GATEWAY_LINGER_MS  exit after this long even without a
//                                 signal (default: run until signalled)
//   REDUNDANCY_SLO_TARGETS        per-route SLOs, class=latency_ms@avail_pct
//                                 (default "/fast=50@99,/vote=50@99"); the
//                                 tracker rotates windows, serves /slo, and
//                                 adds an slo:<route> row to /healthz
//   REDUNDANCY_SLO_EPOCH_MS       window rotation period (default 10000)
//   REDUNDANCY_FLIGHT_DUMP        enable the flight recorder, install the
//                                 crash handler appending to this path, and
//                                 dump there on a page-level SLO breach
//   REDUNDANCY_FLIGHT_RING        flight records per thread (default 1024)
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "net/gateway.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"

namespace {

std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(raw, nullptr, 10));
}

}  // namespace

int main() {
  using namespace redundancy;

  // SLO tracker over the demo routes; defaults keep the e2e drill honest
  // even with no environment set.
  const char* slo_spec = std::getenv("REDUNDANCY_SLO_TARGETS");
  if (slo_spec == nullptr || *slo_spec == '\0') {
    slo_spec = "/fast=50@99,/vote=50@99";
  }
  obs::SloTracker::Options slo_options;
  slo_options.epoch_ns =
      static_cast<std::uint64_t>(env_or("REDUNDANCY_SLO_EPOCH_MS", 10'000)) *
      1'000'000ull;
  obs::SloTracker slo{slo_options};
  for (const auto& [cls, target] : obs::parse_slo_targets(slo_spec)) {
    slo.register_class(cls, target);
  }

  const char* flight_path = std::getenv("REDUNDANCY_FLIGHT_DUMP");
  if (flight_path != nullptr && *flight_path != '\0') {
    auto& flight = obs::FlightRecorder::instance();
    flight.enable(env_or("REDUNDANCY_FLIGHT_RING", 1024));
    flight.install_crash_handler(flight_path);
    const std::string dump_path{flight_path};
    slo.set_breach_callback(
        [dump_path](const std::string& cls, const std::string& rule) {
          std::fprintf(stderr,
                       "gateway_demo: SLO breach on %s (%s); dumping flight "
                       "recorder -> %s\n",
                       cls.c_str(), rule.c_str(), dump_path.c_str());
          obs::FlightRecorder::instance().dump_to_path(dump_path.c_str());
        });
    std::fprintf(stderr, "gateway_demo: flight recorder on, crash dump -> %s\n",
                 flight_path);
  } else {
    // Always-on black box even without a dump path: /debug/flight works,
    // only the crash handler is left uninstalled.
    obs::FlightRecorder::instance().enable(
        env_or("REDUNDANCY_FLIGHT_RING", 1024));
  }
  // The demo patterns count their verdicts (technique.* in /metrics, the
  // technique rows of /healthz) only while obs is on.
  obs::Recorder::instance().set_enabled(true);
  slo.start();

  net::Gateway::Options options;
  options.conn.port =
      static_cast<std::uint16_t>(env_or("REDUNDANCY_GATEWAY_PORT", 8217));
  options.slo = &slo;
  net::Gateway gateway{options};
  net::install_demo_routes(gateway);
  if (!gateway.start()) {
    std::fprintf(stderr, "gateway_demo: failed to start on port %zu\n",
                 env_or("REDUNDANCY_GATEWAY_PORT", 8217));
    return 1;
  }
  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);
  std::printf("gateway_demo: serving on port %u with %zu reactor loop%s\n",
              gateway.port(), gateway.loops(),
              gateway.loops() == 1 ? "" : "s");
  std::fflush(stdout);

  const std::size_t linger_ms = env_or("REDUNDANCY_GATEWAY_LINGER_MS", 0);
  std::size_t elapsed_ms = 0;
  while (g_stop == 0 && (linger_ms == 0 || elapsed_ms < linger_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    elapsed_ms += 50;
  }
  gateway.stop();
  slo.stop();
  std::printf("gateway_demo: clean shutdown, jobs in flight: %zu\n",
              gateway.jobs_inflight());
  for (std::size_t loop = 0; loop < gateway.loops(); ++loop) {
    std::printf("gateway_demo: loop %zu jobs in flight: %zu\n", loop,
                gateway.jobs_inflight(loop));
  }
  return gateway.jobs_inflight() == 0 ? 0 : 1;
}
