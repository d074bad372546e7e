#include "core/live_telemetry.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "net/gateway.hpp"
#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/signals.hpp"

namespace redundancy::core {

namespace {

/// getenv as a non-negative integer; `fallback` when unset or malformed.
long long env_ll(const char* name, long long fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* stop = nullptr;
  const long long v = std::strtoll(s, &stop, 10);
  if (stop == s || *stop != '\0' || v < 0) return fallback;
  return v;
}

/// Lines /traces returns when the scrape names no n=K.
constexpr std::size_t kDefaultTraceTail = 32;

/// REDUNDANCY_OBS_HTTP_PORT, parsed as strictly as REDUNDANCY_GATEWAY_LOOPS:
/// decimal 0..65535, anything else loudly replaced by an ephemeral port.
std::uint16_t port_from_env(const char* raw) {
  const std::optional<std::uint64_t> port = util::parse_decimal(raw, 0, 65535);
  if (port) return static_cast<std::uint16_t>(*port);
  std::fprintf(stderr,
               "obs: REDUNDANCY_OBS_HTTP_PORT='%s' is not a valid port "
               "(expected an integer in 0..65535); using an ephemeral port\n",
               raw);
  return 0;
}

}  // namespace

LiveTelemetry::~LiveTelemetry() {
  if (slo) slo->stop();
  obs::Recorder::instance().flush();
  if (http) http->stop();
}

std::unique_ptr<LiveTelemetry> start_live_telemetry_from_env() {
  const char* trace_path = std::getenv("REDUNDANCY_OBS_TRACE_FILE");
  const bool want_trace = trace_path != nullptr && *trace_path != '\0';
  const char* port_env = std::getenv("REDUNDANCY_OBS_HTTP_PORT");
  const bool want_http = port_env != nullptr && *port_env != '\0';
  const char* slo_spec = std::getenv("REDUNDANCY_SLO_TARGETS");
  const bool want_slo = slo_spec != nullptr && *slo_spec != '\0';
  const char* flight_path = std::getenv("REDUNDANCY_FLIGHT_DUMP");
  const bool want_flight = flight_path != nullptr && *flight_path != '\0';
  if (!want_trace && !want_http && !want_slo && !want_flight) return nullptr;

  // A scraper that hangs up mid-response must not SIGPIPE the process the
  // ops gateway is embedded in.
  util::ignore_sigpipe();

  auto telemetry = std::make_unique<LiveTelemetry>();
  auto& recorder = obs::Recorder::instance();

  if (want_trace) {
    telemetry->trace_file = std::make_shared<obs::JsonlTraceSink>(
        std::string{trace_path});
    if (telemetry->trace_file->is_open()) {
      recorder.add_sink(telemetry->trace_file);
    } else {
      std::fprintf(stderr, "obs: cannot open trace file %s\n", trace_path);
    }
  }

  if (want_flight) {
    // Black box on, crash handler appending to the requested path. The
    // recorder hook mirrors every span/verdict into the flight rings from
    // here on; the handler only ever *reads* them.
    auto& flight = obs::FlightRecorder::instance();
    flight.enable(static_cast<std::size_t>(
        env_ll("REDUNDANCY_FLIGHT_RING", 1024)));
    flight.install_crash_handler(flight_path);
    std::fprintf(stderr, "obs: flight recorder on, crash dump -> %s\n",
                 flight_path);
  }

  obs::SloTracker::Options slo_options;
  slo_options.epoch_ns = static_cast<std::uint64_t>(
      env_ll("REDUNDANCY_SLO_EPOCH_MS", 10'000)) * 1'000'000ull;
  telemetry->slo = std::make_shared<obs::SloTracker>(slo_options);
  if (want_slo) {
    for (const auto& [cls, target] : obs::parse_slo_targets(slo_spec)) {
      telemetry->slo->register_class(cls, target);
    }
    recorder.add_sink(telemetry->slo);
  }
  if (want_flight) {
    // A page-level breach flushes the black box even without a crash.
    const std::string dump_path{flight_path};
    telemetry->slo->set_breach_callback(
        [dump_path](const std::string& cls, const std::string& rule) {
          std::fprintf(stderr,
                       "obs: SLO breach on class %s (%s); dumping flight "
                       "recorder -> %s\n",
                       cls.c_str(), rule.c_str(), dump_path.c_str());
          obs::FlightRecorder::instance().dump_to_path(dump_path.c_str());
        });
  }
  telemetry->slo->start();

  recorder.set_sample_every(
      static_cast<std::uint64_t>(env_ll("REDUNDANCY_OBS_SAMPLE", 1)));
  recorder.set_enabled(true);

  if (want_http) {
    telemetry->ring = std::make_shared<obs::RingTraceSink>();
    recorder.add_sink(telemetry->ring);

    // A 1-loop gateway on the shared pool serves the ops routes: the
    // built-in /metrics, /healthz and /slo (from the SLO engine) and
    // /debug/flight, plus /traces below. Its own gateway.* series are
    // labelled apart from any serving gateway in the same process.
    net::Gateway::Options options;
    options.conn.port = port_from_env(port_env);
    options.conn.metric_label = "server=ops";
    options.loops = 1;
    options.slo = telemetry->slo.get();
    telemetry->http = std::make_unique<net::Gateway>(options);
    using Request = net::Gateway::Request;
    using Response = net::http::Response;
    const auto ring = telemetry->ring;
    telemetry->http->add_ops_route("/traces", [ring](const Request& req) {
      auto n = static_cast<std::size_t>(
          net::http::query_param(req.query, "n").value_or(0));
      if (n == 0) n = kDefaultTraceTail;
      obs::Recorder::instance().flush();
      std::string body;
      for (const auto& line : ring->tail(n)) {
        body += line;
        body += '\n';
      }
      return Response{200, "application/x-ndjson", std::move(body)};
    });

    if (telemetry->http->start()) {
      std::fprintf(stderr,
                   "obs: live telemetry on http://127.0.0.1:%u "
                   "(/metrics /healthz /slo /traces?n=K%s)\n",
                   static_cast<unsigned>(telemetry->http->port()),
                   obs::flight_enabled() ? " /debug/flight" : "");
    } else {
      std::fprintf(stderr,
                   "obs: could not start the telemetry gateway on port %u\n",
                   static_cast<unsigned>(options.conn.port));
      telemetry->http.reset();
    }
  }
  return telemetry;
}

void linger_from_env() {
  // Scrapers arriving during the linger want the final verdicts visible,
  // and a script waiting on the workload's last line wants it written.
  obs::Recorder::instance().flush();
  std::fflush(stdout);
  const long long ms = env_ll("REDUNDANCY_OBS_HTTP_LINGER_MS", 0);
  if (ms <= 0) return;
  std::fprintf(stderr, "obs: lingering %lld ms for scrapers\n", ms);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace redundancy::core
