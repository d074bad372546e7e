// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <serve_echo|serve_redundant|campaign_nvp>
//                    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// stdout: one "note ..." line per observation, one "metric <name> <value>
// <unit>" line per metric, a "host {...}" fingerprint line, and last one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set.
// The same result, with the fingerprint and the notes, is also written to
// <out>/<workload>.result.json.
// Exit status 1 when any answer differs from the prediction (or the
// campaign report from its serial reference), 2 on bad arguments. A run
// whose measurements could not be trusted (the host starved the load
// generator) still exits 0; its notes and result file say "INVALID".
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},         {"rss_peak_mb", "MB"},
    {"p50_us", "us"},         {"cpu_us_per_req", "us"},
    {"max_rate_rps", "req/s"},
};

constexpr MetricName kSelfTimes[] = {
    {"self.gen_request_us", "us"},     {"self.gen_lag_us", "us"},
    {"self.route_handler_us", "us"},   {"self.route_lock_wait_us", "us"},
    {"self.core_run_us", "us"},        {"self.core_variant_us", "us"},
    {"self.core_voter_us", "us"},      {"self.campaign_system_us", "us"},
};

// p99_us is measured like p50_us, in the untraced window of the traced
// run. Its run-to-run spread on a shared host is wider than any bound the
// end-to-end set may carry, so it is reported here, unbounded.
constexpr MetricName kPerLayer[] = {
    {"p99_us", "us"},
    {"gen.lag_us_p99", "us"},
    {"gen.backlog_max", "count"},
    {"net.inbound_us_p50", "us"},
    {"net.inbound_us_p99", "us"},
    {"net.outbound_us_p50", "us"},
    {"net.outbound_us_p99", "us"},
    {"net.server_us_p50", "us"},
    {"net.sends_per_response", "ratio"},
    {"net.enters_per_response", "ratio"},
    {"net.errors", "count"},
    {"net.parse_ns_p50", "ns"},
    {"pool.fanout_us_p50", "us"},
    {"pool.fanout_us_p99", "us"},
    {"pool.batch3_external_ns_p50", "ns"},
    {"pool.batch3_worker_ns_p50", "ns"},
    {"proc.ctx_switches_per_req", "ratio"},
    {"core.route_lock_wait_us_p99", "us"},
    {"core.vote_run_us_p50", "us"},
    {"core.vote_run_us_p99", "us"},
    {"core.voter_ns_p50", "ns"},
    {"core.voter_probe_ns_p50", "ns"},
    {"core.variant_ns_p50", "ns"},
    {"core.fast_run_us_p50", "us"},
    {"core.fast_run_us_p99", "us"},
    {"core.fast_execs_per_req", "ratio"},
    {"core.hedges_per_miss", "ratio"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_evictions_per_miss", "ratio"},
    {"core.cache_coalesced", "count"},
    {"core.cache_hit_ns_p50", "ns"},
    {"campaign.system_ns_p50", "ns"},
    {"campaign.system_ns_p99", "ns"},
    {"campaign.overhead_share", "ratio"},
    {"campaign.shard_skew", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.untiled_share", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_echo|serve_redundant|campaign_nvp> --seed <n> --seconds "
               "<1..600> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void put_self_times(RunResult& out, const std::vector<double>& self_us) {
  for (std::size_t i = 0; i < self_us.size() && i < std::size(kSelfTimes); ++i) {
    out.values[kSelfTimes[i].name] = self_us[i];
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && options.seconds >= 1.0 &&
                     options.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const bool serve =
      options.workload == "serve_echo" || options.workload == "serve_redundant";
  if (!serve && options.workload != "campaign_nvp") return usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  RunResult result;
  try {
    result = serve ? run_serve(options) : run_campaign(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& note : result.notes) std::printf("note %s\n", note.c_str());
  std::string metrics;
  auto emit = [&](const MetricName& m) {
    const auto it = result.values.find(m.name);
    const double v = it == result.values.end() ? 0.0 : it->second;
    std::printf("metric %s %s %s\n", m.name, number(v).c_str(), m.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string{"\""} + m.name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricName& m : kPerLayer) emit(m);
    for (const MetricName& m : kSelfTimes) emit(m);
  } else {
    for (const MetricName& m : kEndToEnd) {
      if (result.values.count(m.name) == 0) {
        std::fprintf(stderr, "perfbench: %s not measured\n", m.name);
        result.correct = false;
      }
      emit(m);
    }
  }
  std::printf("metric failed_share %s ratio (%zu of %zu requests)\n",
              number(failed_share(result.failed, result.attempted)).c_str(),
              result.failed, result.attempted);
  std::printf("host %s\n", result.host_json.c_str());
  char head[160];
  std::snprintf(head, sizeof head, "\"correct\": %s, \"attempted\": %zu, \"failed\": %zu",
                result.correct ? "true" : "false", result.attempted, result.failed);
  const std::string verdict = std::string{"{"} + head + ", \"metrics\": {" + metrics + "}}";

  // The full record of the run, fingerprint included, beside the traces.
  std::string notes;
  for (const std::string& note : result.notes) {
    notes += (notes.empty() ? "" : ", ") + quoted(note);
  }
  const std::string record_path = options.out_dir + "/" + options.workload + ".result.json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
                 "\"host\": %s, %s, \"valid\": %s, \"metrics\": {%s}, \"notes\": [%s]}\n",
                 quoted(options.workload).c_str(),
                 static_cast<unsigned long long>(options.seed),
                 number(options.seconds).c_str(), options.trace ? 1 : 0,
                 result.host_json.c_str(), head, result.valid ? "true" : "false",
                 metrics.c_str(), notes.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", verdict.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
