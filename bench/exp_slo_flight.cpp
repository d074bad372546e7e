// E23: live SLO engine + crash flight recorder gating experiment.
//
// Three gates, all on the real production pipeline (SloTracker ->
// snapshot_jsonl -> tracetool loaders; FlightRecorder -> crash handler ->
// tracetool loaders):
//
//   A. Reaction: under an injected fault burst, the windowed p99 and the
//      multi-window burn rate must react within ONE window rotation (the
//      page-level fast_burn rule fires, the class goes failing, the
//      engine's health view reads failing for it) while the cumulative p99
//      stays flat — the whole point of windowing over cumulative-since-boot
//      metrics.
//   B. Black box: a forked child installs the crash handler, leaves
//      breadcrumbs, and dies on SIGSEGV from a store to a PROT_NONE page.
//      The parent must find an appended dump that tracetool parses, holding
//      exactly one ring of the newest crumbs. Runs FIRST, before any
//      threads exist in this process.
//   C. Overhead: slo.observe() + flight record() on a request-shaped
//      workload (~10 us bodies — an order of magnitude below the cheapest
//      gateway route) must cost < 5%, with the rotation thread running.
//
// Also emits BENCH_exp_slo_flight.json (bench_compare.py schema) with
// tight-loop throughput series for the three new hot-path primitives, plus
// the slo_snapshot.jsonl / flight_crash.dump.jsonl artifacts.
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/windowed.hpp"
#include "tracetool/trace_model.hpp"

using namespace redundancy;

namespace {

constexpr std::uint64_t kSec = 1'000'000'000ull;
constexpr std::uint64_t kMs = 1'000'000ull;
constexpr double kBudgetPct = 5.0;

// ---------------------------------------------------------------- Part B --

constexpr const char* kCrashDump = "flight_crash.dump.jsonl";

/// Fork a child that breadcrumbs then SIGSEGVs; parse what the crash
/// handler appended. Must run before this process spawns any threads.
bool run_crash_box(std::string& detail) {
  std::remove(kCrashDump);
  const pid_t pid = fork();
  if (pid < 0) {
    detail = "fork failed";
    return false;
  }
  if (pid == 0) {
    auto& fr = obs::FlightRecorder::instance();
    fr.enable(256);
    fr.install_crash_handler(kCrashDump);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      fr.record(obs::FlightKind::mark, "crumb", 0, i, 0, true);
    }
    // A mapped-but-inaccessible page rather than a null pointer: a null
    // store is undefined behaviour, which UBSan stops before it can fault.
    void* page = mmap(nullptr, 4096, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
    if (page == MAP_FAILED) _exit(3);
    volatile int* boom = static_cast<int*>(page);
    *boom = 1;  // SIGSEGV -> handler appends dump -> re-raise
    _exit(0);   // not reached
  }

  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFSIGNALED(status) ||
      WTERMSIG(status) != SIGSEGV) {
    detail = "child did not die by SIGSEGV";
    return false;
  }
  std::ifstream in{kCrashDump};
  if (!in.is_open()) {
    detail = "no dump file appeared";
    return false;
  }
  tracetool::FlightDump dump;
  tracetool::load_flight(in, dump);
  std::size_t crumbs = 0;
  std::uint64_t max_a = 0;
  for (const auto& e : dump.events) {
    if (e.kind == "mark" && e.name == "crumb") {
      ++crumbs;
      if (e.a > max_a) max_a = e.a;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu crumbs (ring %llu), newest payload %llu, "
                "%zu malformed line(s)",
                crumbs,
                static_cast<unsigned long long>(dump.records_per_thread),
                static_cast<unsigned long long>(max_a), dump.malformed_lines);
  detail = buf;
  // The child wrote 1000 crumbs into a 256-slot ring: the dump must hold
  // exactly one ring of the newest ones. Torn records are tolerated but a
  // crash dump of a quiesced child should not produce any.
  return crumbs == dump.records_per_thread && max_a == 999 &&
         dump.malformed_lines == 0;
}

// ---------------------------------------------------------------- Part A --

struct ReactionResult {
  bool pass = false;
  double windowed_p99_before_ms = 0, windowed_p99_after_ms = 0;
  double cumulative_p99_after_ms = 0;
  double burn_10s = 0;
  std::string state_after;
  std::vector<std::string> firing;
  bool health_failing = false;
  int breaches = 0;
};

const tracetool::SloWindowRow* find_window(const tracetool::SloSnapshot& snap,
                                           const std::string& window) {
  for (const auto& w : snap.windows) {
    if (w.window == window) return &w;
  }
  return nullptr;
}

tracetool::SloSnapshot parse_snapshot(obs::SloTracker& slo,
                                      std::uint64_t now) {
  std::istringstream in{slo.snapshot_jsonl(now)};
  tracetool::SloSnapshot snap;
  tracetool::load_slo_snapshot(in, snap);
  return snap;
}

/// 10 minutes of healthy 1000 req/s at 1 ms, then one epoch where every
/// request fails slow (20 ms) — all with synthetic 1 s epochs.
ReactionResult run_reaction() {
  ReactionResult r;
  obs::SloTracker::Options options;
  options.epoch_ns = kSec;
  options.slots = 3700;
  obs::SloTracker slo{options};
  slo.register_class("api", {5 * kMs, 0.999});
  slo.set_breach_callback(
      [&r](const std::string&, const std::string&) { ++r.breaches; });

  std::uint64_t now = 0;
  for (int epoch = 1; epoch <= 600; ++epoch) {
    for (int i = 0; i < 1000; ++i) slo.observe("api", 1 * kMs, true);
    now = std::uint64_t(epoch) * kSec;
    slo.tick(now);
  }
  const tracetool::SloSnapshot before = parse_snapshot(slo, now);
  if (const auto* w = find_window(before, "10s")) {
    r.windowed_p99_before_ms = w->p99_ns / 1e6;
  }

  // The burst: one epoch of total outage, then ONE rotation.
  for (int i = 0; i < 1000; ++i) slo.observe("api", 20 * kMs, false);
  now += kSec;
  slo.tick(now);

  const tracetool::SloSnapshot after = parse_snapshot(slo, now);
  const auto* w10 = find_window(after, "10s");
  if (w10 != nullptr) {
    r.windowed_p99_after_ms = w10->p99_ns / 1e6;
    r.burn_10s = w10->burn_rate;
  }
  if (!after.classes.empty()) {
    r.state_after = after.classes[0].state;
    r.firing = after.classes[0].firing;
  }
  for (const obs::HealthRow& row : slo.health(now).rows) {
    if (row.name == "slo:api") {
      r.health_failing = row.state == obs::SloState::failing;
    }
  }
  // Cumulative view over the same metric: 601k samples, 1k of them slow.
  const obs::HistogramSnapshot cumulative =
      obs::MetricsRegistry::instance()
          .histogram("slo.latency_ns", "api")
          .snapshot();
  r.cumulative_p99_after_ms = cumulative.percentile(99.0) / 1e6;

  bool fast_burn_firing = false;
  for (const auto& f : r.firing) fast_burn_firing |= (f == "fast_burn");
  r.pass = r.windowed_p99_after_ms > 10.0 &&       // window sees the burst
           r.cumulative_p99_after_ms < 3.0 &&      // cumulative does not
           r.burn_10s > obs::kBurnRules[0].threshold &&
           r.state_after == "failing" && fast_burn_firing &&
           r.health_failing && r.breaches == 1;
  return r;
}

// ---------------------------------------------------------------- Part C --

/// ~10 us of real work: the floor of a request body behind the gateway.
int busy_request(int x) {
  const std::uint64_t t0 = obs::now_ns();
  int acc = x;
  while (obs::now_ns() - t0 < 10'000) {
    acc = acc * 1664525 + 1013904223;
  }
  return acc >= 0 ? x + 1 : x + 1;
}

constexpr std::size_t kRequests = 5'000;
constexpr std::size_t kWarmup = 500;
constexpr int kRounds = 5;

template <typename Fn>
double measure(Fn&& per_request) {
  double best = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kWarmup; ++i) per_request(int(i));
    const std::uint64_t t0 = obs::now_ns();
    for (std::size_t i = 0; i < kRequests; ++i) per_request(int(i));
    const double mean = double(obs::now_ns() - t0) / double(kRequests);
    if (round == 0 || mean < best) best = mean;
  }
  return best;
}

struct OverheadResult {
  double base_ns = 0, instrumented_ns = 0, pct = 0;
  bool pass = false;
};

OverheadResult run_overhead() {
  OverheadResult r;
  r.base_ns = measure([](int x) { (void)busy_request(x); });

  obs::SloTracker slo;                     // production cadence options
  slo.register_class("bench", {5 * kMs, 0.999});
  slo.start(100 * kMs);                    // rotation thread, 100 ms epochs
  obs::FlightRecorder::instance().enable(1024);
  const std::string cls = "bench";         // gateway passes a stored string
  r.instrumented_ns = measure([&slo, &cls](int x) {
    const std::uint64_t t0 = obs::now_ns();
    (void)busy_request(x);
    const std::uint64_t latency = obs::now_ns() - t0;
    slo.observe(cls, latency, true);
    obs::FlightRecorder::instance().record(obs::FlightKind::gateway, cls, 0,
                                           200, latency, true);
  });
  slo.stop();
  obs::FlightRecorder::instance().disable();

  r.pct = r.base_ns > 0.0
              ? (r.instrumented_ns - r.base_ns) / r.base_ns * 100.0
              : 0.0;
  r.pass = r.pct < kBudgetPct;
  return r;
}

// ------------------------------------------------------- throughput series --

struct Series {
  std::string name;
  double ops_per_sec = 0, mean_ns = 0;
  std::size_t repetitions = 0;
};

template <typename Fn>
Series time_series(const std::string& name, std::size_t reps, Fn&& op) {
  Series s;
  s.name = name;
  s.repetitions = reps;
  double best_total = 0.0;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t t0 = obs::now_ns();
    for (std::size_t i = 0; i < reps; ++i) op(i);
    const double total = double(obs::now_ns() - t0);
    if (round == 0 || total < best_total) best_total = total;
  }
  s.mean_ns = best_total / double(reps);
  s.ops_per_sec = s.mean_ns > 0.0 ? 1e9 / s.mean_ns : 0.0;
  return s;
}

std::vector<Series> run_series() {
  std::vector<Series> all;

  obs::SloTracker::Options options;
  options.epoch_ns = kSec;
  options.slots = 361;
  obs::SloTracker slo{options};
  slo.register_class("series", {5 * kMs, 0.999});
  const std::string cls = "series";
  all.push_back(time_series("slo_observe", 1'000'000, [&slo, &cls](size_t i) {
    slo.observe(cls, (i & 1023) * 1000, true);
  }));

  auto& fr = obs::FlightRecorder::instance();
  fr.enable(1024);
  all.push_back(time_series("flight_record", 1'000'000, [&fr](std::size_t i) {
    fr.record(obs::FlightKind::mark, "series", 0, i, 0, true);
  }));
  fr.disable();

  // Window query over a fully-populated 1m window of 1 s epochs: the /slo
  // read path (merge K epoch deltas + live partial, then percentile).
  obs::Histogram hist;
  obs::WindowedHistogram wh{hist, {kSec, 361}};
  for (std::uint64_t epoch = 1; epoch <= 361; ++epoch) {
    for (int i = 0; i < 100; ++i) hist.record((i + 1) * 1000);
    wh.rotate(epoch * kSec);
  }
  all.push_back(time_series("window_query_1m", 100'000, [&wh](std::size_t) {
    const obs::HistogramSnapshot w = wh.window(60 * kSec, 361 * kSec);
    if (w.percentile(99.0) < 0.0) std::abort();  // keep the work observable
  }));
  return all;
}

void write_json(const std::vector<Series>& all) {
  const char* path = "BENCH_exp_slo_flight.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_slo_flight: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"binary\": \"exp_slo_flight\",\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& s : all) {
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"ops_per_sec\": %.3f, "
                 "\"latency_ns_mean\": %.1f, \"repetitions\": %zu, "
                 "\"threads\": 1}",
                 first ? "" : ",\n", s.name.c_str(), s.ops_per_sec, s.mean_ns,
                 s.repetitions);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  std::printf("E23. Live SLO engine + crash flight recorder\n\n");

  // B first: fork before any thread exists in this process.
  std::string crash_detail;
  const bool crash_ok = run_crash_box(crash_detail);
  std::printf("B. crash black box: %s -> %s\n", crash_detail.c_str(),
              crash_ok ? "PASS" : "FAIL");

  const ReactionResult reaction = run_reaction();
  std::printf(
      "A. fault-burst reaction (1 s epochs, 600 healthy + 1 outage):\n");
  std::printf("   windowed p99(10s)  %8.2f ms -> %8.2f ms\n",
              reaction.windowed_p99_before_ms, reaction.windowed_p99_after_ms);
  std::printf("   cumulative p99     %8.2f ms (must stay flat)\n",
              reaction.cumulative_p99_after_ms);
  std::printf("   burn(10s) %.1f, state '%s', health view failing %s, "
              "breach callbacks %d -> %s\n",
              reaction.burn_10s, reaction.state_after.c_str(),
              reaction.health_failing ? "yes" : "no", reaction.breaches,
              reaction.pass ? "PASS" : "FAIL");

  const OverheadResult overhead = run_overhead();
  std::printf("C. observe+record overhead on %zu x ~10 us requests "
              "(best of %d):\n", kRequests, kRounds);
  std::printf("   %10.1f ns -> %10.1f ns  (%+.2f%%, budget < %.1f%%) -> %s\n",
              overhead.base_ns, overhead.instrumented_ns, overhead.pct,
              kBudgetPct, overhead.pass ? "PASS" : "FAIL");

  const std::vector<Series> series = run_series();
  for (const auto& s : series) {
    std::printf("   %-18s %12.0f ops/s  (%.1f ns/op)\n", s.name.c_str(),
                s.ops_per_sec, s.mean_ns);
  }
  write_json(series);

  // Artifact: the snapshot the /slo route would serve for this process.
  {
    obs::SloTracker slo;
    slo.register_class("artifact", {5 * kMs, 0.999});
    for (int i = 0; i < 100; ++i) slo.observe("artifact", 1 * kMs, true);
    slo.tick(obs::now_ns());
    std::ofstream out{"slo_snapshot.jsonl"};
    out << slo.snapshot_jsonl(obs::now_ns());
    std::printf("wrote slo_snapshot.jsonl and %s\n", kCrashDump);
  }

  const bool pass = crash_ok && reaction.pass && overhead.pass;
  std::printf("\noverall: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
