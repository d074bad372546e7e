// Shared pieces of the benchmark binary: run options, the result every
// workload returns, and the isolated layer probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< span JSONL goes here
};

struct RunResult {
  /// Every answer was the predicted one (and every campaign report equal to
  /// its serial reference).
  bool correct = true;
  /// Every measurement could be trusted. A host that starves the generator
  /// can make a run invalid without any answer being wrong; the notes say
  /// which window.
  bool valid = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Metric values by name; names and units are fixed in main.cpp. A
  /// per-layer metric whose layer the workload does not exercise is absent
  /// and reported as 0.
  std::map<std::string, double> values;
  /// Human-readable lines printed before the result (sample counts,
  /// counter deltas, the ladder's steps).
  std::vector<std::string> notes;
  std::string host_json;
};

/// Setup is repeated this many times per run and the median reported.
inline constexpr int kSetupRepeats = 15;
/// Untimed warm-up before any measured window.
inline constexpr double kWarmupSeconds = 0.5;
/// Requests whose spans go to the JSONL trace file of a traced run.
inline constexpr std::size_t kJsonlRequests = 20000;

[[nodiscard]] RunResult run_serve(const RunOptions& options);
[[nodiscard]] RunResult run_campaign(const RunOptions& options);

/// printf-style note line.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// (traced − untraced) / untraced, the extra time tracing costs.
[[nodiscard]] inline double overhead_share(double traced, double untraced) {
  return untraced > 0.0 ? (traced - untraced) / untraced : 0.0;
}

/// Store the self-time means of a span summary as self.<span>_us values.
void put_self_times(RunResult& out, const std::vector<double>& self_us);

// Isolated layer probes (traced runs only). Each returns the median of
// kProbeSamples individually timed calls, in ns.
inline constexpr std::size_t kProbeSamples = 2000;

/// util::BatchRunner::run_and_wait of 3 empty tasks from a thread that is
/// not a pool worker.
[[nodiscard]] double probe_batch3_external_ns();
/// The same from inside a task running on a pool worker.
[[nodiscard]] double probe_batch3_worker_ns();
/// core::majority_voter on the 3 ballots the voting versions produce for
/// each of `keys`.
[[nodiscard]] double probe_voter_ns(const std::vector<model::Key>& keys);
/// RedundancyCache::get_or_run on a resident key.
[[nodiscard]] double probe_cache_hit_ns(model::Key key);
/// net::http::parse_request on each of `requests` (exact wire bytes).
[[nodiscard]] double probe_parse_ns(const std::vector<std::string>& requests);

}  // namespace perfbench
