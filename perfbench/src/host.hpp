// Host fingerprint and process accounting. Absolute figures are only
// comparable between runs whose fingerprints match, so every result
// carries one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench::host {

/// CPU time and context switches, from getrusage.
struct Usage {
  double cpu_us = 0.0;          ///< user + system
  std::uint64_t switches = 0;   ///< voluntary + involuntary
};

[[nodiscard]] Usage process_usage();
/// The calling thread only (RUSAGE_THREAD).
[[nodiscard]] Usage thread_usage();
/// Peak resident set size of the process so far, in MB.
[[nodiscard]] double rss_peak_mb();

/// The program configuration the benchmark ran against, as resolved at run
/// time (the benchmark sets none of it).
struct Resolved {
  std::size_t pool_threads = 0;
  std::size_t gateway_loops = 0;  ///< 0 when the workload has no gateway
  std::string backend;            ///< event-loop backend, "" without gateway
};

/// One JSON object: nproc, kernel, compiler, build type, the resolved
/// program configuration, RLIMIT_NOFILE and the io_uring probe result.
[[nodiscard]] std::string fingerprint_json(const Resolved& resolved);

}  // namespace perfbench::host
