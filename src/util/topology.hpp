// Thread placement. The only topology decision the program makes is where
// a thread runs: with more than one gateway loop, reactor i pins itself to
// CPU i % cpus, and the benchmark pins its load generator off the server's
// cores. Pool workers are not pinned and steal order does not model
// caches: on the served traffic that bought nothing (EXPERIMENTS.md E21).
#pragma once

#include <cstddef>

namespace redundancy::util {

/// Best-effort affinity pin of the calling thread to `cpu`. Returns false
/// (and changes nothing) off Linux, on masked cpusets, or when the kernel
/// refuses — pinning is an optimization, never a requirement.
bool pin_current_thread_to_cpu(std::size_t cpu) noexcept;

}  // namespace redundancy::util
