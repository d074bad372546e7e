#include "util/topology.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace redundancy::util {

bool pin_current_thread_to_cpu(std::size_t cpu) noexcept {
#if defined(__linux__)
  if (cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace redundancy::util
