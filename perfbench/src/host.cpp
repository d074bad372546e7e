#include "host.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>

#include "net/event_loop.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench::host {

namespace {

Usage usage_of(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

}  // namespace

Usage process_usage() { return usage_of(RUSAGE_SELF); }
Usage thread_usage() { return usage_of(RUSAGE_THREAD); }

double rss_peak_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string fingerprint_json(const Resolved& resolved) {
  utsname u{};
  const char* kernel = ::uname(&u) == 0 ? u.release : "unknown";
  rlimit nofile{};
  ::getrlimit(RLIMIT_NOFILE, &nofile);
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\":%ld,\"kernel\":\"%s\",\"compiler\":\"gcc %s\","
      "\"build_type\":\"%s\",\"pool_threads\":%zu,\"gateway_loops\":%zu,"
      "\"backend\":\"%s\",\"rlimit_nofile\":%llu,\"uring_probe\":%s}",
      ::sysconf(_SC_NPROCESSORS_ONLN), kernel, __VERSION__,
      PERFBENCH_BUILD_TYPE, resolved.pool_threads, resolved.gateway_loops,
      resolved.backend.c_str(),
      static_cast<unsigned long long>(nofile.rlim_cur),
      redundancy::net::EventLoop::uring_supported() ? "true" : "false");
  return buf;
}

}  // namespace perfbench::host
