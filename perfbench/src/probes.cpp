// Isolated layer probes: one public call of one layer, timed call by call
// on the workload's own inputs, with nothing else in the way.
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "bench.hpp"
#include "core/redundancy_cache.hpp"
#include "net/http.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace rc = redundancy::core;
namespace ru = redundancy::util;

namespace {

template <typename Fn>
double median_ns(std::size_t samples, Fn&& fn) {
  std::vector<double> ns;
  ns.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::uint64_t t0 = spans::now_ns();
    fn(i);
    ns.push_back(static_cast<double>(spans::now_ns() - t0));
  }
  return median(std::move(ns));
}

double batch3(ru::BatchRunner& batch) {
  std::atomic<std::uint32_t> sink{0};
  return median_ns(kProbeSamples, [&](std::size_t) {
    for (int t = 0; t < 3; ++t) {
      batch.add([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    batch.run_and_wait();
  });
}

}  // namespace

double probe_batch3_external_ns() {
  ru::BatchRunner batch;
  return batch3(batch);
}

double probe_batch3_worker_ns() {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  double result = 0.0;
  ru::ThreadPool::shared().post(ru::ThreadPool::Task{[&] {
    ru::BatchRunner batch;
    const double ns = batch3(batch);
    std::lock_guard lock(m);
    result = ns;
    done = true;
    cv.notify_all();
  }});
  std::unique_lock lock(m);
  cv.wait(lock, [&] { return done; });
  return result;
}

double probe_voter_ns(const std::vector<model::Key>& keys) {
  if (keys.empty()) return 0.0;
  const rc::Voter<model::Key> voter = rc::majority_voter<model::Key>();
  std::vector<std::vector<rc::Ballot<model::Key>>> sets;
  sets.reserve(keys.size());
  for (const model::Key key : keys) {
    std::vector<rc::Ballot<model::Key>> ballots;
    for (std::size_t v = 0; v < model::kVersions; ++v) {
      const model::Key golden = model::chain(key);
      ballots.push_back({v, "chain/v" + std::to_string(v + 1),
                         model::version_faulty(v, key) ? golden + v + 1 : golden});
    }
    sets.push_back(std::move(ballots));
  }
  std::size_t accepted = 0;
  const double ns = median_ns(kProbeSamples, [&](std::size_t i) {
    accepted += voter(sets[i % sets.size()]).has_value();
  });
  return accepted > 0 ? ns : 0.0;
}

double probe_cache_hit_ns(model::Key key) {
  rc::CacheConfig config;
  config.label = "perfbench_probe";
  rc::RedundancyCache<model::Key> cache{config};
  auto run = [key]() -> rc::Result<model::Key> { return model::chain(key); };
  (void)cache.get_or_run(key, run);  // make the key resident
  std::uint64_t sum = 0;
  const double ns = median_ns(kProbeSamples, [&](std::size_t) {
    sum += cache.get_or_run(key, run).value();
  });
  return sum != 0 ? ns : 0.0;
}

double probe_parse_ns(const std::vector<std::string>& requests) {
  if (requests.empty()) return 0.0;
  std::size_t ok = 0;
  const double ns = median_ns(kProbeSamples, [&](std::size_t i) {
    ok += redundancy::net::http::parse_request(requests[i % requests.size()])
              .status == redundancy::net::http::ParseStatus::ok;
  });
  return ok == kProbeSamples ? ns : 0.0;
}

}  // namespace perfbench
