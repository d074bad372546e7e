// obs::Counter / obs::Histogram / obs::MetricsRegistry: exactness under
// concurrency, log2 bucket layout, merge determinism, Prometheus rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/counter.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"

namespace redundancy::obs {
namespace {

TEST(ObsCounter, SingleThreadTotalIsExact) {
  Counter c;
  EXPECT_EQ(c.total(), 0u);
  for (int i = 0; i < 100; ++i) c.add();
  c.add(900);
  EXPECT_EQ(c.total(), 1000u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(ObsCounter, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.total(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsHistogram, BucketOfFollowsLog2Layout) {
  // Bucket 0 holds v <= 1; bucket b holds 2^(b-1) < v <= 2^b.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(2), 1u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 2u);
  EXPECT_EQ(Histogram::bucket_of(5), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 3u);
  EXPECT_EQ(Histogram::bucket_of(9), 4u);
  EXPECT_EQ(Histogram::bucket_of(1024), 10u);
  EXPECT_EQ(Histogram::bucket_of(1025), 11u);
  EXPECT_LT(Histogram::bucket_of(UINT64_MAX), HistogramSnapshot::kBuckets);
}

TEST(ObsHistogram, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(HistogramSnapshot::bucket_bound(0), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_bound(10), 1024u);
  // Every value lands in the bucket whose bound covers it.
  for (std::uint64_t v : {1ull, 2ull, 3ull, 100ull, 4096ull, 1'000'000ull}) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_LE(v, HistogramSnapshot::bucket_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, HistogramSnapshot::bucket_bound(b - 1)) << v;
    }
  }
}

TEST(ObsHistogram, SnapshotCountAndSumAreExact) {
  Histogram h;
  h.record(1);
  h.record(10);
  h.record(100);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 111u);
  EXPECT_DOUBLE_EQ(s.mean(), 37.0);
  EXPECT_EQ(h.count(), 3u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsHistogram, PercentileIsWithinOneBucket) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(1000);  // bucket (512, 1024]
  const HistogramSnapshot s = h.snapshot();
  for (double p : {1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_GT(s.percentile(p), 512.0) << p;
    EXPECT_LE(s.percentile(p), 1024.0) << p;
  }
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.percentile(50.0), 0.0);
}

TEST(ObsHistogram, PercentilesOrderAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(100);    // fast bulk
  for (int i = 0; i < 10; ++i) h.record(50'000); // slow tail
  const HistogramSnapshot s = h.snapshot();
  EXPECT_LE(s.percentile(50.0), 128.0);
  EXPECT_GT(s.percentile(95.0), 32'768.0);
  EXPECT_LE(s.percentile(50.0), s.percentile(95.0));
  EXPECT_LE(s.percentile(95.0), s.percentile(99.0));
}

TEST(ObsHistogram, MergeIsExactAndOrderIndependent) {
  // The determinism contract for sharded campaigns: merging per-shard
  // snapshots in any order produces byte-identical aggregates.
  Histogram a, b, c;
  for (int i = 0; i < 100; ++i) a.record(10 + i);
  for (int i = 0; i < 200; ++i) b.record(5000 + i);
  for (int i = 0; i < 50; ++i) c.record(1);

  HistogramSnapshot abc = a.snapshot();
  abc.merge(b.snapshot()).merge(c.snapshot());
  HistogramSnapshot cba = c.snapshot();
  cba.merge(b.snapshot()).merge(a.snapshot());

  EXPECT_EQ(abc.count, 350u);
  EXPECT_EQ(abc.count, cba.count);
  EXPECT_EQ(abc.sum, cba.sum);
  EXPECT_EQ(abc.buckets, cba.buckets);
  EXPECT_DOUBLE_EQ(abc.percentile(95.0), cba.percentile(95.0));
  EXPECT_EQ(abc.summary(), cba.summary());
}

TEST(ObsHistogram, SummaryMentionsThePercentiles) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(100);
  const std::string s = h.snapshot().summary();
  EXPECT_NE(s.find("count=10"), std::string::npos) << s;
  EXPECT_NE(s.find("p50="), std::string::npos) << s;
  EXPECT_NE(s.find("p99="), std::string::npos) << s;
}

TEST(ObsRegistry, SameNameReturnsSameInstrument) {
  auto& reg = MetricsRegistry::instance();
  Counter& c1 = reg.counter("obs_test.same_name");
  Counter& c2 = reg.counter("obs_test.same_name");
  EXPECT_EQ(&c1, &c2);
  Histogram& h1 = reg.histogram("obs_test.same_hist");
  Histogram& h2 = reg.histogram("obs_test.same_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, ConcurrentLookupsAreStable) {
  auto& reg = MetricsRegistry::instance();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter("obs_test.contended").add();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(reg.counter("obs_test.contended").total(),
            static_cast<std::uint64_t>(kThreads) * 1000);
}

TEST(ObsRegistry, PrometheusRenderingHasExpectedShape) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("obs_test.render/counter").add(7);
  Histogram& h = reg.histogram("obs_test.render_hist");
  h.reset();
  h.record(100);
  h.record(1000);

  std::ostringstream out;
  reg.render_prometheus(out);
  const std::string text = out.str();
  // Names sanitised to [a-zA-Z0-9_:]; counters get the _total suffix.
  EXPECT_NE(text.find("obs_test_render_counter_total 7"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE obs_test_render_hist histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"128\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"1024\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_render_hist_sum 1100"), std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_render_hist_count 2"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace redundancy::obs
