// campaign_nvp: in-process fault campaign, no sockets.
//
// faults::run_campaign_parallel drives kCampaignRequests seeded requests
// through threaded NVP-3 (techniques::NVersionProgramming,
// Concurrency::threaded) built from the voting versions of model.hpp; the
// oracle is the golden chain. Work enters the pool as one batch of shards
// and every request fans out again from its worker. Calls repeat, each
// with its own seed, until the measured time is used up.
#include <memory>

#include "bench.hpp"
#include "faults/campaign.hpp"
#include "host.hpp"
#include "techniques/nvp.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace core = redundancy::core;
namespace faults = redundancy::faults;
namespace util = redundancy::util;
using model::Key;
using spans::Name;
using spans::Route;
using Nvp = redundancy::techniques::NVersionProgramming<Key, Key>;

constexpr std::size_t kCampaignRequests = 100000;
/// Calls checked against the serial reference, spread over the run (the
/// serial runner is slower than the parallel one, so checking every call
/// would more than double the run).
constexpr std::size_t kCheckedCalls = 8;
/// Calls made with spans on in a traced run.
constexpr std::size_t kTracedCalls = 3;

/// Per-shard record of the system's calls (one writer: the shard's task).
struct ShardClock {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::vector<std::uint64_t> ns;
};

/// The campaign's system: one NVP-3 instance, timed call by call.
struct System {
  std::shared_ptr<Nvp> nvp;
  std::shared_ptr<ShardClock> clock;

  core::Result<Key> operator()(const Key& key) const {
    const std::uint64_t t0 = spans::now_ns();
    model::t_request_id = model::id_of(key);
    core::Result<Key> r = nvp->run(key);
    const std::uint64_t t1 = spans::now_ns();
    if (clock->first == 0) clock->first = t0;
    clock->last = t1;
    clock->ns.push_back(t1 - t0);
    if (spans::enabled()) {
      spans::record(model::id_of(key), Name::campaign_system, Route::none, t0, t1);
    }
    return r;
  }
};

System make_system(core::Concurrency mode, std::vector<std::shared_ptr<ShardClock>>* clocks) {
  auto clock = std::make_shared<ShardClock>();
  clock->ns.reserve(kCampaignRequests / 4);
  if (clocks != nullptr) clocks->push_back(clock);
  return System{std::make_shared<Nvp>(model::voting_versions(Route::none),
                                      model::timed_majority(Route::none), mode),
                std::move(clock)};
}

/// Inputs of call `index`: a seeded high word and a request id unique
/// across the run in the low word.
auto workload(std::size_t index) {
  const std::uint64_t base = index * kCampaignRequests;
  return [base](std::size_t i, util::Rng& rng) {
    return model::key_with_id(rng() >> 32, static_cast<std::uint32_t>(base + i));
  };
}

Key oracle(const Key& key) { return model::chain(key); }

std::uint64_t call_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t s = seed ^ (0x632be59bd9b4e019ULL * (index + 1));
  return util::splitmix64(s);
}

/// One run_campaign_parallel call, reduced to its figures as soon as it
/// returns (keeping every call's samples would make memory grow with speed).
struct Call {
  std::size_t index = 0;
  faults::CampaignReport report;
  double wall_s = 0.0;
  double cpu_us = 0.0;
  std::uint64_t switches = 0;
  Percentile p50_ns, p99_ns;
  double shard_skew = 0.0;  ///< slowest shard / median shard

  [[nodiscard]] double rps() const {
    return static_cast<double>(report.requests) / wall_s;
  }
};

Call run_call(std::uint64_t seed, std::size_t index) {
  Call call;
  call.index = index;
  std::vector<std::shared_ptr<ShardClock>> clocks;
  const host::Usage u0 = host::process_usage();
  const std::uint64_t t0 = spans::now_ns();
  call.report = faults::run_campaign_parallel<Key, Key>(
      "nvp3", kCampaignRequests, workload(index),
      [&clocks] { return make_system(core::Concurrency::threaded, &clocks); },
      oracle, call_seed(seed, index));
  call.wall_s = static_cast<double>(spans::now_ns() - t0) / 1e9;
  const host::Usage u1 = host::process_usage();
  call.cpu_us = u1.cpu_us - u0.cpu_us;
  call.switches = u1.switches - u0.switches;

  std::vector<std::uint64_t> all;
  std::vector<double> shard_s;
  double slowest = 0.0;
  for (const auto& c : clocks) {
    all.insert(all.end(), c->ns.begin(), c->ns.end());
    const auto d = static_cast<double>(c->last - c->first);
    shard_s.push_back(d);
    slowest = std::max(slowest, d);
  }
  std::sort(all.begin(), all.end());
  call.p50_ns = percentile(all, 50.0);
  call.p99_ns = percentile(all, 99.0);
  const double mid = median(std::move(shard_s));
  call.shard_skew = mid > 0.0 ? slowest / mid : 0.0;
  return call;
}

/// Run calls until `seconds` have passed, or exactly `count` calls.
std::vector<Call> run_calls(std::uint64_t seed, std::size_t& next_index,
                            double seconds, std::size_t count = 0) {
  std::vector<Call> calls;
  const std::uint64_t end = spans::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    calls.push_back(run_call(seed, next_index++));
  } while (count != 0 ? calls.size() < count : spans::now_ns() < end);
  return calls;
}

template <typename Fn>
double median_of(const std::vector<Call>& calls, Fn&& fn) {
  std::vector<double> v;
  for (const Call& c : calls) v.push_back(fn(c));
  return median(std::move(v));
}

}  // namespace

RunResult run_campaign(const RunOptions& options) {
  RunResult out;
  util::ThreadPool& pool = util::ThreadPool::shared();
  out.host_json = host::fingerprint_json({pool.size(), 0, ""});

  // Set-up: pool up and one system per shard built.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::uint64_t t0 = spans::now_ns();
    auto pool_probe = std::make_unique<util::ThreadPool>(pool.size());
    std::vector<System> systems;
    for (std::size_t w = 0; w < pool.size(); ++w) {
      systems.push_back(make_system(core::Concurrency::threaded, nullptr));
    }
    setup_s.push_back(static_cast<double>(spans::now_ns() - t0) / 1e9);
  }
  out.values["setup_s"] = median(setup_s);
  std::string reps;
  for (const double t : setup_s) reps += format(" %.3f", t * 1e3);
  out.notes.push_back("set-up repeats (ms):" + reps);

  std::size_t next_index = 0;
  std::vector<Call> all = run_calls(options.seed, next_index, kWarmupSeconds);
  const std::vector<Call> measured = run_calls(options.seed, next_index, options.seconds);
  all.insert(all.end(), measured.begin(), measured.end());

  const double rps = median_of(measured, [](const Call& c) { return c.rps(); });
  double cpu = 0.0;
  std::size_t requests = 0;
  for (const Call& c : measured) {
    cpu += c.cpu_us;
    requests += c.report.requests;
  }
  out.values["max_rate_rps"] = rps;
  out.values["p50_us"] = median_of(measured, [](const Call& c) { return c.p50_ns.value / 1e3; });
  out.values["p99_us"] = median_of(measured, [](const Call& c) { return c.p99_ns.value / 1e3; });
  out.values["cpu_us_per_req"] = cpu / static_cast<double>(requests);
  out.notes.push_back(format(
      "%zu campaign calls of %zu requests over %zu shards; campaign_rps (median "
      "over calls) %.0f; p50 %.3f us, p99 %.3f us (medians over calls of "
      "per-call percentiles, each over %zu samples, %zu beyond p99)",
      measured.size(), kCampaignRequests, pool.size(), rps, out.values["p50_us"],
      out.values["p99_us"], measured.front().p99_ns.count,
      measured.front().p99_ns.beyond));

  if (options.trace) {
    // A few traced calls: at over a million requests a second, spans of the
    // whole window would not fit in memory.
    spans::set_enabled(true);
    const std::vector<Call> traced = run_calls(options.seed, next_index, 0.0, kTracedCalls);
    spans::set_enabled(false);
    all.insert(all.end(), traced.begin(), traced.end());
    const std::vector<spans::Span> recorded = spans::drain();
    const std::string path = options.out_dir + "/" + options.workload + ".trace.jsonl";
    if (!spans::write_jsonl(path, recorded, kJsonlRequests)) {
      out.notes.push_back("could not write " + path);
    }
    spans::Summary s = spans::summarize(recorded);
    spans::sort_samples(s);
    out.notes.push_back(format("%zu spans of %zu traced calls; %s holds the first %zu requests",
                               recorded.size(), traced.size(), path.c_str(), kJsonlRequests));

    std::uint64_t switches = 0;
    std::size_t traced_requests = 0;
    for (const Call& c : traced) {
      switches += c.switches;
      traced_requests += c.report.requests;
    }
    auto& v = out.values;
    v["campaign.system_ns_p50"] = percentile(s.system_ns, 50.0).value;
    v["campaign.system_ns_p99"] = percentile(s.system_ns, 99.0).value;
    v["campaign.overhead_share"] =
        s.fanout_whole_ns > 0.0 ? 1.0 - s.fanout_work_ns / s.fanout_whole_ns : 0.0;
    v["campaign.shard_skew"] = median_of(traced, [](const Call& c) { return c.shard_skew; });
    v["pool.fanout_us_p50"] = percentile(s.fanout_us, 50.0).value;
    v["pool.fanout_us_p99"] = percentile(s.fanout_us, 99.0).value;
    v["core.voter_ns_p50"] = percentile(s.voter_ns, 50.0).value;
    v["core.variant_ns_p50"] = percentile(s.variant_ns, 50.0).value;
    v["proc.ctx_switches_per_req"] =
        static_cast<double>(switches) / static_cast<double>(traced_requests);
    v["trace.overhead_share"] = overhead_share(
        1.0 / median_of(traced, [](const Call& c) { return c.rps(); }), 1.0 / rps);
    put_self_times(out, s.self_us);

    std::vector<Key> keys;
    const util::Rng base{call_seed(options.seed, 0)};
    const auto inputs = workload(0);
    for (std::size_t i = 0; i < kProbeSamples; ++i) {
      util::Rng r = base.split(i);
      keys.push_back(inputs(i, r));
    }
    v["pool.batch3_external_ns_p50"] = probe_batch3_external_ns();
    v["pool.batch3_worker_ns_p50"] = probe_batch3_worker_ns();
    v["core.voter_probe_ns_p50"] = probe_voter_ns(keys);
  }

  // Distinct wrong values never form a majority, so no call may report a
  // wrong answer; calls spread over the run must also equal the serial
  // reference at their seed.
  const std::size_t stride = std::max<std::size_t>(1, all.size() / kCheckedCalls);
  for (std::size_t k = 0; k < all.size(); ++k) {
    const Call& c = all[k];
    out.attempted += c.report.requests;
    bool same = c.report.wrong == 0 && c.report.requests == kCampaignRequests;
    if (same && (k % stride == 0 || k + 1 == all.size())) {
      const faults::CampaignReport reference = faults::run_campaign<Key, Key>(
          "nvp3", kCampaignRequests, workload(c.index),
          make_system(core::Concurrency::sequential, nullptr), oracle,
          call_seed(options.seed, c.index));
      same = c.report.summary() == reference.summary();
      if (!same) out.notes.push_back("serial reference: " + reference.summary());
    }
    if (!same) {
      out.correct = false;
      out.failed += c.report.requests;
      out.notes.push_back("REPORT DIFFERS: " + c.report.summary());
    }
  }
  out.notes.push_back("last report: " + all.back().report.summary());
  out.values["rss_peak_mb"] = host::rss_peak_mb();
  return out;
}

}  // namespace perfbench
