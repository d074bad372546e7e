// Tests of the benchmark's own decision logic: percentile selection, the
// ladder stop rule, generator validity, span self time and tiling, response
// framing, the predicted-answer oracle and the failed-request count. Plain
// executable; exit status 0
// when every check holds.
//
//   cmake --build .bench_build --target perfbench_logic_test
//   .bench_build/perfbench_logic_test
#include <cstdio>
#include <string>
#include <vector>

#include "logic.hpp"
#include "model.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

using namespace perfbench;

void percentile_selection() {
  std::vector<int> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p50 = percentile(v, 50.0);
  CHECK(p50.value == 500.0);
  CHECK(p50.count == 1000);
  CHECK(p50.beyond == 500);
  const Percentile p99 = percentile(v, 99.0);
  CHECK(p99.value == 990.0);
  CHECK(p99.beyond == 10);
  CHECK(resolvable(p99));
  // 999 samples: rank ceil(989.01) = 990, so only 9 lie beyond.
  v.pop_back();
  const Percentile thin = percentile(v, 99.0);
  CHECK(thin.value == 990.0);
  CHECK(thin.beyond == 9);
  CHECK(!resolvable(thin));
  CHECK(percentile(std::vector<int>{}, 50.0).count == 0);
  CHECK(percentile(std::vector<int>{7}, 99.0).value == 7.0);
  CHECK(percentile(std::vector<int>{7}, 0.0).value == 7.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

StepResult step(double offered, double p99, std::size_t failed = 0,
                std::vector<std::size_t> backlog = {2, 3, 1, 2, 4, 2, 3, 3}) {
  StepResult s;
  s.achieved_rps = offered * 0.99;
  s.attempted = 1000;
  s.failed = failed;
  s.p99_us = p99;
  s.backlog = std::move(backlog);
  return s;
}

void ladder_stop_rule() {
  CHECK(step_passes(step(100, 500), 1000));
  CHECK(!step_passes(step(100, 1500), 1000));            // p99 over the limit
  CHECK(!step_passes(step(100, 500, 1), 1000));          // a failed request
  // Growing backlog: every late sample above every early one by > 16.
  CHECK(!step_passes(step(100, 500, 0, {1, 5, 3, 9, 15, 25, 30, 40}), 1000));
  CHECK(step_passes(step(100, 500, 0, {1, 5, 3, 9, 15, 21, 21, 30}), 1000));
  // A stall the server recovers from raises single samples only.
  CHECK(!backlog_grows({2, 300, 3, 2, 1, 4, 250, 3}, 1000));
  CHECK(!backlog_grows({2, 3, 3, 2, 1, 4, 250, 300}, 1000));
  CHECK(backlog_grows({2, 3, 3, 40, 80, 120, 160, 200}, 1000));
  CHECK(!backlog_grows({0, 0, 0, 0, 0, 90, 90, 90}, 10000));  // slack: 1% of the step
  CHECK(backlog_grows({0, 0, 0, 0, 0, 101, 101, 101}, 10000));
  CHECK(!backlog_grows({0, 0, 500, 500}, 1000));  // too few samples to judge

  // Capacity between rungs 11 and 12: coarse 0, 8 pass, 16 fails; then
  // bisection 12 (fail), 10 (pass), 11 (pass) -> adjacent, stop at rung 11.
  const double rung = Ladder::kRung;
  auto rate_of = [rung](int k) {
    double r = 1000.0;
    for (int i = 0; i < k; ++i) r *= rung;
    return r;
  };
  Ladder ladder(1000.0);
  std::vector<double> offered;
  while (!ladder.done() && offered.size() < 20) {
    const double r = ladder.next_rate();
    offered.push_back(r);
    ladder.report(step(r, r < rate_of(11) * 1.01 ? 500 : 5000), 1000);
  }
  CHECK(offered.size() == 6);
  CHECK(offered[2] > rate_of(16) * 0.999 && offered[2] < rate_of(16) * 1.001);
  CHECK(offered[3] > rate_of(12) * 0.999 && offered[3] < rate_of(12) * 1.001);
  CHECK(ladder.max_rate() == rate_of(11) * 0.99);

  // Every climb passes: the ladder keeps climbing (the caller's time
  // budget ends it).
  Ladder open(1000.0);
  for (int i = 0; i < 4; ++i) open.report(step(open.next_rate(), 500), 1000);
  CHECK(!open.done());
  CHECK(open.next_rate() > rate_of(32) * 0.999);

  // The first step failing descends: rung 0 fails, -8 passes, then the
  // bisection -4 (fail), -6 (pass), -5 (fail) stops at rung -6.
  Ladder low(1000.0);
  std::vector<double> tried;
  while (!low.done() && tried.size() < 20) {
    const double r = low.next_rate();
    tried.push_back(r);
    low.report(step(r, r < 1000.0 / (rung * rung * rung * rung * rung) * 0.99 ? 500 : 5000), 1000);
  }
  CHECK(tried.size() == 5);
  CHECK(tried[1] < 1000.0 / 1.47 && tried[1] > 1000.0 / 1.48);
  CHECK(low.max_rate() > 1000.0 / 1.35 * 0.99 && low.max_rate() < 1000.0 / 1.33);

  // Nothing passes down to the lowest rung: no rate.
  Ladder none(1000.0);
  int steps = 0;
  while (!none.done() && steps < 20) {
    none.report(step(none.next_rate(), 5000), 1000);
    ++steps;
  }
  CHECK(steps == 5);  // rungs 0, -8, -16, -24, -32
  CHECK(none.max_rate() == 0.0);
}

void generator_validity() {
  const GeneratorLimits limits{500.0, 256};
  CHECK(generator_kept_up(120.0, 12, limits));
  CHECK(!generator_kept_up(501.0, 12, limits));
  CHECK(!generator_kept_up(120.0, 257, limits));
  CHECK(generator_kept_up(500.0, 256, limits));
}

void self_time_arithmetic() {
  CHECK(self_time({0, 100}, {}) == 100);
  CHECK(self_time({0, 100}, {{10, 30}, {50, 60}}) == 70);
  // Overlapping children (parallel variants) count once.
  CHECK(self_time({0, 100}, {{10, 40}, {20, 50}, {30, 45}}) == 60);
  // Children are clipped to the parent.
  CHECK(self_time({10, 20}, {{0, 15}, {18, 40}}) == 3);
  CHECK(self_time({10, 10}, {{0, 15}}) == 0);

  // A traced request: due 0, sent 5, handler 20..70 (lock 20..25, run
  // 25..65 with variants 30..50, 31..55, 32..52 and voter 56..60), last
  // byte at 90.
  using spans::Name;
  using spans::Route;
  std::vector<spans::Span> s = {
      {7, Name::gen_request, Route::none, 0, 90},
      {7, Name::gen_lag, Route::none, 0, 5},
      {7, Name::route_handler, Route::vote, 20, 70},
      {7, Name::route_lock_wait, Route::vote, 20, 25},
      {7, Name::core_run, Route::vote, 25, 65},
      {7, Name::core_variant, Route::vote, 30, 50},
      {7, Name::core_variant, Route::vote, 31, 55},
      {7, Name::core_variant, Route::vote, 32, 52},
      {7, Name::core_voter, Route::vote, 56, 60},
  };
  const spans::Summary sum = spans::summarize(s);
  CHECK(sum.requests == 1);
  CHECK(sum.inbound_us.size() == 1 && sum.inbound_us[0] * 1e3 == 15.0);
  CHECK(sum.outbound_us[0] * 1e3 == 20.0);
  CHECK(sum.untiled == 0);
  // Root self: 90 − lag 5 − handler 50 = 35 ns.
  CHECK(sum.self_us[static_cast<int>(Name::gen_request)] * 1e3 == 35.0);
  // Handler self: 50 − lock 5 − run 40 = 5 ns.
  CHECK(sum.self_us[static_cast<int>(Name::route_handler)] * 1e3 == 5.0);
  // Run self: 40 − union(30..55) 25 − voter 4 = 11 ns.
  CHECK(sum.self_us[static_cast<int>(Name::core_run)] * 1e3 == 11.0);
  // Fan-out: run 40 − slowest variant 24 − voter 4 = 12 ns.
  CHECK(sum.fanout_us.size() == 1 && sum.fanout_us[0] * 1e3 == 12.0);

  // A broken join leaves requests untiled: request 1's handler span is out
  // of order (joined to the wrong request), request 2 has none, request 3
  // has no lag span; request 4 tiles.
  std::vector<spans::Span> bad = {
      {1, Name::gen_request, Route::none, 100, 190},
      {1, Name::gen_lag, Route::none, 100, 105},
      {1, Name::route_handler, Route::echo, 20, 70},
      {2, Name::gen_request, Route::none, 100, 190},
      {2, Name::gen_lag, Route::none, 100, 105},
      {3, Name::gen_request, Route::none, 100, 190},
      {3, Name::route_handler, Route::echo, 120, 170},
      {4, Name::gen_request, Route::none, 100, 190},
      {4, Name::gen_lag, Route::none, 100, 105},
      {4, Name::route_handler, Route::echo, 120, 170},
  };
  const spans::Summary broken = spans::summarize(bad);
  CHECK(broken.requests == 4);
  CHECK(broken.untiled == 3);
  CHECK(broken.inbound_us.size() == 1 && broken.inbound_us[0] * 1e3 == 15.0);
  CHECK(untiled_share(broken.untiled, broken.requests) == 0.75);
  CHECK(untiled_share(0, 0) == 0.0);
}

void response_framing() {
  const std::string ok =
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 4\r\n"
      "Connection: keep-alive\r\n\r\n123\nHTTP/1.1 500";
  const ParsedResponse p = parse_response(ok);
  CHECK(p.frame == Frame::ok);
  CHECK(p.status == 200);
  CHECK(p.body == "123\n");
  CHECK(p.consumed == ok.size() - std::string{"HTTP/1.1 500"}.size());
  CHECK(parse_response(ok.substr(0, 40)).frame == Frame::incomplete);
  CHECK(parse_response("HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort")
            .frame == Frame::incomplete);
  CHECK(parse_response("HTTP/1.1 200 OK\r\n\r\n").frame == Frame::bad);
  CHECK(parse_response("SMTP ready\r\n\r\n").frame == Frame::bad);
}

void predicted_answer_oracle() {
  // /vote: golden when at most one version is faulty, else no quorum.
  std::size_t golden = 0;
  std::size_t no_quorum = 0;
  for (std::uint32_t id = 0; id < 20000; ++id) {
    const model::Key key = model::key_with_id(12345, id);
    std::size_t faulty = 0;
    for (std::size_t v = 0; v < model::kVersions; ++v) {
      faulty += model::version_faulty(v, key);
    }
    const Expected e = model::predicted_vote(key);
    CHECK((faulty <= 1) == (e.status == 200));
    if (e.status == 200) {
      CHECK(e.value == model::chain(key));
      ++golden;
    } else {
      ++no_quorum;
    }
    CHECK(model::id_of(key) == id);
  }
  CHECK(no_quorum > 0 && no_quorum < 200);  // ~0.26% of keys
  CHECK(golden + no_quorum == 20000);

  // The voting versions, run for real, agree with the prediction.
  const auto versions = model::voting_versions(spans::Route::none);
  const auto voter = redundancy::core::majority_voter<model::Key>();
  for (std::uint32_t id = 0; id < 5000; ++id) {
    const model::Key key = model::key_with_id(777, id);
    std::vector<redundancy::core::Ballot<model::Key>> ballots;
    for (std::size_t v = 0; v < versions.size(); ++v) {
      ballots.push_back({v, versions[v].name, versions[v](key)});
    }
    const auto verdict = voter(ballots);
    const Expected e = model::predicted_vote(key);
    CHECK(verdict.has_value() == (e.status == 200));
    if (verdict.has_value()) CHECK(verdict.value() == e.value);
  }

  // /fast always answers golden, whatever the primary does.
  const auto alts = model::hedged_alternatives();
  std::size_t crashes = 0;
  for (std::uint64_t key = 1; key < 3000; ++key) {
    const auto primary = alts[0](key);
    if (!primary.has_value()) ++crashes;
    CHECK(primary.has_value() != model::primary_crashes(key));
    CHECK(alts[1](key).value() == model::predicted_fast(key).value);
  }
  CHECK(crashes > 0);

  CHECK(!judge(Expected{200, 5}, 500, "5\n"));  // wrong status
  CHECK(!judge(Expected{500, 0}, 200, "5\n"));  // answered where no quorum is due
}

void failed_share_counting() {
  // The generator's path on one connection: pipelined responses are framed
  // in order and each is judged against its request's prediction, as
  // Client::run does. The second carries a deliberately wrong value, the
  // fourth a wrong status, and the fifth never comes back.
  const std::vector<Expected> predicted = {
      model::predicted_echo(7), model::predicted_fast(99), Expected{500, 0},
      model::predicted_echo(8), model::predicted_echo(9)};
  auto reply = [](int status, const std::string& body) {
    return "HTTP/1.1 " + std::to_string(status) +
           " X\r\nContent-Type: text/plain\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n\r\n" +
           body;
  };
  const std::string stream =
      reply(200, "7\n") +
      reply(200, std::to_string(model::predicted_fast(99).value + 1) + "\n") +
      reply(500, "no quorum\n") + reply(500, "8\n");
  std::vector<Verdict> verdicts(predicted.size(), Verdict::unanswered);
  std::size_t offset = 0;
  for (std::size_t i = 0; offset < stream.size(); ++i) {
    const ParsedResponse r = parse_response(std::string_view{stream}.substr(offset));
    CHECK(r.frame == Frame::ok);
    if (r.frame != Frame::ok) break;
    verdicts[i] = verdict(predicted[i], r.status, r.body);
    offset += r.consumed;
  }
  CHECK(verdicts[0] == Verdict::ok);
  CHECK(verdicts[1] == Verdict::wrong);  // wrong body
  CHECK(verdicts[2] == Verdict::ok);
  CHECK(verdicts[3] == Verdict::wrong);  // wrong status
  CHECK(verdicts[4] == Verdict::unanswered);

  const Counts c = count(verdicts);
  CHECK(c.attempted == 5);
  CHECK(c.wrong == 2 && c.unanswered == 1);
  CHECK(c.failed() == 3);
  CHECK(failed_share(c.failed(), c.attempted) == 0.6);
  // A ladder step past the knee: the timeout fails the step, not the run,
  // but wrong answers still count.
  CHECK(c.failed(true) == 2);
  CHECK(failed_share(c.failed(true), c.attempted) == 0.4);
  // A phase with only correct answers fails nothing.
  CHECK(count({Verdict::ok, Verdict::ok}).failed() == 0);
  CHECK(failed_share(0, 0) == 0.0);
}

}  // namespace

int main() {
  percentile_selection();
  ladder_stop_rule();
  generator_validity();
  self_time_arithmetic();
  response_framing();
  predicted_answer_oracle();
  failed_share_counting();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench logic: all checks passed\n");
  return 0;
}
