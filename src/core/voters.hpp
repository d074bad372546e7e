// Implicit adjudicators: voters over the ballots of parallel variants.
//
// The paper distinguishes implicit adjudicators "built into the redundant
// mechanism" (majority voting in N-version programming, comparison in
// process replicas and N-variant data) from explicit, application-specific
// acceptance tests. This header provides the implicit family.
//
// Each voter is one scalar pass over the ballots with the comparator it was
// given (std::equal_to by default). The grouping voters (majority,
// plurality) keep one representative and one supporter count per group of
// equal values, for up to kStackGroups ballots in arrays on the stack and
// on the heap only above that: N is 3..9 in every realistic use, so a vote
// costs a handful of comparisons and no allocation. Unanimity needs no
// groups: it compares every ballot with the first.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/variant.hpp"
#include "util/small_function.hpp"

namespace redundancy::core {

/// The adjudicator slot of every voting pattern. SmallFunction, not
/// std::function: the voter runs once per adjudication round (and once per
/// *ballot* in incremental adjudication), and every voter this header
/// builds fits the 64-byte inline buffer — so adjudication never chases a
/// heap-allocated closure (FL031).
template <typename Out>
using Voter =
    util::SmallFunction<Result<Out>(const std::vector<Ballot<Out>>&)>;

namespace voter_detail {

/// Electorates up to this size group their ballots on the stack.
inline constexpr std::size_t kStackGroups = 16;

/// One group of equal ballot values: the first value seen and its
/// supporters.
template <typename Out>
struct Group {
  const Out* rep;
  std::size_t count;
};

/// Group the successful ballots by `eq` (quadratic: Out need not be
/// hashable or ordered) and return `decide(groups)`, the groups in the
/// order their first value was seen.
template <typename Out, typename Eq, typename Decide>
Result<Out> grouped(const std::vector<Ballot<Out>>& ballots, const Eq& eq,
                    Decide&& decide) {
  // Left uninitialized: only groups[0, n) are read, each written first,
  // and zeroing the array would cost more than a three-ballot vote.
  std::array<Group<Out>, kStackGroups> stack;
  std::vector<Group<Out>> heap;
  std::span<Group<Out>> groups{stack};
  if (ballots.size() > stack.size()) {
    heap.resize(ballots.size());
    groups = heap;
  }
  std::size_t n = 0;
  for (const auto& b : ballots) {
    const Out* v = b.result.try_value();
    if (v == nullptr) continue;
    std::size_t g = 0;
    while (g < n && !eq(*groups[g].rep, *v)) ++g;
    if (g == n) groups[n++] = {v, 0};
    ++groups[g].count;
  }
  return decide(std::span<const Group<Out>>{groups.data(), n});
}

}  // namespace voter_detail

/// Strict-majority voter (classic N-version programming, Avizienis 1985).
///
/// A value wins only if strictly more than half of *all* N variants (failed
/// ones included) agree on it: with N = 2k+1 versions the system tolerates
/// up to k faulty results. Ties and sub-majority pluralities yield
/// `adjudication_failed`.
template <typename Out, typename Eq = std::equal_to<Out>>
[[nodiscard]] Voter<Out> majority_voter(Eq eq = Eq{}) {
  return [eq](const std::vector<Ballot<Out>>& ballots) -> Result<Out> {
    const std::size_t n = ballots.size();
    if (n == 0) return failure(FailureKind::adjudication_failed, "no ballots");
    return voter_detail::grouped(
        ballots, eq,
        [n](std::span<const voter_detail::Group<Out>> groups) -> Result<Out> {
          for (const auto& g : groups) {
            if (2 * g.count > n) return *g.rep;
          }
          return failure(FailureKind::adjudication_failed,
                         "no majority quorum");
        });
  };
}

/// Plurality voter: the largest agreeing group wins; ties fail.
template <typename Out, typename Eq = std::equal_to<Out>>
[[nodiscard]] Voter<Out> plurality_voter(Eq eq = Eq{}) {
  return [eq](const std::vector<Ballot<Out>>& ballots) -> Result<Out> {
    return voter_detail::grouped(
        ballots, eq,
        [](std::span<const voter_detail::Group<Out>> groups) -> Result<Out> {
          if (groups.empty()) {
            return failure(FailureKind::adjudication_failed,
                           "all variants failed");
          }
          std::size_t best = 0;
          std::size_t ties = 1;
          for (std::size_t g = 1; g < groups.size(); ++g) {
            if (groups[g].count > groups[best].count) {
              best = g;
              ties = 1;
            } else if (groups[g].count == groups[best].count) {
              ++ties;
            }
          }
          if (ties > 1) {
            return failure(FailureKind::adjudication_failed, "plurality tie");
          }
          return *groups[best].rep;
        });
  };
}

/// Unanimity comparator: any divergence (or any failure) is flagged.
///
/// This is the adjudicator of the security mechanisms — process replicas
/// (Cox et al.) and N-variant data (Nguyen-Tuong et al.) — where divergence
/// means a (possibly malicious) fault was activated in some replica.
template <typename Out, typename Eq = std::equal_to<Out>>
[[nodiscard]] Voter<Out> unanimity_voter(Eq eq = Eq{}) {
  return [eq](const std::vector<Ballot<Out>>& ballots) -> Result<Out> {
    if (ballots.empty()) {
      return failure(FailureKind::adjudication_failed, "no ballots");
    }
    const Out* first = nullptr;
    for (const auto& b : ballots) {
      if (!b.result.has_value()) {
        return failure(FailureKind::detected_attack,
                       "replica " + b.variant_name + " failed: " +
                           b.result.error().describe(),
                       b.result.error().cause);
      }
      if (first == nullptr) {
        first = &b.result.value();
      } else if (!eq(*first, b.result.value())) {
        return failure(FailureKind::detected_attack,
                       "divergence at replica " + b.variant_name);
      }
    }
    return *first;
  };
}

/// Median voter for totally ordered outputs — the classic inexact-voting
/// choice when independently developed versions legitimately differ in
/// low-order bits.
template <typename Out>
[[nodiscard]] Voter<Out> median_voter() {
  return [](const std::vector<Ballot<Out>>& ballots) -> Result<Out> {
    std::vector<Out> vals;
    for (const auto& b : ballots) {
      if (b.result.has_value()) vals.push_back(b.result.value());
    }
    if (vals.empty()) {
      return failure(FailureKind::adjudication_failed, "all variants failed");
    }
    const auto mid = vals.size() / 2;
    std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(mid),
                     vals.end());
    return vals[mid];
  };
}

/// Weighted voter: each variant carries a reliability weight; the value
/// whose supporters' weights sum highest wins (strictly above half the total
/// weight if `require_majority`).
template <typename Out, typename Eq = std::equal_to<Out>>
[[nodiscard]] Voter<Out> weighted_voter(std::vector<double> weights,
                                        bool require_majority = false,
                                        Eq eq = Eq{}) {
  return [weights = std::move(weights), require_majority,
          eq](const std::vector<Ballot<Out>>& ballots) -> Result<Out> {
    double total = 0.0;
    for (const auto& b : ballots) {
      total += b.variant_index < weights.size() ? weights[b.variant_index] : 1.0;
    }
    std::vector<double> score;
    std::vector<const Out*> reps;
    for (const auto& b : ballots) {
      if (!b.result.has_value()) continue;
      const double w =
          b.variant_index < weights.size() ? weights[b.variant_index] : 1.0;
      const Out& v = b.result.value();
      bool found = false;
      for (std::size_t g = 0; g < reps.size(); ++g) {
        if (eq(*reps[g], v)) {
          score[g] += w;
          found = true;
          break;
        }
      }
      if (!found) {
        reps.push_back(&v);
        score.push_back(w);
      }
    }
    if (reps.empty()) {
      return failure(FailureKind::adjudication_failed, "all variants failed");
    }
    std::size_t best = 0;
    for (std::size_t g = 1; g < reps.size(); ++g) {
      if (score[g] > score[best]) best = g;
    }
    if (require_majority && !(2.0 * score[best] > total)) {
      return failure(FailureKind::adjudication_failed, "no weighted majority");
    }
    return *reps[best];
  };
}

/// Approximate equality for floating-point outputs (inexact voting).
struct ApproxEq {
  double tolerance = 1e-9;
  bool operator()(double a, double b) const noexcept {
    const double diff = a > b ? a - b : b - a;
    const double mag = std::max({1.0, a > 0 ? a : -a, b > 0 ? b : -b});
    return diff <= tolerance * mag;
  }
};

}  // namespace redundancy::core
