// Data diversity (Ammann & Knight 1988).
//
// The *same* program is executed on logically equivalent *re-expressions*
// of the input: faults that manifest only on particular input points
// (corner cases) are avoided by sliding off the failure region. Exact
// re-expressions preserve the output (possibly after a recovery transform);
// approximate re-expressions accept outputs within a tolerance.
//
// Two deployment forms, both implemented here:
//  * retry blocks — sequential alternatives over re-expressions, guarded by
//    an acceptance test (explicit adjudicator);
//  * N-copy programming — parallel evaluation of N re-expressed copies with
//    a voter (implicit adjudicator).
//
// Taxonomy: deliberate / data / reactive expl.-impl. / development faults.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/registry.hpp"
#include "core/sequential_alternatives.hpp"
#include "core/voters.hpp"

namespace redundancy::techniques {

/// One way of re-expressing an input. `express` maps the original input to
/// an equivalent one; `recover` maps the output computed on the re-expressed
/// input back to the original problem's answer (identity when omitted).
template <typename In, typename Out>
struct ReExpression {
  std::string name;
  std::function<In(const In&)> express;
  std::function<Out(const In&, const Out&)> recover;  ///< may be null

  [[nodiscard]] Out recover_output(const In& original, const Out& out) const {
    return recover ? recover(original, out) : out;
  }
};

/// Identity re-expression (always the first alternative in a retry block).
template <typename In, typename Out>
[[nodiscard]] ReExpression<In, Out> identity_reexpression() {
  return {"identity", [](const In& x) { return x; }, nullptr};
}

/// One variant per re-expression: `program` run on the re-expressed input,
/// its output recovered for the original one.
template <typename In, typename Out>
[[nodiscard]] std::vector<core::Variant<In, Out>> reexpressed(
    std::function<core::Result<Out>(const In&)> program,
    std::vector<ReExpression<In, Out>> reexpressions) {
  std::vector<core::Variant<In, Out>> variants;
  variants.reserve(reexpressions.size());
  for (auto& re : reexpressions) {
    variants.push_back(core::make_variant<In, Out>(
        re.name, [program, re](const In& input) -> core::Result<Out> {
          const In expressed = re.express(input);
          auto out = program(expressed);
          if (!out.has_value()) return out;
          return re.recover_output(input, out.value());
        }));
  }
  return variants;
}

/// Retry block: run the program on the original input; if the acceptance
/// test rejects (or the program fails), re-express and retry.
template <typename In, typename Out>
class RetryBlock {
 public:
  using Engine = core::SequentialAlternatives<In, Out>;

  RetryBlock(std::function<core::Result<Out>(const In&)> program,
             std::vector<ReExpression<In, Out>> reexpressions,
             core::AcceptanceTest<In, Out> acceptance)
      : engine_(reexpressed(std::move(program), std::move(reexpressions)),
                std::move(acceptance)) {
    engine_.set_obs_label("data_diversity");
  }

  core::Result<Out> run(const In& input) { return engine_.run(input); }

  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return engine_.metrics();
  }

  [[nodiscard]] static core::TaxonomyEntry taxonomy() {
    return {
        .name = "Data diversity",
        .intention = core::Intention::deliberate,
        .type = core::RedundancyType::data,
        .adjudicator = core::AdjudicatorKind::reactive_hybrid,
        .faults = core::TargetFaults::development,
        .pattern = Engine::kPattern,
        .summary = "executes the same code with perturbed (re-expressed) "
                   "input data",
    };
  }

 private:
  Engine engine_;
};

/// N-copy programming: all re-expressed copies run "in parallel" and an
/// implicit voter adjudicates (majority by default; use an approximate
/// equality for approximate re-expressions).
template <typename In, typename Out>
class NCopyProgramming {
 public:
  NCopyProgramming(std::function<core::Result<Out>(const In&)> program,
                   std::vector<ReExpression<In, Out>> reexpressions,
                   core::Voter<Out> voter = core::majority_voter<Out>(),
                   core::Concurrency mode = core::Concurrency::sequential,
                   core::Adjudication adjudication = core::Adjudication::join_all)
      : engine_(reexpressed(std::move(program), std::move(reexpressions)),
                std::move(voter), mode, adjudication) {
    engine_.set_obs_label("data_diversity");
  }

  core::Result<Out> run(const In& input) { return engine_.run(input); }

  [[nodiscard]] std::size_t copies() const noexcept { return engine_.width(); }
  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return engine_.metrics();
  }

 private:
  core::ParallelEvaluation<In, Out> engine_;
};

}  // namespace redundancy::techniques
