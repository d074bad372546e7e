// Execution-mode knobs shared by the Figure-1 pattern executors.
#pragma once

namespace redundancy::core {

enum class Concurrency {
  sequential,  ///< run variants one by one (deterministic; default)
  threaded,    ///< fan out on the shared thread pool (variants must be
               ///< thread-safe); a light join-all electorate learns to run
               ///< on the calling thread instead (util/placement.hpp)
};

/// How a threaded ParallelEvaluation turns ballots into a verdict.
enum class Adjudication {
  join_all,     ///< wait for every variant, then vote once (default; any voter)
  incremental,  ///< vote as ballots arrive; return as soon as a verdict is
                ///< reachable. Sound only for voters whose *success* verdict on
                ///< a subset padded with failure placeholders cannot be
                ///< overturned by later ballots — strict majority qualifies,
                ///< plurality and median do not.
};

}  // namespace redundancy::core
