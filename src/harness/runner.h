#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace bamboo::harness {

/// One slice of a cross-process partition: shard index/count deterministically
/// split a flattened (spec × repetition) job list so N processes on N
/// machines each execute a disjoint subset, and the union over all shards is
/// exactly the full list. Job j belongs to shard `j % count == index`, so the
/// partition depends only on the grid, never on thread scheduling.
struct Shard {
  std::uint32_t index = 0;  ///< 0-based shard id, < count
  std::uint32_t count = 1;  ///< total shards; 1 = sharding disabled

  [[nodiscard]] bool enabled() const { return count > 1; }
  [[nodiscard]] bool owns(std::size_t job) const {
    return job % count == index;
  }
  /// Filename-friendly tag, e.g. "shard2of3"; empty when disabled.
  [[nodiscard]] std::string label() const;
  /// Parse the CLI form "i/n" with 1-based i in [1, n]; throws
  /// std::invalid_argument on malformed or out-of-range input.
  static Shard parse(const std::string& text);

  bool operator==(const Shard&) const = default;
};

struct RunnerOptions {
  /// Worker threads. 0 = auto: the BAMBOO_THREADS environment variable if
  /// set, otherwise std::thread::hardware_concurrency().
  unsigned threads = 0;
};

/// Output of ParallelRunner::run_repeated_grid: the executed jobs, this
/// shard's slice of the flattened spec × rep list. report::grid_rows folds
/// them into aggregate rows.
struct GridRun {
  struct Job {
    std::uint32_t spec_index = 0;
    std::uint32_t rep = 0;  ///< repetition index; ran seed base_seed + rep
    RunResult result;
  };
  std::uint32_t reps = 1;  ///< repetitions per spec (the full rep set)
  /// Jobs this shard executed, ordered by flattened job index.
  std::vector<Job> jobs;
};

/// Fans independent RunSpecs across a pool of std::threads.
///
/// Each spec is a self-contained, seed-deterministic simulation (one
/// sim::Simulator per run, pinned to whichever worker executes it), so runs
/// never share mutable state and the result of every spec is bit-identical
/// to executing it alone on one thread. Scheduling is work-stealing: specs
/// are dealt round-robin into per-worker deques; a worker drains its own
/// deque from the front and steals from the back of its peers when idle, so
/// a single slow run (e.g. Streamlet at N=64) cannot strand the rest of the
/// grid behind it. Results are always returned ordered by spec index.
class ParallelRunner {
 public:
  explicit ParallelRunner(RunnerOptions opts = {});
  explicit ParallelRunner(unsigned threads)
      : ParallelRunner(RunnerOptions{threads}) {}

  /// Worker threads this runner will use (>= 1).
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Execute every spec; results[i] corresponds to specs[i]. Exceptions
  /// thrown by a run are re-thrown on the calling thread after the pool
  /// drains.
  std::vector<RunResult> run(const std::vector<RunSpec>& specs);

  /// As run(), but keeps each run's optional throughput timeline.
  std::vector<RunOutput> run_full(const std::vector<RunSpec>& specs);

  /// Multi-seed repetition across a whole grid, with optional cross-process
  /// sharding. The flattened job list is spec-major, rep-minor (job
  /// j = spec_index * reps + rep; rep r runs seed spec.cfg.seed + r); the
  /// shard executes only the jobs it owns, all in one submission so every
  /// series overlaps. A sharded process holds partial rep sets, which
  /// bench_merge recombines into aggregates bit-identical to the unsharded
  /// run.
  GridRun run_repeated_grid(const std::vector<RunSpec>& grid,
                            std::uint32_t reps, Shard shard = {});

  /// Resolve a requested thread count: requested > 0 wins, then
  /// BAMBOO_THREADS when it is a positive whole decimal number, then
  /// hardware_concurrency(); never less than 1.
  [[nodiscard]] static unsigned resolve_threads(unsigned requested);

 private:
  unsigned threads_;
};

}  // namespace bamboo::harness
