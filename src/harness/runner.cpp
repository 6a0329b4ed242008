#include "harness/runner.h"

#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/parse.h"

namespace bamboo::harness {

namespace {

/// Per-worker job deque. Owners pop the front, thieves take the back; the
/// mutex is uncontended except around steals, and jobs are coarse (whole
/// simulations), so this is nowhere near the scheduling hot path.
struct WorkerQueue {
  std::mutex mu;
  std::deque<std::size_t> jobs;
};

/// Run fn(i) for every i in [0, n) on `threads` workers; fn(i) must only
/// write state owned by job i. The first exception (by completion order) is
/// re-thrown on the caller after all workers join.
template <typename Fn>
void for_each_index(std::size_t n, unsigned threads, Fn&& fn) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, n));

  std::vector<WorkerQueue> queues(workers);
  // Round-robin deal preserves locality of neighbouring sweep points per
  // worker while work stealing rebalances skewed grids.
  for (std::size_t i = 0; i < n; ++i) {
    queues[i % workers].jobs.push_back(i);
  }

  std::mutex error_mu;
  std::exception_ptr first_error;

  auto worker_main = [&](unsigned self) {
    for (;;) {
      std::optional<std::size_t> job;
      {
        std::lock_guard<std::mutex> lock(queues[self].mu);
        if (!queues[self].jobs.empty()) {
          job = queues[self].jobs.front();
          queues[self].jobs.pop_front();
        }
      }
      if (!job) {
        // Steal from the busiest-looking peer, scanning from our right.
        for (unsigned k = 1; k < workers && !job; ++k) {
          const unsigned victim = (self + k) % workers;
          std::lock_guard<std::mutex> lock(queues[victim].mu);
          if (!queues[victim].jobs.empty()) {
            job = queues[victim].jobs.back();
            queues[victim].jobs.pop_back();
          }
        }
      }
      if (!job) return;  // every deque empty: drained
      try {
        fn(*job);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back(worker_main, w);
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

std::string Shard::label() const {
  if (!enabled()) return "";
  return "shard" + std::to_string(index + 1) + "of" + std::to_string(count);
}

Shard Shard::parse(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    throw std::invalid_argument("shard must be of the form i/n: " + text);
  }
  char* end = nullptr;
  const unsigned long i = std::strtoul(text.c_str(), &end, 10);
  if (end != text.c_str() + slash) {
    throw std::invalid_argument("bad shard index in: " + text);
  }
  const char* count_start = text.c_str() + slash + 1;
  const unsigned long n = std::strtoul(count_start, &end, 10);
  if (*end != '\0') {
    throw std::invalid_argument("bad shard count in: " + text);
  }
  if (n == 0 || i == 0 || i > n) {
    throw std::invalid_argument("shard index must be in [1, n]: " + text);
  }
  return Shard{static_cast<std::uint32_t>(i - 1),
               static_cast<std::uint32_t>(n)};
}

unsigned ParallelRunner::resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("BAMBOO_THREADS")) {
    const auto parsed =
        util::parse_unsigned(env, std::numeric_limits<unsigned>::max());
    if (parsed && *parsed > 0) return static_cast<unsigned>(*parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ParallelRunner::ParallelRunner(RunnerOptions opts)
    : threads_(resolve_threads(opts.threads)) {}

std::vector<RunResult> ParallelRunner::run(const std::vector<RunSpec>& specs) {
  std::vector<RunResult> results(specs.size());
  for_each_index(specs.size(), threads_,
                 [&](std::size_t i) { results[i] = execute(specs[i]); });
  return results;
}

std::vector<RunOutput> ParallelRunner::run_full(
    const std::vector<RunSpec>& specs) {
  std::vector<RunOutput> outputs(specs.size());
  for_each_index(specs.size(), threads_,
                 [&](std::size_t i) { outputs[i] = execute_full(specs[i]); });
  return outputs;
}

GridRun ParallelRunner::run_repeated_grid(const std::vector<RunSpec>& grid,
                                          std::uint32_t reps, Shard shard) {
  if (reps == 0) reps = 1;
  GridRun out;
  out.reps = reps;

  // This shard's slice of the flattened spec-major, rep-minor job list.
  std::vector<RunSpec> owned_specs;
  for (std::size_t s = 0; s < grid.size(); ++s) {
    const std::uint64_t base_seed = grid[s].cfg.seed;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::size_t job = s * reps + r;
      if (!shard.owns(job)) continue;
      out.jobs.push_back(GridRun::Job{static_cast<std::uint32_t>(s), r, {}});
      owned_specs.push_back(grid[s].with_seed(base_seed + r));
    }
  }

  const std::vector<RunResult> results = run(owned_specs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    out.jobs[i].result = results[i];
  }
  return out;
}

}  // namespace bamboo::harness
