#include "index/batch.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <numeric>
#include <utility>

#include "quant/kmeans.h"
#include "serve/executor.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace resinfer::index {

double BatchResult::AvgUtilization() const {
  if (wall_seconds <= 0.0 || worker_busy_seconds.empty()) return 0.0;
  double busy = 0.0;
  for (double b : worker_busy_seconds) busy += b;
  return busy /
         (wall_seconds * static_cast<double>(worker_busy_seconds.size()));
}

double BatchResult::MinUtilization() const {
  if (wall_seconds <= 0.0 || worker_busy_seconds.empty()) return 0.0;
  double min_busy = worker_busy_seconds.front();
  for (double b : worker_busy_seconds) min_busy = std::min(min_busy, b);
  return min_busy / wall_seconds;
}

BatchResult RunBatch(const ComputerFactory& factory,
                     const linalg::Matrix& queries, const SearchFn& search,
                     const BatchOptions& options) {
  RESINFER_CHECK(search != nullptr);
  BatchOptions per_query = options;
  per_query.group_size = 1;  // groups of one keep per-query latency exact
  return RunBatchGrouped(
      factory, queries,
      [&search](DistanceComputer& computer, const linalg::Matrix& qs,
                int64_t begin, int64_t count, std::vector<Neighbor>* results) {
        for (int64_t i = 0; i < count; ++i) {
          results[i] = search(computer, qs.Row(begin + i));
        }
      },
      per_query);
}

BatchResult RunBatchGrouped(const ComputerFactory& factory,
                            const linalg::Matrix& queries,
                            const GroupSearchFn& search,
                            const BatchOptions& options) {
  RESINFER_CHECK(factory != nullptr && search != nullptr);
  const int64_t num_queries = queries.rows();
  const int64_t group_size = std::max(1, options.group_size);

  BatchResult batch;
  batch.results.resize(static_cast<std::size_t>(num_queries));
  if (num_queries == 0) return batch;
  const int64_t num_groups = (num_queries + group_size - 1) / group_size;

  const int threads = static_cast<int>(std::clamp<int64_t>(
      ResolveThreadCount(options.num_threads), 1, num_groups));

  struct WorkerState {
    std::unique_ptr<DistanceComputer> computer;
    Histogram latency;        // singleton groups only — true per-query wall
    Histogram group_latency;  // one sample per group, the group's wall
    Histogram group_sizes;
    double busy_seconds = 0.0;
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(threads));
  for (auto& w : workers) {
    w.computer = factory();
    RESINFER_CHECK(w.computer != nullptr);
    RESINFER_CHECK(w.computer->dim() == queries.cols());
  }

  // Exception containment: a throwing search callback must not
  // std::terminate the executor (an exception escaping a task would). The
  // first thrower wins the abort flag and stashes its exception; the
  // remaining group tasks see the flag and complete without processing
  // (so the WaitGroup always drains), and the winner's exception is
  // rethrown on the caller thread after the executor quiesces.
  std::atomic<bool> abort_flag{false};
  std::exception_ptr first_exception;
  WallTimer wall;
  {
    // The groups are pre-distributed round-robin across the per-worker
    // deques; a worker that finishes its share early steals from the
    // stragglers, which is what keeps skewed query costs from idling
    // threads (the job the old atomic cursor did, now shared with the
    // online serving path).
    serve::Executor::Options executor_options;
    executor_options.num_threads = threads;
    serve::Executor executor(executor_options);
    serve::WaitGroup wait;
    wait.Add(num_groups);
    for (int64_t group = 0; group < num_groups; ++group) {
      const int64_t begin = group * group_size;
      const int64_t count = std::min(group_size, num_queries - begin);
      executor.SubmitTo(
          static_cast<int>(group % threads),
          [&, begin, count](int worker_index) {
            WorkerState& state =
                workers[static_cast<std::size_t>(worker_index)];
            if (abort_flag.load(std::memory_order_acquire)) {
              wait.Done();
              return;
            }
            WallTimer timer;
            try {
              search(*state.computer, queries, begin, count,
                     batch.results.data() + begin);
            } catch (...) {
              if (!abort_flag.exchange(true, std::memory_order_acq_rel)) {
                first_exception = std::current_exception();
              }
              wait.Done();
              return;
            }
            const double elapsed = timer.ElapsedSeconds();
            state.group_latency.Add(elapsed);
            state.group_sizes.Add(static_cast<double>(count));
            if (count == 1) state.latency.Add(elapsed);
            state.busy_seconds += elapsed;
            wait.Done();
          });
    }
    wait.Wait();
    executor.Shutdown();
  }
  if (first_exception != nullptr) std::rethrow_exception(first_exception);
  batch.wall_seconds = wall.ElapsedSeconds();

  batch.worker_busy_seconds.reserve(workers.size());
  for (const auto& w : workers) {
    batch.worker_busy_seconds.push_back(w.busy_seconds);
    batch.latency_seconds.Merge(w.latency);
    batch.group_latency_seconds.Merge(w.group_latency);
    batch.group_sizes.Merge(w.group_sizes);
    batch.stats += w.computer->stats();
  }
  return batch;
}

BatchResult BatchSearchFlat(const FlatIndex& index,
                            const ComputerFactory& factory,
                            const linalg::Matrix& queries, int k,
                            const BatchOptions& options) {
  return RunBatch(
      factory, queries,
      [&index, k](DistanceComputer& computer, const float* query) {
        return index.Search(computer, query, k);
      },
      options);
}

BatchResult BatchSearchIvf(const IvfIndex& index,
                           const ComputerFactory& factory,
                           const linalg::Matrix& queries, int k, int nprobe,
                           const BatchOptions& options) {
  if (options.group_size <= 1 || queries.rows() <= 1) {
    return RunBatch(
        factory, queries,
        [&index, k, nprobe](DistanceComputer& computer, const float* query) {
          return index.Search(computer, query, k, nprobe);
        },
        options);
  }

  // Multi-query path. Rank every query's probe centroids once (the same
  // NearestCentroids call Search would make), order queries
  // lexicographically by probe list so group members co-probe — same lead
  // bucket first, then agreeing tails — and hand the precomputed lists to
  // SearchBatchRange so the ranking isn't paid twice. The sort is stable,
  // so equal probe lists keep the caller's order.
  WallTimer wall;  // includes grouping prep, unlike the pool-only timer
  const int64_t num_queries = queries.rows();
  const int nprobe_used = std::clamp(nprobe, 1, index.num_clusters());
  std::vector<int32_t> probes(
      static_cast<std::size_t>(num_queries * nprobe_used));
  // The ranking runs on the batch's own thread count, each thread taking
  // at least kRankShard queries (~1.5 ms at 6 us each), well above the
  // cost of starting it. Lists are per query, so shards cannot change them.
  constexpr int64_t kRankShard = 256;
  const int rank_threads = static_cast<int>(
      std::min<int64_t>(ResolveThreadCount(options.num_threads),
                        (num_queries + kRankShard - 1) / kRankShard));
  ParallelForShards(num_queries, rank_threads,
                    [&](int64_t begin, int64_t end) {
    quant::NearestCentroidsBatch(index.centroids(), queries, begin,
                                 end - begin, nprobe_used,
                                 probes.data() + begin * nprobe_used);
  });
  const auto run = [&](const linalg::Matrix& qs,
                       const std::vector<int32_t>& probe_rows) {
    return RunBatchGrouped(
        factory, qs,
        [&index, &probe_rows, k, nprobe, nprobe_used](
            DistanceComputer& computer, const linalg::Matrix& rows,
            int64_t begin, int64_t count, std::vector<Neighbor>* results) {
          index.SearchBatchRange(computer, rows, begin, count, k, nprobe,
                                 results,
                                 probe_rows.data() + begin * nprobe_used);
        },
        options);
  };

  BatchResult batch;
  if (!options.sort_queries_by_centroid) {
    // Caller-ordered groups: no permutation, no copies.
    batch = run(queries, probes);
  } else {
    std::vector<int64_t> order(static_cast<std::size_t>(num_queries));
    std::iota(order.begin(), order.end(), int64_t{0});
    std::stable_sort(
        order.begin(), order.end(),
        [&probes, nprobe_used](int64_t a, int64_t b) {
          const int32_t* pa = probes.data() + a * nprobe_used;
          const int32_t* pb = probes.data() + b * nprobe_used;
          return std::lexicographical_compare(pa, pa + nprobe_used, pb,
                                              pb + nprobe_used);
        });
    linalg::Matrix grouped(num_queries, queries.cols());
    std::vector<int32_t> grouped_probes(probes.size());
    for (int64_t i = 0; i < num_queries; ++i) {
      const int64_t q = order[static_cast<std::size_t>(i)];
      const float* src = queries.Row(q);
      std::copy(src, src + queries.cols(), grouped.Row(i));
      std::copy(probes.begin() + q * nprobe_used,
                probes.begin() + (q + 1) * nprobe_used,
                grouped_probes.begin() + i * nprobe_used);
    }
    batch = run(grouped, grouped_probes);
    // Report rows in the caller's query order.
    std::vector<std::vector<Neighbor>> rows(
        static_cast<std::size_t>(num_queries));
    for (int64_t i = 0; i < num_queries; ++i) {
      rows[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
          std::move(batch.results[static_cast<std::size_t>(i)]);
    }
    batch.results = std::move(rows);
  }
  batch.wall_seconds = wall.ElapsedSeconds();
  return batch;
}

BatchResult BatchSearchHnsw(const HnswIndex& index,
                            const ComputerFactory& factory,
                            const linalg::Matrix& queries, int k, int ef,
                            const BatchOptions& options) {
  return RunBatch(
      factory, queries,
      [&index, k, ef](DistanceComputer& computer, const float* query) {
        return index.Search(computer, query, k, ef);
      },
      options);
}

std::vector<std::vector<int64_t>> ResultIds(const BatchResult& batch) {
  std::vector<std::vector<int64_t>> ids;
  ids.reserve(batch.results.size());
  for (const auto& row : batch.results) {
    std::vector<int64_t> r;
    r.reserve(row.size());
    for (const Neighbor& nb : row) r.push_back(nb.id);
    ids.push_back(std::move(r));
  }
  return ids;
}

}  // namespace resinfer::index
