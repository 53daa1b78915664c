// Minimal fork-join helper for embarrassingly parallel loops (ground truth,
// k-means, HNSW construction). Deliberately tiny: static range
// partitioning over std::thread, no work stealing — the workloads we split
// are uniform.
//
// Loops do not nest: a ParallelFor / ParallelForShards / ParallelForEach
// called from inside another one's callback runs inline on the calling
// worker, so a parallel outer loop (PQ's per-sub-space k-means) never
// multiplies the thread count of the inner one.
#ifndef RESINFER_UTIL_PARALLEL_H_
#define RESINFER_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace resinfer {

// Number of worker threads used by ParallelFor and the serving executor.
// Resolution order: SetDefaultThreadCount (explicit, for tests and
// single-thread benchmarking), then the RESINFER_THREADS environment
// variable (a positive integer, mirroring RESINFER_SIMD_LEVEL's
// run-without-recompiling override; invalid values are ignored with a
// one-time stderr note), then hardware concurrency.
int DefaultThreadCount();
void SetDefaultThreadCount(int threads);

// Resolves a caller-requested thread count: positive values pass through,
// zero and negative values (e.g. a BatchOptions::num_threads accidentally
// initialized to -1) clamp to DefaultThreadCount().
int ResolveThreadCount(int requested);

// Invokes fn(begin, end) on contiguous shards of [0, n). fn must be
// thread-safe across disjoint ranges. Runs inline when n < 1024 or only
// one thread is configured.
void ParallelFor(int64_t n,
                 const std::function<void(int64_t begin, int64_t end)>& fn);

// ParallelFor for coarse items, each worth at least tens of microseconds
// (a query tile of an exact-KNN pass, one sub-space's k-means): splits
// [0, n) into min(threads, n) contiguous shards with no small-n cutoff.
// threads <= 0 resolves to DefaultThreadCount().
void ParallelForShards(
    int64_t n, int threads,
    const std::function<void(int64_t begin, int64_t end)>& fn);

// Per-index convenience wrapper: fn(i, thread_id) for i in [0, n), in
// dynamically claimed batches of 64. Runs inline when n < 256.
void ParallelForEach(
    int64_t n, const std::function<void(int64_t index, int thread_id)>& fn);

}  // namespace resinfer

#endif  // RESINFER_UTIL_PARALLEL_H_
