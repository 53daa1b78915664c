// The benchmark's workloads. Each builds its inputs from the seed, sets up
// the served index several times (setup_s is the median), checks every
// answer against per-query IvfIndex::Search, and fills a Report with the
// end-to-end metrics (untraced) or the per-layer metrics (--trace 1).
#ifndef RESINFER_BENCH_E2E_WORKLOADS_H_
#define RESINFER_BENCH_E2E_WORKLOADS_H_

#include <string>

#include "bench_util.h"
#include "trace.h"

namespace e2e {

// Recall@10 floors of the correctness gate, on the ground-truth subset.
inline constexpr double kRecallFloorOpq = 0.97;
inline constexpr double kRecallFloorPca = 0.97;

Report RunGroupedOpq(const Options& opt, SpanLog* log);
Report RunServeOpen(const Options& opt, SpanLog* log);
Report RunSinglePcaMmap(const Options& opt, SpanLog* log,
                        const std::string& self_exe);

// The fresh serving process of single-pca-mmap: loads the persisted index
// from `dir` with the mmap backend and, unless `load_only`, serves it.
// Writes its results to a file in `dir`; returns the exit code.
int ServeMappedChild(const std::string& dir, double seconds, bool trace,
                     bool load_only, const std::string& trace_path);

}  // namespace e2e

#endif  // RESINFER_BENCH_E2E_WORKLOADS_H_
