// Shared pieces of the end-to-end benchmark: fixed configuration, the
// report every workload fills, order statistics, answer fingerprints and
// /proc readers.
#ifndef RESINFER_BENCH_E2E_BENCH_UTIL_H_
#define RESINFER_BENCH_E2E_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "trace.h"

namespace e2e {

// --- Fixed configuration (echoed with every result) ----------------------

inline constexpr int kTopK = 10;
inline constexpr int kNprobe = 16;
inline constexpr int64_t kDim = 128;
// Ground truth is brute force on the first kGtQueries query rows.
inline constexpr int64_t kGtQueries = 200;
// The corpus (base points and the training queries the corrector learns
// from) is fixed, like a public dataset; the seed draws the queries and the
// arrival order. Across corpus seeds the learned operating point moves
// (DESIGN.md), which would swamp the run-to-run comparison.
inline constexpr uint64_t kCorpusSeed = 20250101;
// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout (persisted indexes, child
  // results) and the path the span log is written to.
  std::string work_dir;
  std::string trace_path;
};

// --- Report --------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  // Spread of the samples the value summarizes (median runs); equal to
  // value for single measurements and exact counts.
  double q1 = 0.0;
  double q3 = 0.0;
  int64_t samples = 1;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Free-form configuration and check results, echoed as JSON.
  std::map<std::string, std::string> config;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit);
  // Median of `samples`, with quartiles.
  void SetMedian(const std::string& name, std::vector<double> samples,
                 const std::string& unit);
  void Fail(const std::string& why);
  void Echo(const std::string& key, double value);
};

// --- Statistics ----------------------------------------------------------

// Linear-interpolated quantile of unsorted samples, p in [0, 1]; 0 when
// empty.
double Quantile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

// --- Answers -------------------------------------------------------------

// Bit-identity of two answers: same ids in the same order, same distance
// bits.
bool SameAnswer(const std::vector<resinfer::index::Neighbor>& a,
                const std::vector<resinfer::index::Neighbor>& b);
uint64_t AnswerHash(const std::vector<resinfer::index::Neighbor>& answer);
bool SameStats(const resinfer::index::ComputerStats& a,
               const resinfer::index::ComputerStats& b);

// Rows [0, count) of `m` as a new matrix.
resinfer::linalg::Matrix HeadRows(const resinfer::linalg::Matrix& m,
                                  int64_t count);

// Mean recall@k of `answers[0, truth.size())` against `truth`.
double RecallOf(const std::vector<std::vector<resinfer::index::Neighbor>>&
                    answers,
                const std::vector<std::vector<int64_t>>& truth);

// sift-proxy d=128 inputs: the fixed corpus and `num_queries` queries
// drawn from `seed`. `data` only builds inputs, and its cost is excluded
// from every metric.
resinfer::data::Dataset MakeInputs(int64_t num_base, int64_t num_queries,
                                   int64_t num_train, uint64_t seed);

// Per-query IvfIndex::Search answers: the documented contract grouped and
// served answers must match bit for bit.
std::vector<std::vector<resinfer::index::Neighbor>> PerQueryReference(
    const resinfer::index::IvfIndex& ivf,
    resinfer::index::DistanceComputer& computer,
    const resinfer::linalg::Matrix& queries);

// Core-layer figures derived from ComputerStats over `queries` queries
// (these repeat exactly run to run). Bytes per query are computed, not
// measured: candidates x record stride plus exact rescores x row bytes.
void ReportComputerCounts(const resinfer::index::ComputerStats& stats,
                          int64_t queries, int64_t record_stride,
                          int64_t row_bytes, Report* report);

// Core-layer timings from the forwarding computers' totals.
void ReportCoreTimes(const CoreTotals& totals,
                     const resinfer::index::ComputerStats& stats,
                     int64_t queries, Report* report);

// Stage-sum check of the traced run: the layers' self times must add up
// to the measured wall within 5%, and none may be negative (beyond 1% of
// the wall, for clock jitter). Reports trace.stage_sum_err_pct and fails
// the report otherwise.
void CheckStages(double stage_sum_s, double wall_s,
                 const std::vector<double>& parts_s, Report* report);

// Every per-layer metric, zero-filled; a workload overwrites the layers it
// crosses, so layers a workload does not touch read 0.
void ZeroLayerMetrics(Report* report);

// --- Process probes ------------------------------------------------------

double PeakRssMib();  // VmHWM
// Returns freed heap to the system (malloc_trim) and restarts VmHWM at the
// current RSS, so the next PeakRssMib covers only what follows: live data,
// not the set-up's garbage, whose retention depends on thread timing.
// False when the kernel refuses the reset.
bool ResetPeakRss();
struct Faults {
  int64_t minor = 0;
  int64_t major = 0;
};
Faults ProcessFaults();
// Resident MiB of the mapping that contains `addr` (/proc/self/smaps).
double MappingResidentMib(const void* addr);

// Writes every span of `logs` as JSON lines (times in microseconds since
// the first span), then the count of spans not stored (`dropped` plus the
// logs' own).
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, int64_t dropped);

}  // namespace e2e

#endif  // RESINFER_BENCH_E2E_BENCH_UTIL_H_
