// Span recording for the traced run, plus the forwarding DistanceComputer
// that records the `core` layer from outside the library.
//
// Spans are kept in memory per thread and written out when the run ends.
// Every span has a name, a start, an end, a parent span id and a request
// id. The benchmark opens spans around its own calls into the library
// (index build, persist save/load, Search, BatchSearchIvf, Submit); the
// TracingComputer below opens spans around every call the index makes
// into the computer. A layer the benchmark cannot see inside is reported
// as its call span minus its child spans.
//
// Per-call spans into the computer would be hundreds per query, so the
// TracingComputer folds the calls of one query run (everything between two
// query switches) into one stored span whose `busy` field is the time
// spent inside the calls. Totals over every call are kept separately, so
// the per-layer figures never depend on how many spans were stored.
#ifndef RESINFER_BENCH_E2E_TRACE_H_
#define RESINFER_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

#include "index/distance_computer.h"

namespace e2e {

// Tick source for spans: the TSC on x86-64, where it costs about half a
// steady_clock read on virtualized hosts (that matters at one span pair
// per 32-candidate block), and steady_clock elsewhere. TicksToSeconds
// calibrates against steady_clock over the whole process lifetime.
inline int64_t Ticks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return std::chrono::steady_clock::now().time_since_epoch().count();
#endif
}

// Records the calibration origin; call once at process start.
void StartTickCalibration();
double TicksToSeconds(int64_t ticks);
double TicksPerSecond();

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  int64_t id = 0;
  int64_t parent = -1;    // -1 = root
  int64_t request = -1;   // query row the span serves; -1 = none
  int thread = 0;
  int64_t start = 0;      // ticks
  int64_t end = 0;        // ticks
  // Time inside the recorded calls; equals end - start except for folded
  // computer runs, whose gaps belong to the caller (the index).
  int64_t busy = 0;
  int64_t calls = 1;
};

// One thread's span buffer. Not thread-safe: each thread (the benchmark's
// main thread, each serving worker's computer) owns its own log.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}

  static int64_t NextId();

  // Stores the span when capacity remains; the caller's totals are kept
  // either way. Returns the span id.
  int64_t Add(const char* name, int64_t parent, int64_t request,
              int64_t start, int64_t end, int64_t busy, int64_t calls);
  // Same, under an id the caller took from NextId() earlier.
  void AddWithId(int64_t id, const char* name, int64_t parent,
                 int64_t request, int64_t start, int64_t end, int64_t busy,
                 int64_t calls);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  // Keeps a run's trace file to a few MiB.
  static constexpr std::size_t kCapacity = 20000;
  int thread_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

// RAII span on a SpanLog; the parent is whatever span the caller names.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             int64_t request = -1)
      : log_(log), name_(name), parent_(parent), request_(request),
        id_(SpanLog::NextId()), start_(Ticks()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span now and returns its duration in seconds (idempotent).
  double Close();
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  int64_t parent_;
  int64_t request_;
  int64_t id_;
  int64_t start_;
  int64_t end_ = -1;
};

// Per-computer totals over every forwarded call.
struct CoreTotals {
  int64_t state_ticks = 0;  // BeginQuery / SetQueryBatch / SelectQuery
  int64_t state_calls = 0;
  int64_t estimate_ticks = 0;  // EstimateWithThreshold / EstimateBatch* /
  int64_t estimate_calls = 0;  // ExactDistance
  // Co-probe sharing: member scans of a bucket stream, and distinct
  // streams, counted per query group (grouped scans only).
  int64_t member_scans = 0;
  int64_t streams = 0;

  CoreTotals& operator+=(const CoreTotals& other);
};

// A query group as the computer saw it (serving runs): when its scan
// started and ended, and which requests it carried.
struct GroupScan {
  int64_t start = 0;
  int64_t end = 0;
  int64_t core_ticks = 0;  // inside computer calls during the scan
  std::vector<int64_t> requests;
};

// Collects what TracingComputers recorded when they are destroyed, since
// the library owns them (BatchSearchIvf and IvfServer build one per worker
// through the ComputerFactory and drop them when done). Thread-safe.
class TraceSink {
 public:
  void Absorb(const CoreTotals& totals, SpanLog log,
              std::vector<GroupScan> groups);

  // Read once every computer feeding the sink is gone.
  const CoreTotals& totals() const { return totals_; }
  const std::vector<SpanLog>& logs() const { return logs_; }
  const std::vector<GroupScan>& groups() const { return groups_; }
  int64_t dropped_spans() const { return dropped_spans_; }

 private:
  // Bounds the span file of one run.
  static constexpr std::size_t kMaxStoredSpans = 60000;
  std::mutex mu_;
  CoreTotals totals_;
  std::vector<SpanLog> logs_;
  std::size_t stored_spans_ = 0;
  int64_t dropped_spans_ = 0;
  std::vector<GroupScan> groups_;
};

// Forwarding DistanceComputer: every virtual goes to the wrapped computer,
// so the index takes exactly the path it takes untraced (same code tag,
// same code store, same scan-order hint, same counters); state and
// estimate calls are timed into totals and folded spans, which go to the
// sink when the computer is destroyed.
class TracingComputer final : public resinfer::index::DistanceComputer {
 public:
  // Maps a query row the index hands over (a copy of one of the
  // benchmark's queries) back to the request it serves; -1 = unknown.
  using RequestResolver = std::function<int64_t(const float* query)>;

  // `sink` must outlive the computer.
  TracingComputer(std::unique_ptr<resinfer::index::DistanceComputer> inner,
                  TraceSink* sink, int thread, int64_t parent_span,
                  RequestResolver resolver = nullptr);
  ~TracingComputer() override;
  TracingComputer(const TracingComputer&) = delete;
  TracingComputer& operator=(const TracingComputer&) = delete;

  int64_t dim() const override { return inner_->dim(); }
  int64_t size() const override { return inner_->size(); }
  std::string name() const override { return inner_->name(); }

  void BeginQuery(const float* query) override;
  resinfer::index::EstimateResult EstimateWithThreshold(int64_t id,
                                                        float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     resinfer::index::EstimateResult* out) override;
  std::string code_tag() const override { return inner_->code_tag(); }
  resinfer::quant::CodeStore MakeCodeStore() const override {
    return inner_->MakeCodeStore();
  }
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids, int count,
                          float tau,
                          resinfer::index::EstimateResult* out) override;
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override;
  void SelectQuery(int g) override;
  void EstimateBatchGroup(const int64_t* ids, int count, const int* members,
                          int num_members, const float* taus,
                          resinfer::index::EstimateResult* out) override;
  void EstimateBatchCodesGroup(const uint8_t* codes, const int64_t* ids,
                               int count, const int* members,
                               int num_members, const float* taus,
                               resinfer::index::EstimateResult* out) override;
  bool group_scan_tiles_blocks() const override {
    return inner_->group_scan_tiles_blocks();
  }
  float ExactDistance(int64_t id) override;
  void SetExpansionAnchor(int64_t node, float distance_to_node) override {
    inner_->SetExpansionAnchor(node, distance_to_node);
  }
  resinfer::index::ComputerStats& stats() override { return inner_->stats(); }
  const resinfer::index::ComputerStats& stats() const override {
    return inner_->stats();
  }

  // Sets the parent of the spans opened from now on and the request they
  // serve (single-query runs, where the benchmark knows both).
  void SetContext(int64_t parent_span, int64_t request) {
    parent_ = parent_span;
    request_ = request;
  }

 private:
  // Starts a new query run (state call at `start`), closing the previous.
  void OpenRun(int64_t start, int64_t request);
  void CloseRun();
  // Accounts one estimate call [start, end) to the open run; `stream`
  // identifies the bucket stream when the call begins a member's scan.
  void EstimateDone(int64_t start, int64_t end, const void* stream);
  void CloseGroup();

  std::unique_ptr<resinfer::index::DistanceComputer> inner_;
  TraceSink* sink_;
  RequestResolver resolver_;
  SpanLog log_;
  CoreTotals totals_;
  int64_t parent_ = -1;
  int64_t request_ = -1;

  // Open run (one query's estimate calls between two switches).
  bool run_open_ = false;
  int64_t run_request_ = -1;
  int64_t run_start_ = 0;
  int64_t run_end_ = 0;
  int64_t run_busy_ = 0;
  int64_t run_calls_ = 0;
  bool run_first_call_ = false;  // next estimate call starts a member scan

  // Open query group (SetQueryBatch .. next SetQueryBatch / destruction).
  bool group_open_ = false;
  GroupScan group_;
  std::vector<int64_t> group_requests_;
  std::vector<const void*> group_streams_;
  std::vector<GroupScan> groups_;
};

}  // namespace e2e

#endif  // RESINFER_BENCH_E2E_TRACE_H_
