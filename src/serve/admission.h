// Coalescing admission for online IVF serving.
//
// The grouped scan (IvfIndex::SearchBatchRange, PR 4) shares bucket
// streams and per-query setup across up to kMaxQueryGroup queries — but
// until now a caller had to materialize thousands of queries and pre-sort
// them by probe list to reach it. A server does not get that luxury:
// queries arrive one at a time, in arbitrary order, from many clients.
//
// IvfServer makes batching emerge from traffic instead. Submit(query, k,
// nprobe) ranks the query's probe centroids once (the same ranking Search
// would perform first — handing the list to SearchBatchRange means it is
// never paid twice) and files the request under the coalescing key
// (k, nprobe, lead centroid). Requests sharing a key accumulate into a
// pending group; a group is dispatched to the work-stealing executor when
//
//   * it reaches max_group_size members (a full flush), or
//   * its oldest member has lingered past linger_micros (the bounded
//     latency cost of waiting for co-probing traffic) AND a worker can
//     actually take it, or
//   * Flush()/Shutdown() drains it.
//
// The AND clause is adaptive batching under saturation: when every worker
// already has queued follow-on work, dispatching an expired group would
// only move its wait from the admission side into the executor queue, as
// a needlessly small group. Holding it costs no end-to-end latency to
// first order — the members wait either way — but lets the group keep
// coalescing with incoming traffic, so occupancy (and throughput) rises
// exactly when the system needs it. The linger budget is therefore the
// bound on *voluntary idle* waiting; under backlog a request's wait is
// queue-drain-dominated, as in any saturated server.
//
// Dispatched groups run through SearchBatchRange, whose contract makes
// every member's answer bit-identical to a solo Search(query, k, nprobe)
// — coalescing changes memory traffic and throughput, never results. Keys
// include k and nprobe so requests with different parameters are never
// mixed into one grouped scan.
//
// Lead-centroid affinity is deliberately coarse: queries whose nearest
// centroid agrees overlap heavily in their remaining probe lists (they are
// close in space), so grouping by the lead captures most of the co-probe
// sharing that full lexicographic sorting finds, at O(1) admission cost.
// At dispatch the flusher additionally tops an expired group up to
// max_group_size with members of pending same-(k, nprobe) groups whose
// lead centroid is spatially closest to the expired group's lead (a
// centroid-to-centroid neighbor ranking computed once at construction) —
// each member carries its own probe list, so mixed leads stay
// bit-identical — which rebuilds the dense packing of a pre-sorted batch
// (whose groups also span several adjacent leads) from online traffic.
#ifndef RESINFER_SERVE_ADMISSION_H_
#define RESINFER_SERVE_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "index/batch.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "serve/executor.h"
#include "util/histogram.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace resinfer::serve {

struct AdmissionOptions {
  // Executor width; <= 0 resolves to DefaultThreadCount().
  int num_threads = 0;
  // Coalescing cap per group, clamped to [1, index::kMaxQueryGroup] (the
  // grouped-scan tiling width — larger groups would be chunked anyway).
  int max_group_size = index::kMaxQueryGroup;
  // How long a partial group may wait for co-probing traffic while a
  // worker could serve it (see the header: under saturation an expired
  // group is held longer and keeps coalescing, since dispatching it would
  // only requeue the wait). The knob trades idle-system tail latency for
  // occupancy; 100-500us covers one to a few query service times at
  // serving-relevant sizes.
  int64_t linger_micros = 200;
  // When false, every request is dispatched solo the moment it arrives —
  // the baseline an A/B against coalescing wants.
  bool coalesce = true;
};

struct ServingStats {
  int64_t requests = 0;
  int64_t groups = 0;           // groups dispatched
  int64_t full_flushes = 0;     // dispatched at max_group_size
  int64_t linger_flushes = 0;   // dispatched by the linger deadline
  int64_t drain_flushes = 0;    // dispatched by Flush()/Shutdown()
  // Members per dispatched group; mean() is the achieved occupancy.
  Histogram group_occupancy;
  // Submit-to-completion wall per request (includes linger and queueing —
  // the latency a client observes, not just the scan).
  Histogram latency_seconds;
  // Computer counters summed across workers. Each dispatched group's
  // counter delta is folded in under the stats mutex when its scan
  // completes, so a snapshot is always coherent — it reflects exactly the
  // groups that had finished at snapshot time, and reading it concurrently
  // with in-flight searches is race-free. (This used to be an unguarded
  // sweep over the live worker computers, the kind of lock-discipline hole
  // the thread-safety annotations now make a compile error.)
  index::ComputerStats computer_stats;

  double MeanOccupancy() const { return group_occupancy.mean(); }
};

// What get() throws on the future of a request the server refused.
class RequestRejected : public std::runtime_error {
 public:
  explicit RequestRejected(util::Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}
  const util::Status& status() const { return status_; }

 private:
  util::Status status_;
};

class IvfServer {
 public:
  // `index` and the computers `factory` builds must outlive the server;
  // one computer is built per executor worker up front. The index must
  // have at least one cluster.
  IvfServer(const index::IvfIndex* index, index::ComputerFactory factory);
  IvfServer(const index::IvfIndex* index, index::ComputerFactory factory,
            const AdmissionOptions& options);
  ~IvfServer();  // calls Shutdown()

  IvfServer(const IvfServer&) = delete;
  IvfServer& operator=(const IvfServer&) = delete;

  // Admits one query (dim() floats; copied, the caller's buffer may be
  // reused immediately). Thread-safe. The future resolves to the same
  // neighbors Search(computer, query, k, nprobe) returns, bit-identically;
  // k <= 0 resolves to an empty result without being grouped. Once
  // Shutdown has begun the request is refused: the future is ready at once
  // and get() throws RequestRejected with a FAILED_PRECONDITION status.
  std::future<std::vector<index::Neighbor>> Submit(const float* query, int k,
                                                   int nprobe)
      RESINFER_EXCLUDES(pending_mu_, stats_mu_);

  // Dispatches every pending group immediately, regardless of linger
  // deadlines. Does not wait for them to finish.
  void Flush() RESINFER_EXCLUDES(pending_mu_, stats_mu_);

  // Stops the linger flusher, drains pending groups, and waits for every
  // in-flight search to complete. Idempotent; the destructor calls it.
  void Shutdown() RESINFER_EXCLUDES(pending_mu_, stats_mu_);

  // Safe to call at any time, including while searches are in flight.
  ServingStats stats() const RESINFER_EXCLUDES(stats_mu_);
  Executor::Stats executor_stats() const { return executor_.stats(); }
  int num_threads() const { return executor_.num_threads(); }
  int64_t dim() const { return dim_; }

 private:
  struct GroupKey {
    int k = 0;
    int nprobe = 0;
    int32_t lead_centroid = 0;
    bool operator<(const GroupKey& other) const {
      if (k != other.k) return k < other.k;
      if (nprobe != other.nprobe) return nprobe < other.nprobe;
      return lead_centroid < other.lead_centroid;
    }
  };

  struct PendingGroup {
    GroupKey key;
    // Member queries back to back (count * dim floats) and their probe
    // lists (count * nprobe_used ids) — already the layout the grouped
    // scan wants.
    std::vector<float> queries;
    std::vector<int32_t> probes;
    std::vector<std::promise<std::vector<index::Neighbor>>> promises;
    std::vector<std::chrono::steady_clock::time_point> admitted_at;
    std::chrono::steady_clock::time_point deadline;
    int64_t count() const {
      return static_cast<int64_t>(promises.size());
    }
  };

  // A ready future carrying RequestRejected (Submit after Shutdown).
  static std::future<std::vector<index::Neighbor>> Rejected();
  // Moves the group onto the executor.
  void Dispatch(std::shared_ptr<PendingGroup> group)
      RESINFER_EXCLUDES(pending_mu_, stats_mu_);
  // Moves members from `from` into `to` up to max_group_size (both must
  // share (k, nprobe)).
  void TakeMembers(PendingGroup& from, PendingGroup& to)
      RESINFER_REQUIRES(pending_mu_);
  void FlusherLoop() RESINFER_EXCLUDES(pending_mu_, stats_mu_);

  const index::IvfIndex* index_;
  int64_t dim_ = 0;
  AdmissionOptions options_;
  // Row c: centroid ids nearest centroid c (c itself first), used to pick
  // spatially-adjacent donors when topping up a dispatched group. Capped
  // at kNeighborLeads entries per centroid; immutable after construction.
  static constexpr int kNeighborLeads = 64;
  std::vector<std::vector<int32_t>> centroid_neighbors_;

  Executor executor_;
  std::vector<std::unique_ptr<index::DistanceComputer>> computers_;

  // Lock order: pending_mu_ and stats_mu_ are never held together —
  // Submit, Dispatch, Flush, and the flusher all drop one before taking
  // the other.
  mutable util::Mutex pending_mu_;
  std::map<GroupKey, std::shared_ptr<PendingGroup>> pending_
      RESINFER_GUARDED_BY(pending_mu_);
  util::CondVar flusher_cv_;
  bool accepting_ RESINFER_GUARDED_BY(pending_mu_) = true;
  bool stop_flusher_ RESINFER_GUARDED_BY(pending_mu_) = false;
  bool shut_down_ RESINFER_GUARDED_BY(pending_mu_) = false;
  std::thread flusher_;

  mutable util::Mutex stats_mu_;
  ServingStats stats_ RESINFER_GUARDED_BY(stats_mu_);
};

}  // namespace resinfer::serve

#endif  // RESINFER_SERVE_ADMISSION_H_
