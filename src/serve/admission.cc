#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "linalg/matrix.h"
#include "quant/kmeans.h"
#include "storage/storage.h"
#include "util/macros.h"

namespace resinfer::serve {

namespace {
using Clock = std::chrono::steady_clock;

util::Status ShutdownStatus() {
  return util::Status::FailedPrecondition("IvfServer: Submit after Shutdown");
}
}  // namespace

IvfServer::IvfServer(const index::IvfIndex* index,
                     index::ComputerFactory factory)
    : IvfServer(index, std::move(factory), AdmissionOptions()) {}

IvfServer::IvfServer(const index::IvfIndex* index,
                     index::ComputerFactory factory,
                     const AdmissionOptions& options)
    : index_(index),
      options_(options),
      executor_([&options] {
        Executor::Options eo;
        eo.num_threads = options.num_threads;
        return eo;
      }()) {
  RESINFER_CHECK(index_ != nullptr);
  RESINFER_CHECK(index_->num_clusters() > 0);
  RESINFER_CHECK(factory != nullptr);
  options_.max_group_size =
      std::clamp(options_.max_group_size, 1, index::kMaxQueryGroup);
  options_.linger_micros = std::max<int64_t>(0, options_.linger_micros);

  computers_.reserve(static_cast<std::size_t>(executor_.num_threads()));
  for (int t = 0; t < executor_.num_threads(); ++t) {
    computers_.push_back(factory());
    RESINFER_CHECK(computers_.back() != nullptr);
  }
  dim_ = computers_.front()->dim();
  RESINFER_CHECK(dim_ == index_->centroids().cols());

  if (options_.coalesce) {
    // Rank each centroid's nearest centroids once: the dispatch-time
    // top-up walks this to pull spatially-adjacent donors first.
    const int num_clusters = index_->num_clusters();
    const int fanout = std::min(num_clusters, kNeighborLeads);
    centroid_neighbors_.resize(static_cast<std::size_t>(num_clusters));
    for (int c = 0; c < num_clusters; ++c) {
      centroid_neighbors_[static_cast<std::size_t>(c)] =
          quant::NearestCentroids(index_->centroids(),
                                  index_->centroids().Row(c), fanout);
    }
    flusher_ = std::thread(&IvfServer::FlusherLoop, this);
  }
}

IvfServer::~IvfServer() { Shutdown(); }

std::future<std::vector<index::Neighbor>> IvfServer::Submit(
    const float* query, int k, int nprobe) {
  RESINFER_CHECK(query != nullptr);
  const Clock::time_point admitted_at = Clock::now();

  // A NaN or infinite coordinate has no nearest neighbours; refused before
  // it can reach the ranking or a group, and not counted as a request.
  if (!std::all_of(query, query + dim_,
                   [](float v) { return std::isfinite(v); })) {
    return Rejected(util::Status::InvalidArgument(
        "IvfServer: query has a non-finite coordinate"));
  }

  if (k <= 0) {
    {
      util::MutexLock lock(pending_mu_);
      if (!accepting_) return Rejected(ShutdownStatus());
    }
    // Mirrors Search's clamp: an empty answer, no group membership.
    std::promise<std::vector<index::Neighbor>> promise;
    promise.set_value({});
    util::MutexLock lock(stats_mu_);
    ++stats_.requests;
    stats_.latency_seconds.Add(0.0);
    return promise.get_future();
  }

  // The same centroid ranking Search performs first; doing it at admission
  // yields the affinity key, and the list rides along to SearchBatchRange
  // so the work is never repeated.
  const int nprobe_used = std::clamp(nprobe, 1, index_->num_clusters());
  std::vector<int32_t> probes =
      quant::NearestCentroids(index_->centroids(), query, nprobe_used);
  const GroupKey key{k, nprobe, probes.front()};

  std::shared_ptr<PendingGroup> to_dispatch;
  std::future<std::vector<index::Neighbor>> future;
  bool new_group = false;
  {
    util::MutexLock lock(pending_mu_);
    // Checked under the lock Shutdown takes, so a request is either
    // refused here or filed before Shutdown drains the pending groups.
    if (!accepting_) return Rejected(ShutdownStatus());
    std::shared_ptr<PendingGroup>* slot = nullptr;
    if (options_.coalesce) {
      auto [it, inserted] = pending_.try_emplace(key);
      if (inserted) {
        it->second = std::make_shared<PendingGroup>();
        it->second->key = key;
        it->second->deadline =
            admitted_at + std::chrono::microseconds(options_.linger_micros);
        new_group = true;
      }
      slot = &it->second;
    } else {
      to_dispatch = std::make_shared<PendingGroup>();
      to_dispatch->key = key;
      slot = &to_dispatch;
    }
    PendingGroup& group = **slot;
    group.queries.insert(group.queries.end(), query, query + dim_);
    group.probes.insert(group.probes.end(), probes.begin(), probes.end());
    group.admitted_at.push_back(admitted_at);
    group.promises.emplace_back();
    future = group.promises.back().get_future();
    if (options_.coalesce && group.count() >= options_.max_group_size) {
      to_dispatch = std::move(*slot);
      pending_.erase(key);
      new_group = false;
    }
  }
  {
    util::MutexLock lock(stats_mu_);
    ++stats_.requests;
    if (to_dispatch != nullptr && options_.coalesce) ++stats_.full_flushes;
  }
  if (to_dispatch != nullptr) {
    Dispatch(std::move(to_dispatch));
  } else if (new_group) {
    flusher_cv_.NotifyOne();  // a fresh deadline may now be the earliest
  }
  return future;
}

std::future<std::vector<index::Neighbor>> IvfServer::Rejected(
    util::Status status) {
  std::promise<std::vector<index::Neighbor>> promise;
  promise.set_exception(
      std::make_exception_ptr(RequestRejected(std::move(status))));
  return promise.get_future();
}

// Moves as many members as still fit in `to` from the front of `from`.
// Both groups must share (k, nprobe), so probe rows have one stride.
void IvfServer::TakeMembers(PendingGroup& from, PendingGroup& to) {
  const int64_t take =
      std::min<int64_t>(options_.max_group_size - to.count(), from.count());
  if (take <= 0) return;
  const int64_t stride =
      static_cast<int64_t>(from.probes.size()) / from.count();
  to.queries.insert(to.queries.end(), from.queries.begin(),
                    from.queries.begin() + take * dim_);
  from.queries.erase(from.queries.begin(),
                     from.queries.begin() + take * dim_);
  to.probes.insert(to.probes.end(), from.probes.begin(),
                   from.probes.begin() + take * stride);
  from.probes.erase(from.probes.begin(), from.probes.begin() + take * stride);
  to.promises.insert(to.promises.end(),
                     std::make_move_iterator(from.promises.begin()),
                     std::make_move_iterator(from.promises.begin() + take));
  from.promises.erase(from.promises.begin(), from.promises.begin() + take);
  to.admitted_at.insert(to.admitted_at.end(), from.admitted_at.begin(),
                        from.admitted_at.begin() + take);
  from.admitted_at.erase(from.admitted_at.begin(),
                         from.admitted_at.begin() + take);
}

void IvfServer::Dispatch(std::shared_ptr<PendingGroup> group) {
  {
    util::MutexLock lock(stats_mu_);
    ++stats_.groups;
    stats_.group_occupancy.Add(static_cast<double>(group->count()));
  }
  // Pin the code storage for the lifetime of the dispatched work: the
  // handle shares ownership of the backing bytes (heap block or mmap of
  // the index file), so the scan below reads from storage that cannot be
  // unmapped or freed under it regardless of which backend serves the
  // index — the bit-identity contract is backend-independent.
  storage::Blob storage_pin =
      index_->has_codes() ? index_->codes().storage() : storage::Blob();
  executor_.Submit([this, group = std::move(group),
                    pin = std::move(storage_pin)](int worker) {
    (void)pin;
    const int64_t count = group->count();
    linalg::Matrix queries(count, dim_);
    std::copy(group->queries.begin(), group->queries.end(), queries.data());
    std::vector<std::vector<index::Neighbor>> results(
        static_cast<std::size_t>(count));
    index::DistanceComputer& computer =
        *computers_[static_cast<std::size_t>(worker)];
    // The worker's computer is single-threaded state (only worker thread
    // `worker` ever touches it); snapshotting its cumulative counters
    // around the scan yields this group's delta, which is folded into the
    // guarded stats below. That keeps ServingStats::computer_stats
    // coherent under concurrent stats() calls — the live computers are
    // never read from another thread.
    const index::ComputerStats before = computer.stats();
    index_->SearchBatchRange(computer, queries, 0, count, group->key.k,
                             group->key.nprobe, results.data(),
                             group->probes.data());
    index::ComputerStats scan_stats = computer.stats();
    scan_stats -= before;
    const Clock::time_point done = Clock::now();
    {
      util::MutexLock lock(stats_mu_);
      for (int64_t i = 0; i < count; ++i) {
        stats_.latency_seconds.Add(
            std::chrono::duration<double>(
                done - group->admitted_at[static_cast<std::size_t>(i)])
                .count());
      }
      stats_.computer_stats += scan_stats;
    }
    for (int64_t i = 0; i < count; ++i) {
      group->promises[static_cast<std::size_t>(i)].set_value(
          std::move(results[static_cast<std::size_t>(i)]));
    }
    // Capacity just freed: wake the flusher so a held group (adaptive
    // batching under saturation) dispatches immediately, not on a poll.
    flusher_cv_.NotifyOne();
  });
}

void IvfServer::FlusherLoop() {
  while (true) {
    // One expired group is extracted per lock hold; the dispatch itself
    // happens outside the critical section so Submit never blocks behind
    // executor handoff.
    std::shared_ptr<PendingGroup> group;
    {
      util::MutexLock lock(pending_mu_);
      if (stop_flusher_) return;
      if (pending_.empty()) {
        while (!stop_flusher_ && pending_.empty()) {
          flusher_cv_.Wait(pending_mu_);
        }
        continue;
      }
      auto oldest = pending_.begin();
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->second->deadline < oldest->second->deadline) oldest = it;
      }
      if (Clock::now() < oldest->second->deadline) {
        // A copy: the wait releases the lock, and a Submit that fills the
        // group may dispatch and free it before the wait re-reads the time.
        const Clock::time_point deadline = oldest->second->deadline;
        flusher_cv_.WaitUntil(pending_mu_, deadline);
        continue;  // re-evaluate: new groups / Flush / stop may have raced
      }
      // The oldest group has expired. If every worker already has queued
      // follow-on work, dispatching now would only move its wait from the
      // admission side into the executor queue — hold it instead, where it
      // keeps coalescing with incoming traffic, and re-check as the queue
      // drains (adaptive batching under saturation; see the header).
      if (executor_.queued() >= executor_.num_threads()) {
        // Workers notify flusher_cv_ as groups complete, so this wakes as
        // soon as capacity frees; the timeout is only a safety net.
        flusher_cv_.WaitFor(pending_mu_, std::chrono::milliseconds(1));
        continue;
      }
      group = std::move(oldest->second);
      pending_.erase(oldest);
      // Top the group up to max_group_size with members of pending groups
      // that share (k, nprobe), nearest lead centroid first: probe lists
      // ride per member, so mixed leads stay bit-identical, and spatial
      // adjacency keeps the co-probe sharing dense — this rebuilds the
      // packing a pre-sorted batch enjoys (whose groups also span several
      // adjacent leads) online, instead of stranding each lead in its own
      // small dispatch. Donors keep their deadline for whatever remains.
      const auto& neighbors = centroid_neighbors_[static_cast<std::size_t>(
          group->key.lead_centroid)];
      for (int32_t lead : neighbors) {
        if (group->count() >= options_.max_group_size) break;
        auto donor_it =
            pending_.find(GroupKey{group->key.k, group->key.nprobe, lead});
        if (donor_it == pending_.end()) continue;
        TakeMembers(*donor_it->second, *group);
        if (donor_it->second->count() == 0) pending_.erase(donor_it);
      }
      // Fallback beyond the neighbor fanout: with only a handful of pending
      // groups (light load), amortizing the group overhead beats insisting
      // on spatial adjacency, so take any same-(k, nprobe) donor.
      auto donor_it =
          pending_.lower_bound(GroupKey{group->key.k, group->key.nprobe, 0});
      while (group->count() < options_.max_group_size &&
             donor_it != pending_.end() &&
             donor_it->first.k == group->key.k &&
             donor_it->first.nprobe == group->key.nprobe) {
        TakeMembers(*donor_it->second, *group);
        donor_it = donor_it->second->count() == 0 ? pending_.erase(donor_it)
                                                  : ++donor_it;
      }
    }
    {
      util::MutexLock stats_lock(stats_mu_);
      ++stats_.linger_flushes;
    }
    Dispatch(std::move(group));
  }
}

void IvfServer::Flush() {
  std::vector<std::shared_ptr<PendingGroup>> drained;
  {
    util::MutexLock lock(pending_mu_);
    drained.reserve(pending_.size());
    for (auto& [key, group] : pending_) drained.push_back(std::move(group));
    pending_.clear();
  }
  {
    util::MutexLock lock(stats_mu_);
    stats_.drain_flushes += static_cast<int64_t>(drained.size());
  }
  for (auto& group : drained) Dispatch(std::move(group));
}

void IvfServer::Shutdown() {
  {
    util::MutexLock lock(pending_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    accepting_ = false;
    stop_flusher_ = true;
  }
  flusher_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  Flush();
  executor_.Shutdown();  // waits for every dispatched group to complete
}

ServingStats IvfServer::stats() const {
  // computer_stats is folded in per completed group under stats_mu_
  // (see Dispatch), so the snapshot is coherent even mid-flight.
  util::MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace resinfer::serve
