#include "trace.h"

#include <algorithm>
#include <chrono>

namespace e2e {

namespace {

struct Calibration {
  std::chrono::steady_clock::time_point wall;
  int64_t ticks = 0;
};
Calibration g_origin;

std::atomic<int64_t> g_next_span_id{0};

// Keeps serving runs' group lists bounded (a few MiB).
constexpr std::size_t kMaxGroups = 200000;

}  // namespace

void StartTickCalibration() {
  g_origin.wall = std::chrono::steady_clock::now();
  g_origin.ticks = Ticks();
}

double TicksToSeconds(int64_t ticks) {
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - g_origin.wall)
                          .count();
  const int64_t elapsed = Ticks() - g_origin.ticks;
  if (elapsed <= 0 || wall <= 0.0) return 0.0;
  return static_cast<double>(ticks) * wall / static_cast<double>(elapsed);
}

double TicksPerSecond() {
  const double one = TicksToSeconds(1000000000);
  return one > 0.0 ? 1e9 / one : 0.0;
}

CoreTotals& CoreTotals::operator+=(const CoreTotals& other) {
  state_ticks += other.state_ticks;
  state_calls += other.state_calls;
  estimate_ticks += other.estimate_ticks;
  estimate_calls += other.estimate_calls;
  member_scans += other.member_scans;
  streams += other.streams;
  return *this;
}

int64_t SpanLog::NextId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

int64_t SpanLog::Add(const char* name, int64_t parent, int64_t request,
                     int64_t start, int64_t end, int64_t busy,
                     int64_t calls) {
  const int64_t id = NextId();
  AddWithId(id, name, parent, request, start, end, busy, calls);
  return id;
}

void SpanLog::AddWithId(int64_t id, const char* name, int64_t parent,
                        int64_t request, int64_t start, int64_t end,
                        int64_t busy, int64_t calls) {
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return;
  }
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.thread = thread_;
  span.start = start;
  span.end = end;
  span.busy = busy;
  span.calls = calls;
  spans_.push_back(span);
}

double ScopedSpan::Close() {
  if (end_ < 0) {
    end_ = Ticks();
    // Stored under the id handed out at construction, so children that
    // named this span as parent resolve.
    if (log_ != nullptr) {
      log_->AddWithId(id_, name_, parent_, request_, start_, end_,
                      end_ - start_, 1);
    }
  }
  return TicksToSeconds(end_ - start_);
}

void TraceSink::Absorb(const CoreTotals& totals, SpanLog log,
                       std::vector<GroupScan> groups) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_ += totals;
  dropped_spans_ += log.dropped();
  if (stored_spans_ + log.spans().size() <= kMaxStoredSpans) {
    stored_spans_ += log.spans().size();
    logs_.push_back(std::move(log));
  } else {
    dropped_spans_ += static_cast<int64_t>(log.spans().size());
  }
  groups_.insert(groups_.end(), std::make_move_iterator(groups.begin()),
                 std::make_move_iterator(groups.end()));
}

TracingComputer::TracingComputer(
    std::unique_ptr<resinfer::index::DistanceComputer> inner,
    TraceSink* sink, int thread, int64_t parent_span,
    RequestResolver resolver)
    : inner_(std::move(inner)),
      sink_(sink),
      resolver_(std::move(resolver)),
      log_(thread),
      parent_(parent_span) {}

TracingComputer::~TracingComputer() {
  CloseRun();
  CloseGroup();
  sink_->Absorb(totals_, std::move(log_), std::move(groups_));
}

void TracingComputer::OpenRun(int64_t start, int64_t request) {
  CloseRun();
  run_open_ = true;
  run_request_ = request;
  run_start_ = start;
  run_end_ = start;
  run_busy_ = 0;
  run_calls_ = 0;
  run_first_call_ = true;
}

void TracingComputer::CloseRun() {
  if (!run_open_) return;
  run_open_ = false;
  if (run_calls_ == 0) return;
  log_.Add("core.estimate", parent_, run_request_, run_start_, run_end_,
           run_busy_, run_calls_);
}

void TracingComputer::EstimateDone(int64_t start, int64_t end,
                                   const void* stream) {
  totals_.estimate_ticks += end - start;
  ++totals_.estimate_calls;
  group_.core_ticks += end - start;
  if (!run_open_) OpenRun(start, request_);
  if (run_first_call_) {
    run_first_call_ = false;
    run_start_ = start;
    if (group_open_ && stream != nullptr) {
      ++totals_.member_scans;
      if (std::find(group_streams_.begin(), group_streams_.end(), stream) ==
          group_streams_.end()) {
        group_streams_.push_back(stream);
      }
    }
  }
  run_end_ = end;
  run_busy_ += end - start;
  ++run_calls_;
  if (group_open_) group_.end = end;
}

void TracingComputer::CloseGroup() {
  if (!group_open_) return;
  group_open_ = false;
  totals_.streams += static_cast<int64_t>(group_streams_.size());
  group_streams_.clear();
  if (resolver_ != nullptr && groups_.size() < kMaxGroups) {
    groups_.push_back(std::move(group_));
  }
  group_ = GroupScan();
}

void TracingComputer::BeginQuery(const float* query) {
  const int64_t start = Ticks();
  inner_->BeginQuery(query);
  const int64_t end = Ticks();
  totals_.state_ticks += end - start;
  ++totals_.state_calls;
  CloseGroup();
  log_.Add("core.begin_query", parent_, request_, start, end, end - start, 1);
  OpenRun(end, request_);
  // A single-query scan reads each probed bucket once: no stream sharing.
  run_first_call_ = false;
}

void TracingComputer::SetQueryBatch(const float* queries, int count,
                                    int64_t stride) {
  const int64_t start = Ticks();
  inner_->SetQueryBatch(queries, count, stride);
  const int64_t end = Ticks();
  totals_.state_ticks += end - start;
  ++totals_.state_calls;
  CloseRun();
  CloseGroup();
  group_open_ = true;
  group_.start = start;
  group_.end = end;
  group_.core_ticks = end - start;
  group_requests_.assign(static_cast<std::size_t>(count), -1);
  if (resolver_ != nullptr) {
    for (int g = 0; g < count; ++g) {
      group_requests_[g] = resolver_(queries + g * stride);
    }
    group_.requests = group_requests_;
  }
  log_.Add("core.set_query_batch", parent_, request_, start, end,
           end - start, 1);
}

void TracingComputer::SelectQuery(int g) {
  const int64_t start = Ticks();
  inner_->SelectQuery(g);
  const int64_t end = Ticks();
  totals_.state_ticks += end - start;
  ++totals_.state_calls;
  group_.core_ticks += end - start;
  const int64_t request =
      g >= 0 && g < static_cast<int>(group_requests_.size())
          ? group_requests_[g]
          : request_;
  // Select spans are folded into the run they open: one stored span per
  // member scan instead of two.
  OpenRun(start, request);
}

resinfer::index::EstimateResult TracingComputer::EstimateWithThreshold(
    int64_t id, float tau) {
  const int64_t start = Ticks();
  const resinfer::index::EstimateResult result =
      inner_->EstimateWithThreshold(id, tau);
  EstimateDone(start, Ticks(), nullptr);
  return result;
}

void TracingComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                    resinfer::index::EstimateResult* out) {
  const int64_t start = Ticks();
  inner_->EstimateBatch(ids, count, tau, out);
  EstimateDone(start, Ticks(), ids);
}

void TracingComputer::EstimateBatchCodes(
    const uint8_t* codes, const int64_t* ids, int count, float tau,
    resinfer::index::EstimateResult* out) {
  const int64_t start = Ticks();
  inner_->EstimateBatchCodes(codes, ids, count, tau, out);
  EstimateDone(start, Ticks(), ids);
}

void TracingComputer::EstimateBatchGroup(
    const int64_t* ids, int count, const int* members, int num_members,
    const float* taus, resinfer::index::EstimateResult* out) {
  const int64_t start = Ticks();
  inner_->EstimateBatchGroup(ids, count, members, num_members, taus, out);
  EstimateDone(start, Ticks(), nullptr);
  // Block-tiled scans share each block across the listed members.
  totals_.member_scans += num_members;
  ++totals_.streams;
}

void TracingComputer::EstimateBatchCodesGroup(
    const uint8_t* codes, const int64_t* ids, int count, const int* members,
    int num_members, const float* taus,
    resinfer::index::EstimateResult* out) {
  const int64_t start = Ticks();
  inner_->EstimateBatchCodesGroup(codes, ids, count, members, num_members,
                                  taus, out);
  EstimateDone(start, Ticks(), nullptr);
  totals_.member_scans += num_members;
  ++totals_.streams;
}

float TracingComputer::ExactDistance(int64_t id) {
  const int64_t start = Ticks();
  const float distance = inner_->ExactDistance(id);
  EstimateDone(start, Ticks(), nullptr);
  return distance;
}

}  // namespace e2e
