// grouped-opq and serve-open: the same ddc-opq index (32 sub-spaces,
// packed 4-bit fast-scan codes, 100k base points, 316 lists, in memory)
// behind the offline grouped batch and behind the coalescing server.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "bench_util.h"
#include "core/method_factory.h"
#include "data/ground_truth.h"
#include "index/batch.h"
#include "quant/kmeans.h"
#include "serve/admission.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workloads.h"

namespace e2e {

using resinfer::WallTimer;
using resinfer::index::ComputerStats;
using resinfer::index::Neighbor;
namespace core = resinfer::core;
namespace index = resinfer::index;
namespace linalg = resinfer::linalg;
namespace serve = resinfer::serve;

namespace {

constexpr int64_t kBase = 100000;
constexpr int kLists = 316;
// Queries per grouped batch: 256 groups of 32, so a batch's group-wall
// percentiles do not hinge on a few groups of the seed's query set.
constexpr int64_t kGroupedQueries = 8192;
constexpr int64_t kServeQueries = 4096;
constexpr int64_t kTrainQueries = 1000;
constexpr int kWorkers = 2;
constexpr int kGroupSize = 32;

// Open-loop serving schedule. The nominal and high rates are fixed so
// every commit is measured at the same offered load; max_rate_qps is the
// highest rate whose p99 meets the limit, found by bisection.
// Both well below the knee (~12k/s on the tuning host): near it, a
// scheduling stall of the host tips the server into its held-batch mode
// (see DESIGN.md) and the tail reads the host, not the server.
constexpr double kNominalRate = 3000.0;
constexpr double kHighRate = 5000.0;
constexpr double kMaxProbeRate = 24000.0;
constexpr int kRateProbes = 5;
constexpr int kRateSearches = 3;
// Above the 5-12 ms scheduling stalls a shared virtual machine shows, below
// the queueing delay of saturation.
constexpr double kP99LimitMs = 20.0;
// Tail percentiles are taken per window of this many consecutive arrivals
// (50 beyond the p90, 5 beyond the p99) and reported as the median over
// windows, so one scheduling stall of the host moves a window or two, not
// the figure. The reported tail is the p90: on a shared virtual machine
// the p99 at sub-millisecond service times tracks the host's stalls, not
// the server.
constexpr std::size_t kWindowRequests = 500;

using Answers = std::vector<std::vector<Neighbor>>;

core::FactoryOptions FactoryConfig() {
  core::FactoryOptions options;
  options.ddc_opq.opq.pq.num_subspaces = 32;
  options.ddc_opq.opq.pq.nbits = 4;
  // Four OPQ iterations on a 16k-row sample: the default 64k rows cost
  // about 3x the set-up time for a similar operating point.
  options.ddc_opq.opq.num_iterations = 4;
  options.ddc_opq.opq.pq.max_train_rows = 16384;
  options.ddc_opq.training.max_queries = 500;
  return options;
}

index::IvfOptions IvfConfig() {
  index::IvfOptions options;
  options.num_clusters = kLists;
  options.kmeans.max_iterations = 8;
  return options;
}

struct Served {
  resinfer::data::Dataset inputs;
  std::vector<std::vector<int64_t>> truth;
  std::unique_ptr<core::MethodFactory> factory;
  index::IvfIndex ivf;
  Answers reference;
  int64_t record_stride = 0;
};

// Inputs (the fixed corpus and `num_queries` queries drawn from the seed)
// and ground truth, outside every metric.
void MakeServedInputs(const Options& opt, int64_t num_queries, Served* s) {
  s->inputs = MakeInputs(kBase, num_queries, kTrainQueries, opt.seed);
  s->truth = resinfer::data::BruteForceKnn(
      s->inputs.base, HeadRows(s->inputs.queries, kGtQueries), kTopK);
}

// One timed set-up: train the ddc-opq artifacts, build the IVF, attach the
// code records. Replaces the index `s` serves. Returns the set-up's wall.
double SetUpOnce(SpanLog* log, Served* s, std::vector<double>* train_s,
                 std::vector<double>* build_s) {
  s->factory.reset();
  s->ivf = index::IvfIndex();
  ScopedSpan setup(log, "bench.setup");
  s->factory =
      std::make_unique<core::MethodFactory>(&s->inputs, FactoryConfig());
  {
    ScopedSpan span(log, "core.train", setup.id());
    s->factory->EnsureDdcOpqArtifacts();
    train_s->push_back(span.Close());
  }
  {
    ScopedSpan span(log, "index.build", setup.id());
    s->ivf = index::IvfIndex::Build(s->inputs.base, IvfConfig());
    build_s->push_back(span.Close());
  }
  {
    ScopedSpan span(log, "index.attach_codes", setup.id());
    s->ivf.AttachCodesFrom(*s->factory->Make(core::kMethodDdcOpq));
  }
  return setup.Close();
}

// Checks the attached code tag, then computes the per-query reference
// answers of the index `s` serves and their recall; outside every metric.
void ReferenceAndRecall(Served* s, Report* report) {
  auto computer = s->factory->Make(core::kMethodDdcOpq);
  if (!s->ivf.has_codes() || s->ivf.codes().tag() != computer->code_tag()) {
    report->Fail("attached code tag does not match the ddc-opq computer");
  }
  s->record_stride = s->ivf.codes().stride();
  s->reference = PerQueryReference(s->ivf, *computer, s->inputs.queries);
  report->Set("recall_at_10", RecallOf(s->reference, s->truth), "ratio");
  if (report->metrics["recall_at_10"].value < kRecallFloorOpq) {
    report->Fail("recall@10 below the floor");
  }
}

void ReportSetUps(const std::vector<double>& setup_s,
                  const std::vector<double>& train_s,
                  const std::vector<double>& build_s, Report* report) {
  report->SetMedian("setup_s", setup_s, "s");
  report->SetMedian("core.train_s", train_s, "s");
  report->SetMedian("index.build_s", build_s, "s");
}

// Inputs, ground truth, then kSetupReps timed set-ups; the last one serves.
void SetUp(const Options& opt, int64_t num_queries, SpanLog* log, Served* s,
           Report* report) {
  MakeServedInputs(opt, num_queries, s);
  std::vector<double> setup_s, train_s, build_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(SetUpOnce(log, s, &train_s, &build_s));
  }
  ReportSetUps(setup_s, train_s, build_s, report);
  ReferenceAndRecall(s, report);
}

// Counts answers that differ from the per-query reference.
int64_t Mismatches(const Answers& got, const Answers& reference) {
  int64_t bad = 0;
  for (std::size_t q = 0; q < reference.size(); ++q) {
    if (q >= got.size() || !SameAnswer(got[q], reference[q])) ++bad;
  }
  return bad;
}

// Median per-query time of the centroid ranking the index performs, timed
// on the same queries through the same public call.
double RankMicrosPerQuery(const index::IvfIndex& ivf,
                          const linalg::Matrix& queries, bool batched) {
  std::vector<double> per_query;
  std::vector<int32_t> probes(static_cast<std::size_t>(queries.rows()) *
                              kNprobe);
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    if (batched) {
      resinfer::quant::NearestCentroidsBatch(ivf.centroids(), queries, 0,
                                             queries.rows(), kNprobe,
                                             probes.data());
    } else {
      for (int64_t q = 0; q < queries.rows(); ++q) {
        const auto p = resinfer::quant::NearestCentroids(ivf.centroids(),
                                                         queries.Row(q),
                                                         kNprobe);
        probes[static_cast<std::size_t>(q)] = p[0];
      }
    }
    per_query.push_back(timer.ElapsedMicros() / queries.rows());
  }
  return Median(per_query);
}

}  // namespace

// --- grouped-opq ---------------------------------------------------------

Report RunGroupedOpq(const Options& opt, SpanLog* log) {
  Report report;
  if (opt.trace) ZeroLayerMetrics(&report);
  Served s;
  MakeServedInputs(opt, kGroupedQueries, &s);
  const linalg::Matrix& queries = s.inputs.queries;

  index::BatchOptions batch;
  batch.num_threads = kWorkers;
  batch.group_size = kGroupSize;
  batch.sort_queries_by_centroid = true;

  TraceSink sink;
  int64_t rep_span = -1;
  int next_thread = 1;
  const index::ComputerFactory plain = [&s] {
    return s.factory->Make(core::kMethodDdcOpq);
  };
  const index::ComputerFactory traced = [&] {
    return std::make_unique<TracingComputer>(
        s.factory->Make(core::kMethodDdcOpq), &sink, next_thread++,
        rep_span);
  };

  // Set-up, several times. Untraced, every set-up's index serves for an
  // equal share of the run, so the measured window spans the whole run and
  // the host's drift over it is pooled, not sampled once. Traced, only the
  // last set-up serves, for the whole run. Answers are checked against the
  // per-query reference of the index that gave them.
  //
  // Untraced repetitions fill the end-to-end metrics; with --trace 1 they
  // alternate with traced ones, so drift hits both sides alike. The p50
  // and p90 of the group walls are taken per repetition (over 256 groups)
  // and reported as the median over repetitions, so a scheduling stall of
  // the host moves one repetition, not the figure.
  const double seconds_each =
      opt.trace ? opt.seconds : opt.seconds / kSetupReps;
  std::vector<double> setup_s, train_s, build_s;
  std::vector<double> qps, untraced_wall, traced_wall, rep_p50_ms,
      rep_p90_ms, peak_rss;
  double traced_busy = 0.0, traced_span_s = 0.0, traced_wall_s = 0.0;
  int64_t traced_queries = 0;
  ComputerStats traced_stats;
  for (int set = 0; set < kSetupReps; ++set) {
    setup_s.push_back(SetUpOnce(log, &s, &train_s, &build_s));
    if (opt.trace && set + 1 < kSetupReps) continue;
    ReferenceAndRecall(&s, &report);
    // Peak RSS covers serving: the index, the computers and the batch.
    if (!ResetPeakRss()) report.Fail("cannot reset the peak RSS");

    ComputerStats first_stats;
    WallTimer window;
    for (int rep = 0;; ++rep) {
      if (window.ElapsedSeconds() >= seconds_each && rep >= 6) break;
      const bool tracing = opt.trace && rep % 2 == 1;
      ScopedSpan span(log, tracing ? "index.batch_search_ivf.traced"
                                   : "index.batch_search_ivf");
      rep_span = span.id();
      WallTimer wall;
      index::BatchResult result = index::BatchSearchIvf(
          s.ivf, tracing ? traced : plain, queries, kTopK, kNprobe, batch);
      const double seconds = wall.ElapsedSeconds();
      const double span_s = span.Close();

      report.attempted += queries.rows();
      report.failed += Mismatches(result.results, s.reference);
      if (rep == 0) {
        first_stats = result.stats;
      } else if (!SameStats(result.stats, first_stats)) {
        report.Fail(tracing ? "traced ComputerStats differ from untraced"
                            : "ComputerStats differ between repetitions");
      }
      if (tracing) {
        traced_wall.push_back(seconds);
        traced_wall_s += seconds;
        traced_span_s += span_s;
        traced_queries += queries.rows();
        traced_stats += result.stats;
        for (double b : result.worker_busy_seconds) traced_busy += b;
      } else {
        untraced_wall.push_back(seconds);
        qps.push_back(static_cast<double>(queries.rows()) / seconds);
        rep_p50_ms.push_back(
            result.group_latency_seconds.Percentile(0.50) * 1e3);
        rep_p90_ms.push_back(
            result.group_latency_seconds.Percentile(0.90) * 1e3);
      }
    }
    peak_rss.push_back(PeakRssMib());
  }
  ReportSetUps(setup_s, train_s, build_s, &report);

  report.SetMedian("qps", qps, "1/s");
  // Offline batches have one load level: their sustainable rate is their
  // throughput and their tail is the work-unit tail.
  report.SetMedian("max_rate_qps", qps, "1/s");
  report.SetMedian("p50_ms", rep_p50_ms, "ms");
  report.SetMedian("p90_ms", rep_p90_ms, "ms");
  report.SetMedian("p90_ms.high", rep_p90_ms, "ms");
  report.SetMedian("peak_rss_mib", peak_rss, "MiB");

  if (opt.trace) {
    // Layers per query, in worker time (call span x workers): the
    // computer's time, the scan loop around it (worker busy time minus
    // computer time), and scheduling (ranking and sorting before the
    // workers start, copies, thread start, idle stragglers). The index's
    // self time is everything but the computer's.
    const CoreTotals& totals = sink.totals();
    const double n = static_cast<double>(traced_queries);
    const double core_s = TicksToSeconds(totals.state_ticks) +
                          TicksToSeconds(totals.estimate_ticks);
    const double scan_self_s = traced_busy - core_s;
    const double schedule_s = traced_span_s - traced_busy / kWorkers;
    report.Set("index.self_us_per_query",
               (traced_span_s * kWorkers - core_s) * 1e6 / n, "us");
    // The batch runs on the serving layer's work-stealing Executor.
    report.Set("serve.worker_busy_frac",
               traced_busy / (traced_span_s * kWorkers), "ratio");
    ReportCoreTimes(totals, traced_stats, traced_queries, &report);
    ReportComputerCounts(traced_stats, traced_queries, s.record_stride,
                         kDim * static_cast<int64_t>(sizeof(float)),
                         &report);
    report.Set("quant.rank_us_per_query",
               RankMicrosPerQuery(s.ivf, queries, /*batched=*/true), "us");
    const double stage_sum =
        core_s / kWorkers + scan_self_s / kWorkers + schedule_s;
    CheckStages(stage_sum, traced_wall_s,
                {core_s, scan_self_s, schedule_s}, &report);
    report.Set("trace.overhead_pct",
               (Median(traced_wall) / Median(untraced_wall) - 1.0) * 100.0,
               "%");
    std::vector<const SpanLog*> logs = {log};
    for (const SpanLog& l : sink.logs()) logs.push_back(&l);
    WriteSpans(opt.trace_path, logs, sink.dropped_spans());
  }
  return report;
}

// --- serve-open ----------------------------------------------------------

namespace {

struct Request {
  int64_t query = 0;
  int64_t due = 0;        // ticks: when the schedule sends it
  int64_t sent = 0;       // Submit called
  int64_t submitted = 0;  // Submit returned
  int64_t done = 0;       // answer observed by the collector
};

struct Phase {
  std::vector<Request> requests;
  int64_t failed = 0;
  serve::ServingStats stats;
  serve::Executor::Stats executor;
  double seconds = 0.0;  // first send to last answer
};

serve::AdmissionOptions ServerConfig() {
  serve::AdmissionOptions options;
  options.num_threads = kWorkers;
  options.max_group_size = index::kMaxQueryGroup;
  options.linger_micros = 200;
  options.coalesce = true;
  return options;
}

// One thread generates and collects: requests go out on a fixed schedule
// (`rate` per second for `count` requests, or all at once when rate <= 0),
// and answers are polled between sends. Each answer is checked against the
// per-query reference.
Phase RunPhase(const index::IvfIndex& ivf,
               const index::ComputerFactory& factory,
               const linalg::Matrix& queries,
               const std::vector<int64_t>& schedule, int64_t count,
               double rate, const Answers& reference, SpanLog* log,
               const char* span_name) {
  Phase phase;
  phase.requests.resize(static_cast<std::size_t>(count));
  ScopedSpan span(log, span_name);
  {
    serve::IvfServer server(&ivf, factory, ServerConfig());
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const double tps = TicksPerSecond();
    const int64_t start = Ticks() + static_cast<int64_t>(tps * 1e-3);
    struct Pending {
      std::size_t index;
      std::future<std::vector<Neighbor>> answer;
    };
    std::vector<Pending> pending;
    pending.reserve(4096);
    int64_t next = 0;
    while (next < count || !pending.empty()) {
      if (next < count) {
        const int64_t due =
            rate > 0.0 ? start + static_cast<int64_t>(
                                     static_cast<double>(next) * tps / rate)
                       : start;
        const int64_t now = Ticks();
        if (now >= due) {
          Request& r = phase.requests[static_cast<std::size_t>(next)];
          r.query = schedule[static_cast<std::size_t>(next) % schedule.size()];
          r.due = due;
          r.sent = now;
          pending.push_back({static_cast<std::size_t>(next),
                             server.Submit(queries.Row(r.query), kTopK,
                                           kNprobe)});
          r.submitted = Ticks();
          ++next;
          continue;
        }
      }
      // Nothing due: sleep briefly instead of spinning, so the server's
      // threads always find a free core (a spinning generator delays their
      // wake-ups). With the timer slack at 1 ns this adds ~25 us at most
      // to the observed completion time.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      for (std::size_t p = 0; p < pending.size();) {
        if (pending[p].answer.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++p;
          continue;
        }
        Request& r = phase.requests[pending[p].index];
        r.done = Ticks();
        const std::vector<Neighbor> answer = pending[p].answer.get();
        if (!SameAnswer(answer,
                        reference[static_cast<std::size_t>(r.query)])) {
          ++phase.failed;
        }
        pending[p] = std::move(pending.back());
        pending.pop_back();
      }
    }
    server.Shutdown();
    phase.stats = server.stats();
    phase.executor = server.executor_stats();
  }  // the server drops its computers here, flushing any traces
  int64_t last = 0;
  for (const Request& r : phase.requests) last = std::max(last, r.done);
  phase.seconds =
      count > 0 ? TicksToSeconds(last - phase.requests.front().sent) : 0.0;
  span.Close();
  std::vector<double> ms, late;
  for (const Request& r : phase.requests) {
    ms.push_back(TicksToSeconds(r.done - r.due) * 1e3);
    late.push_back(TicksToSeconds(r.sent - r.due) * 1e3);
  }
  std::fprintf(stderr,
               "[serve-open] %s rate %.0f n %lld: latency ms p50 %.3f p90 "
               "%.3f p99 %.3f max %.3f, generator late p99 %.3f ms, "
               "occupancy %.2f, groups %lld\n",
               span_name, rate, static_cast<long long>(count),
               Quantile(ms, 0.5), Quantile(ms, 0.9), Quantile(ms, 0.99),
               Quantile(ms, 1.0), Quantile(late, 0.99),
               phase.stats.MeanOccupancy(),
               static_cast<long long>(phase.stats.groups));
  return phase;
}

double LatencyMs(const Request& r) {
  return TicksToSeconds(r.done - r.due) * 1e3;
}

std::vector<double> Latencies(const Phase& phase, std::size_t begin,
                              std::size_t end) {
  std::vector<double> out;
  for (std::size_t i = begin; i < end && i < phase.requests.size(); ++i) {
    out.push_back(LatencyMs(phase.requests[i]));
  }
  return out;
}

// Completions per second between the 10th and the 90th percentile of
// completion times: the burst's steady middle, without the submission
// ramp at its start and the partial groups draining at its end.
double BurstRate(const Phase& phase) {
  std::vector<int64_t> done;
  for (const Request& r : phase.requests) done.push_back(r.done);
  std::sort(done.begin(), done.end());
  const std::size_t lo = done.size() / 10;
  const std::size_t hi = done.size() - 1 - done.size() / 10;
  const double seconds = TicksToSeconds(done[hi] - done[lo]);
  return seconds > 0.0 ? static_cast<double>(hi - lo) / seconds : 0.0;
}

// Latency quantile `p` of each window of kWindowRequests arrivals.
std::vector<double> WindowQuantiles(const Phase& phase, double p) {
  std::vector<double> out;
  for (std::size_t begin = 0; begin + kWindowRequests <= phase.requests.size();
       begin += kWindowRequests) {
    out.push_back(
        Quantile(Latencies(phase, begin, begin + kWindowRequests), p));
  }
  return out;
}
std::vector<double> WindowP99s(const Phase& phase) {
  return WindowQuantiles(phase, 0.99);
}

// A step passes when its p99 (median over windows) meets the limit and its
// backlog does not grow: the last quarter's median latency stays within 2x
// (+1 ms) of the first quarter's.
bool StepPasses(const Phase& phase, double* p99) {
  const std::size_t n = phase.requests.size();
  *p99 = Median(WindowP99s(phase));
  const double head = Median(Latencies(phase, 0, n / 4));
  const double tail = Median(Latencies(phase, n - n / 4, n));
  return *p99 <= kP99LimitMs && tail <= 2.0 * head + 1.0;
}

// Per-request breakdown of the traced nominal phase. Each request is
// matched to the group scan that carried it (same query, scan inside the
// request's lifetime); its latency then splits into generator lateness,
// admission (Submit's centroid ranking, linger and executor queue, up to
// the scan's start — a request that fills its group is dispatched inside
// Submit), the group's scan (index loop plus computer calls) and
// notification.
void ReportRequestBreakdown(const Phase& phase, const TraceSink& sink,
                            Report* report) {
  const std::vector<GroupScan>& groups = sink.groups();
  std::unordered_map<int64_t, std::vector<std::size_t>> by_query;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int64_t q : groups[g].requests) by_query[q].push_back(g);
  }
  std::vector<double> submit_us, late_ms, wait_ms;
  double latency_s = 0.0, stages_s = 0.0, scan_index_s = 0.0;
  int64_t matched = 0;
  for (const Request& r : phase.requests) {
    submit_us.push_back(TicksToSeconds(r.submitted - r.sent) * 1e6);
    late_ms.push_back(TicksToSeconds(r.sent - r.due) * 1e3);
    const auto it = by_query.find(r.query);
    if (it == by_query.end()) continue;
    const GroupScan* carrier = nullptr;
    for (std::size_t g : it->second) {
      if (groups[g].start >= r.sent && groups[g].end <= r.done) {
        carrier = &groups[g];
        break;
      }
    }
    if (carrier == nullptr) continue;
    ++matched;
    const int64_t members = static_cast<int64_t>(carrier->requests.size());
    const double scan = TicksToSeconds(carrier->end - carrier->start);
    const double latency = TicksToSeconds(r.done - r.due);
    const double admission = TicksToSeconds(carrier->start - r.sent);
    const double notify = TicksToSeconds(r.done - carrier->end);
    latency_s += latency;
    stages_s += TicksToSeconds(r.sent - r.due) + admission + scan + notify;
    scan_index_s +=
        TicksToSeconds(carrier->end - carrier->start - carrier->core_ticks) /
        static_cast<double>(members);
    wait_ms.push_back((latency - scan / static_cast<double>(members)) * 1e3);
  }
  const double n = static_cast<double>(phase.requests.size());
  report->Set("serve.submit_us.p50", Quantile(submit_us, 0.50), "us");
  report->Set("serve.submit_us.p99", Quantile(submit_us, 0.99), "us");
  report->Set("serve.gen_late_ms.p99", Quantile(late_ms, 0.99), "ms");
  report->Set("serve.wait_ms.p50", Quantile(wait_ms, 0.50), "ms");
  report->Set("serve.wait_ms.p99", Quantile(wait_ms, 0.99), "ms");
  report->Set("index.self_us_per_query",
              matched > 0 ? scan_index_s * 1e6 / static_cast<double>(matched)
                          : 0.0,
              "us");
  report->Echo("serve.requests_matched_to_groups",
               static_cast<double>(matched) / n);
  if (static_cast<double>(matched) < 0.95 * n) {
    report->Fail("fewer than 95% of traced requests matched a group scan");
  }
  CheckStages(stages_s, latency_s, {}, report);
}

// Bisects between the nominal rate (which meets the limit with p99
// `nominal_p99`) and kMaxProbeRate in kRateProbes probes, then
// interpolates on p99 inside the last bracket. A probe whose backlog grew
// counts as at least the limit.
double SearchMaxRate(const index::IvfIndex& ivf,
                     const index::ComputerFactory& factory,
                     const linalg::Matrix& queries,
                     const std::vector<int64_t>& schedule, double nominal_p99,
                     double seconds, const Answers& reference, SpanLog* log,
                     Report* report) {
  double lo = kNominalRate, hi = kMaxProbeRate;
  double p99_lo = nominal_p99, p99_hi = -1.0;
  for (int probe = 0; probe < kRateProbes; ++probe) {
    const double rate = 0.5 * (lo + hi);
    Phase step = RunPhase(ivf, factory, queries, schedule,
                          static_cast<int64_t>(rate * seconds * 0.1), rate,
                          reference, log, "serve.rate_probe");
    report->attempted += static_cast<int64_t>(step.requests.size());
    report->failed += step.failed;
    double p99 = 0.0;
    if (StepPasses(step, &p99)) {
      lo = rate;
      p99_lo = p99;
    } else {
      hi = rate;
      p99_hi = std::max(p99, kP99LimitMs);
    }
  }
  if (p99_hi < 0.0) return lo;
  return lo + (hi - lo) * std::clamp((kP99LimitMs - p99_lo) /
                                         std::max(p99_hi - p99_lo, 1e-9),
                                     0.0, 1.0);
}

}  // namespace

Report RunServeOpen(const Options& opt, SpanLog* log) {
  Report report;
  if (opt.trace) ZeroLayerMetrics(&report);
  Served s;
  SetUp(opt, kServeQueries, log, &s, &report);
  if (!ResetPeakRss()) report.Fail("cannot reset the peak RSS");
  const linalg::Matrix& queries = s.inputs.queries;

  // Shuffled arrival order, repeated as needed.
  std::vector<int64_t> schedule(static_cast<std::size_t>(queries.rows()));
  std::iota(schedule.begin(), schedule.end(), int64_t{0});
  resinfer::Rng rng(opt.seed ^ 0x5e57e11ull);
  for (std::size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1],
              schedule[static_cast<std::size_t>(rng.UniformInt(i))]);
  }

  // Requests are recognized in the traced computers by their first
  // coordinates (the server hands over copies of the rows).
  std::unordered_map<uint64_t, int64_t> row_ids;
  const auto row_key = [](const float* row) {
    uint64_t h = 0xcbf29ce484222325ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(row);
    for (int i = 0; i < 8 * 4; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
    return h;
  };
  for (int64_t q = 0; q < queries.rows(); ++q) {
    row_ids[row_key(queries.Row(q))] = q;
  }
  // Each traced phase reports into its own sink.
  TraceSink burst_sink;
  TraceSink* active_sink = &burst_sink;
  int next_thread = 1;
  const index::ComputerFactory plain = [&s] {
    return s.factory->Make(core::kMethodDdcOpq);
  };
  const index::ComputerFactory traced = [&] {
    return std::make_unique<TracingComputer>(
        s.factory->Make(core::kMethodDdcOpq), active_sink, next_thread++, -1,
        [&row_ids, row_key](const float* row) -> int64_t {
          const auto it = row_ids.find(row_key(row));
          return it == row_ids.end() ? -1 : it->second;
        });
  };

  const auto account = [&report](const Phase& phase) {
    report.attempted += static_cast<int64_t>(phase.requests.size());
    report.failed += phase.failed;
  };
  const auto rate_count = [&opt](double rate, double share) {
    return static_cast<int64_t>(rate * opt.seconds * share);
  };
  if (!opt.trace) {
    Phase nominal = RunPhase(s.ivf, plain, queries, schedule,
                             rate_count(kNominalRate, 0.4), kNominalRate,
                             s.reference, log, "serve.nominal");
    account(nominal);
    report.Set("p50_ms",
               Median(Latencies(nominal, 0, nominal.requests.size())), "ms");
    report.SetMedian("p90_ms", WindowQuantiles(nominal, 0.90), "ms");

    Phase high = RunPhase(s.ivf, plain, queries, schedule,
                          rate_count(kHighRate, 0.4), kHighRate, s.reference,
                          log, "serve.high");
    account(high);
    report.SetMedian("p90_ms.high", WindowQuantiles(high, 0.90), "ms");
    // Delivered throughput at the high offered rate: it falls below the
    // offered rate only when the server cannot keep up. (Burst capacity
    // spreads 20-30% run to run on a shared host; the traced run reports
    // it as serve.burst_qps.)
    int64_t last_done = 0;
    for (const Request& r : high.requests) {
      last_done = std::max(last_done, r.done);
    }
    report.Set("qps",
               static_cast<double>(high.requests.size()) /
                   TicksToSeconds(last_done - high.requests.front().due),
               "1/s");

    // Rate search, three times; max_rate_qps is the mean.
    double max_rate = 0.0;
    for (int search = 0; search < kRateSearches; ++search) {
      max_rate += SearchMaxRate(s.ivf, plain, queries, schedule,
                                Median(WindowP99s(nominal)), opt.seconds,
                                s.reference, log, &report) /
                  kRateSearches;
    }
    report.Set("max_rate_qps", max_rate, "1/s");
    report.Set("peak_rss_mib", PeakRssMib(), "MiB");
    return report;
  }

  // Traced run. Bursts (every query four times, all at once) alternate
  // untraced and traced: they serve the same requests, so their
  // ComputerStats must repeat exactly, and they give the tracing overhead
  // and the burst capacity. The nominal phase gives the per-request
  // breakdown, the high phase the admission figures that bound
  // max_rate_qps.
  std::vector<double> burst_qps, traced_burst_qps;
  ComputerStats burst_stats;
  for (int rep = 0; rep < 4; ++rep) {
    const bool tracing = rep % 2 == 1;
    Phase phase = RunPhase(s.ivf, tracing ? traced : plain, queries, schedule,
                           4 * queries.rows(), 0.0, s.reference, log,
                           tracing ? "serve.burst.traced" : "serve.burst");
    account(phase);
    (tracing ? traced_burst_qps : burst_qps).push_back(BurstRate(phase));
    if (rep == 0) {
      burst_stats = phase.stats.computer_stats;
    } else if (!SameStats(phase.stats.computer_stats, burst_stats)) {
      report.Fail(tracing ? "traced ComputerStats differ from untraced"
                          : "ComputerStats differ between bursts");
    }
  }
  report.SetMedian("serve.burst_qps", burst_qps, "1/s");
  report.Set("trace.overhead_pct",
             (Median(burst_qps) / Median(traced_burst_qps) - 1.0) * 100.0,
             "%");
  report.Set("quant.rank_us_per_query",
             RankMicrosPerQuery(s.ivf, queries, /*batched=*/false), "us");
  TraceSink nominal_sink;
  active_sink = &nominal_sink;
  Phase nominal = RunPhase(s.ivf, traced, queries, schedule,
                           rate_count(kNominalRate, 0.3), kNominalRate,
                           s.reference, log, "serve.nominal.traced");
  account(nominal);
  ReportRequestBreakdown(nominal, nominal_sink, &report);
  ReportCoreTimes(nominal_sink.totals(), nominal.stats.computer_stats,
                  static_cast<int64_t>(nominal.requests.size()), &report);
  ReportComputerCounts(nominal.stats.computer_stats,
                       static_cast<int64_t>(nominal.requests.size()),
                       s.record_stride,
                       kDim * static_cast<int64_t>(sizeof(float)), &report);

  TraceSink high_sink;
  active_sink = &high_sink;
  Phase high = RunPhase(s.ivf, traced, queries, schedule,
                        rate_count(kHighRate, 0.2), kHighRate, s.reference,
                        log, "serve.high.traced");
  account(high);
  const serve::ServingStats& hs = high.stats;
  report.Set("serve.occupancy", hs.MeanOccupancy(), "count");
  report.Set("serve.linger_flush_frac",
             hs.groups > 0 ? static_cast<double>(hs.linger_flushes) /
                                 static_cast<double>(hs.groups)
                           : 0.0,
             "ratio");
  double busy = 0.0;
  for (double b : high.executor.busy_seconds) busy += b;
  report.Set("serve.worker_busy_frac", busy / (high.seconds * kWorkers),
             "ratio");
  report.Set("serve.stolen", static_cast<double>(high.executor.stolen),
             "count");

  std::vector<const SpanLog*> logs = {log};
  int64_t dropped = 0;
  for (const TraceSink* sink : {&burst_sink, &nominal_sink, &high_sink}) {
    for (const SpanLog& l : sink->logs()) logs.push_back(&l);
    dropped += sink->dropped_spans();
  }
  WriteSpans(opt.trace_path, logs, dropped);
  return report;
}

}  // namespace e2e
