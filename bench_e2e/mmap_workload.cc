// single-pca-mmap: per-query IvfIndex::Search on one thread over a ddc-pca
// index (200k base points, 447 lists) that was saved with persist (v6) and
// is served from a fresh process that only loads it with the mmap backend,
// with no warm-up pass. The served working set is the code-record section
// (one 512-byte rotated row per point, about the size of the L3), so the
// first pass pays first-touch page faults in `storage`.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/method_factory.h"
#include "data/ground_truth.h"
#include "persist/persist.h"
#include "quant/kmeans.h"
#include "util/timer.h"
#include "workloads.h"

namespace e2e {

using resinfer::WallTimer;
using resinfer::index::ComputerStats;
using resinfer::index::Neighbor;
namespace core = resinfer::core;
namespace index = resinfer::index;
namespace linalg = resinfer::linalg;
namespace persist = resinfer::persist;
namespace storage = resinfer::storage;

namespace {

constexpr int64_t kBase = 200000;
constexpr int kLists = 447;
constexpr int64_t kQueries = 2048;
constexpr int64_t kTrainQueries = 1000;

std::string IvfPath(const std::string& dir) { return dir + "/ivf.bin"; }
std::string RotatedPath(const std::string& dir) { return dir + "/rotated.bin"; }
std::string PcaPath(const std::string& dir) { return dir + "/pca.bin"; }
std::string ArtifactsPath(const std::string& dir) {
  return dir + "/artifacts.bin";
}
std::string QueriesPath(const std::string& dir) { return dir + "/queries.bin"; }
std::string ResultPath(const std::string& dir) { return dir + "/result.txt"; }

core::FactoryOptions FactoryConfig() {
  core::FactoryOptions options;
  options.ddc_pca.training.max_queries = 500;
  return options;
}

index::IvfOptions IvfConfig() {
  index::IvfOptions options;
  options.num_clusters = kLists;
  options.kmeans.max_iterations = 3;
  return options;
}

bool Ok(const resinfer::util::Status& status, const char* what,
        Report* report) {
  if (status.ok()) return true;
  report->Fail(std::string(what) + ": " + status.ToString());
  return false;
}

// Runs this executable as the fresh serving process and waits for it.
bool LaunchChild(const std::string& self, const std::vector<std::string>& args,
                 Report* report) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(self.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    report->Fail("fork failed");
    return false;
  }
  if (pid == 0) {
    ::execv(self.c_str(), argv.data());
    std::_Exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report->Fail("serving process failed");
    return false;
  }
  return true;
}

// Result lines: "metric <name> <value> <unit> <q1> <q3> <samples>",
// "pass_qps <v>", "latency_ms <v>", "hash <query> <answer hash>",
// "count <attempted|failed> <n>" and "error <text>".
struct ChildResult {
  std::map<std::string, Metric> metrics;
  std::vector<double> pass_qps;    // untraced passes
  std::vector<double> latency_ms;  // untraced queries
  std::vector<uint64_t> hashes;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

bool ReadChildResult(const std::string& dir, ChildResult* out) {
  std::ifstream in(ResultPath(dir));
  std::string kind;
  while (in >> kind) {
    if (kind == "metric") {
      std::string name;
      Metric m;
      in >> name >> m.value >> m.unit >> m.q1 >> m.q3 >> m.samples;
      out->metrics[name] = m;
    } else if (kind == "pass_qps" || kind == "latency_ms") {
      double v = 0.0;
      in >> v;
      (kind == "pass_qps" ? out->pass_qps : out->latency_ms).push_back(v);
    } else if (kind == "hash") {
      std::size_t q = 0;
      uint64_t h = 0;
      in >> q >> h;
      if (out->hashes.size() <= q) out->hashes.resize(q + 1);
      out->hashes[q] = h;
    } else if (kind == "count") {
      std::string name;
      int64_t n = 0;
      in >> name >> n;
      (name == "attempted" ? out->attempted : out->failed) = n;
    } else if (kind == "error") {
      std::string text;
      std::getline(in, text);
      out->errors.push_back(text);
    }
  }
  return !in.bad();
}

double FileMib(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

Report RunSinglePcaMmap(const Options& opt, SpanLog* log,
                        const std::string& self_exe) {
  Report report;
  const resinfer::data::Dataset inputs =
      MakeInputs(kBase, kQueries, kTrainQueries, opt.seed);
  const std::vector<std::vector<int64_t>> truth =
      resinfer::data::BruteForceKnn(inputs.base,
                                    HeadRows(inputs.queries, kGtQueries),
                                    kTopK);
  const std::string dir = opt.work_dir + "/index";
  std::filesystem::create_directories(dir);
  if (!Ok(persist::SaveMatrix(QueriesPath(dir), inputs.queries),
          "save queries", &report)) {
    return report;
  }

  // Set-up, several times: train (PCA fit and base rotation in linalg,
  // the DDC corrector in core), build and attach, save, then load in a
  // fresh process. Untraced, every set-up's process also serves for an
  // equal share of the run: each save lays the files out in the page cache
  // anew, and single-query speed over a mapping moves with that layout by
  // up to a third, so the figures pool several layouts. Traced, only the
  // last set-up serves, for the whole run.
  const std::string seconds_each =
      std::to_string(opt.trace ? opt.seconds : opt.seconds / kSetupReps);
  std::vector<double> setup_s, train_s, build_s, save_s, load_s, pass_qps,
      latency_ms, peak_rss;
  std::vector<std::vector<Neighbor>> reference;
  double file_mib = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool serves = !opt.trace || rep + 1 == kSetupReps;
    ScopedSpan setup(log, "bench.setup");
    auto factory =
        std::make_unique<core::MethodFactory>(&inputs, FactoryConfig());
    {
      ScopedSpan span(log, "core.train", setup.id());
      {
        ScopedSpan pca(log, "linalg.pca_fit_rotate", span.id());
        factory->EnsurePcaRotatedBase();
      }
      factory->EnsureDdcPcaArtifacts();
      train_s.push_back(span.Close());
    }
    index::IvfIndex ivf;
    {
      ScopedSpan span(log, "index.build", setup.id());
      ivf = index::IvfIndex::Build(inputs.base, IvfConfig());
      build_s.push_back(span.Close());
    }
    {
      ScopedSpan span(log, "index.attach_codes", setup.id());
      ivf.AttachCodesFrom(*factory->Make(core::kMethodDdcPca));
    }
    {
      ScopedSpan span(log, "persist.save", setup.id());
      if (!Ok(persist::SaveIvf(IvfPath(dir), ivf), "save ivf", &report) ||
          !Ok(persist::SaveMatrix(RotatedPath(dir),
                                  factory->EnsurePcaRotatedBase()),
              "save rotated base", &report) ||
          !Ok(persist::SavePca(PcaPath(dir), factory->EnsurePca()),
              "save pca", &report) ||
          !Ok(persist::SaveDdcPcaArtifacts(ArtifactsPath(dir),
                                           factory->EnsureDdcPcaArtifacts()),
              "save artifacts", &report)) {
        return report;
      }
      save_s.push_back(span.Close());
    }
    const double parent_s = setup.Close();
    file_mib = FileMib(IvfPath(dir)) + FileMib(RotatedPath(dir)) +
               FileMib(PcaPath(dir)) + FileMib(ArtifactsPath(dir));

    // Reference answers from the in-memory index the files were saved
    // from; outside every metric.
    {
      auto computer = factory->Make(core::kMethodDdcPca);
      reference = PerQueryReference(ivf, *computer, inputs.queries);
    }
    // The parent's copies are not needed while the child serves.
    factory.reset();
    ivf = index::IvfIndex();

    std::vector<std::string> args = {"--serve-mmap", dir};
    if (serves) {
      args.insert(args.end(), {"--seconds", seconds_each, "--trace",
                               opt.trace ? "1" : "0"});
      if (opt.trace) {
        args.insert(args.end(), {"--trace-path", opt.trace_path + ".serve"});
      }
    } else {
      args.push_back("--load-only");
    }
    ChildResult child;
    if (!LaunchChild(self_exe, args, &report) ||
        !ReadChildResult(dir, &child) ||
        child.metrics.count("persist.load_s") == 0) {
      report.Fail("serving process reported no result");
      return report;
    }
    load_s.push_back(child.metrics["persist.load_s"].value);
    setup_s.push_back(parent_s + load_s.back());
    if (!serves) continue;

    for (const std::string& e : child.errors) report.Fail(e);
    report.attempted += child.attempted;
    report.failed += child.failed;
    for (std::size_t q = 0; q < reference.size(); ++q) {
      if (q >= child.hashes.size() ||
          child.hashes[q] != AnswerHash(reference[q])) {
        ++report.failed;
      }
    }
    if (opt.trace) {
      for (const auto& [name, metric] : child.metrics) {
        report.metrics[name] = metric;
      }
    } else {
      pass_qps.insert(pass_qps.end(), child.pass_qps.begin(),
                      child.pass_qps.end());
      latency_ms.insert(latency_ms.end(), child.latency_ms.begin(),
                        child.latency_ms.end());
      peak_rss.push_back(child.metrics["peak_rss_mib"].value);
    }
  }
  report.SetMedian("setup_s", setup_s, "s");
  report.Set("recall_at_10", RecallOf(reference, truth), "ratio");
  if (report.metrics["recall_at_10"].value < kRecallFloorPca) {
    report.Fail("recall@10 below the floor");
  }

  if (!opt.trace) {
    // Closed loop on one thread: its sustainable rate is its throughput
    // and it has one load level.
    report.SetMedian("qps", pass_qps, "1/s");
    report.SetMedian("max_rate_qps", pass_qps, "1/s");
    report.Set("p50_ms", Quantile(latency_ms, 0.50), "ms");
    report.Set("p90_ms", Quantile(latency_ms, 0.90), "ms");
    report.Set("p90_ms.high", Quantile(latency_ms, 0.90), "ms");
    report.SetMedian("peak_rss_mib", peak_rss, "MiB");
  } else {
    report.SetMedian("core.train_s", train_s, "s");
    report.SetMedian("index.build_s", build_s, "s");
    report.SetMedian("persist.save_s", save_s, "s");
    report.SetMedian("persist.load_s", load_s, "s");
    report.Set("persist.file_mib", file_mib, "MiB");
    std::vector<const SpanLog*> logs = {log};
    WriteSpans(opt.trace_path, logs, 0);
  }
  return report;
}

// --- the fresh serving process -------------------------------------------

int ServeMappedChild(const std::string& dir, double seconds, bool trace,
                     bool load_only, const std::string& trace_path) {
  Report report;
  SpanLog log(0);
  std::ofstream out(ResultPath(dir));
  const auto write_metric = [&out](const std::string& name, const Metric& m) {
    out << "metric " << name << " " << m.value << " " << m.unit << " " << m.q1
        << " " << m.q3 << " " << m.samples << "\n";
  };
  out.precision(12);

  index::IvfIndex ivf;
  persist::MappedMatrix rotated;
  linalg::PcaModel pca;
  core::DdcPcaArtifacts artifacts;
  persist::IvfLoadOptions load_options;
  load_options.backend = storage::StorageBackend::kMmap;
  ScopedSpan load(&log, "persist.load");
  if (!Ok(persist::LoadIvf(IvfPath(dir), &ivf, load_options), "load ivf",
          &report) ||
      !Ok(persist::LoadMatrixMapped(RotatedPath(dir), &rotated,
                                    storage::StorageBackend::kMmap),
          "load rotated base", &report) ||
      !Ok(persist::LoadPca(PcaPath(dir), &pca), "load pca", &report) ||
      !Ok(persist::LoadDdcPcaArtifacts(ArtifactsPath(dir), &artifacts),
          "load artifacts", &report)) {
    for (const std::string& e : report.errors) out << "error " << e << "\n";
    return 1;
  }
  Metric load_s;
  load_s.value = load.Close();
  load_s.unit = "s";
  load_s.q1 = load_s.q3 = load_s.value;
  write_metric("persist.load_s", load_s);
  if (load_only) return out ? 0 : 1;

  linalg::Matrix queries;
  if (!Ok(persist::LoadMatrix(QueriesPath(dir), &queries), "load queries",
          &report)) {
    out << "error load queries\n";
    return 1;
  }
  core::DdcPcaComputer plain(&pca, &rotated.matrix, &artifacts);
  TraceSink sink;
  auto traced = std::make_unique<TracingComputer>(
      std::make_unique<core::DdcPcaComputer>(&pca, &rotated.matrix,
                                             &artifacts),
      &sink, 1, -1);
  if (!ivf.has_codes() || ivf.codes().tag() != plain.code_tag() ||
      ivf.codes().tag() != traced->code_tag()) {
    report.Fail("attached code tag does not match the ddc-pca computer");
  }

  // Pass 0 is cold: nothing was touched before it. With tracing, later
  // passes alternate traced and untraced.
  std::vector<uint64_t> first(static_cast<std::size_t>(queries.rows()));
  std::vector<double> latency_ms, qps, untraced_wall, traced_wall;
  double traced_search_s = 0.0;
  int64_t traced_queries = 0;
  ComputerStats pass_stats, traced_stats;
  const Faults faults_before = ProcessFaults();
  WallTimer window;
  for (int pass = 0;; ++pass) {
    if (window.ElapsedSeconds() >= seconds && pass >= 3) break;
    const bool tracing = trace && pass % 2 == 0 && pass > 0;
    index::DistanceComputer& computer =
        tracing ? static_cast<index::DistanceComputer&>(*traced) : plain;
    const ComputerStats before = computer.stats();
    ScopedSpan pass_span(&log, tracing ? "bench.pass.traced" : "bench.pass");
    WallTimer wall;
    for (int64_t q = 0; q < queries.rows(); ++q) {
      const int64_t start = Ticks();
      std::vector<Neighbor> answer;
      if (tracing) {
        ScopedSpan search(&log, "index.search", pass_span.id(), q);
        traced->SetContext(search.id(), q);
        answer = ivf.Search(*traced, queries.Row(q), kTopK, kNprobe);
        traced_search_s += search.Close();
      } else {
        answer = ivf.Search(plain, queries.Row(q), kTopK, kNprobe);
        latency_ms.push_back(TicksToSeconds(Ticks() - start) * 1e3);
      }
      const uint64_t h = AnswerHash(answer);
      if (pass == 0) {
        first[static_cast<std::size_t>(q)] = h;
      } else if (h != first[static_cast<std::size_t>(q)]) {
        ++report.failed;
      }
      ++report.attempted;
    }
    const double pass_s = wall.ElapsedSeconds();
    ComputerStats delta = computer.stats();
    delta -= before;
    if (pass == 0) {
      pass_stats = delta;
    } else if (!SameStats(delta, pass_stats)) {
      report.Fail(tracing ? "traced ComputerStats differ from untraced"
                          : "ComputerStats differ between passes");
    }
    if (tracing) {
      traced_wall.push_back(pass_s);
      traced_stats += delta;
      traced_queries += queries.rows();
    } else {
      untraced_wall.push_back(pass_s);
      qps.push_back(static_cast<double>(queries.rows()) / pass_s);
    }
  }
  const Faults faults_after = ProcessFaults();
  const double resident =
      MappingResidentMib(ivf.codes().data()) +
      (rotated.pin.empty() ? 0.0 : MappingResidentMib(rotated.pin.data()));
  traced.reset();  // hands its totals to the sink

  if (!trace) {
    for (double v : qps) out << "pass_qps " << v << "\n";
    for (double v : latency_ms) out << "latency_ms " << v << "\n";
    report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    ZeroLayerMetrics(&report);
    const CoreTotals& totals = sink.totals();
    const double core_s = TicksToSeconds(totals.state_ticks) +
                          TicksToSeconds(totals.estimate_ticks);
    const double n = static_cast<double>(traced_queries);
    report.Set("index.self_us_per_query",
               (traced_search_s - core_s) * 1e6 / n, "us");
    ReportCoreTimes(totals, traced_stats, traced_queries, &report);
    // Exact rescoring reads the same record the estimate read, so the
    // record stride is the only byte cost.
    ReportComputerCounts(traced_stats, traced_queries, ivf.codes().stride(),
                         0, &report);
    std::vector<double> rank_us;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      for (int64_t q = 0; q < queries.rows(); ++q) {
        resinfer::quant::NearestCentroids(ivf.centroids(), queries.Row(q),
                                          kNprobe);
      }
      rank_us.push_back(timer.ElapsedMicros() / queries.rows());
    }
    report.Set("quant.rank_us_per_query", Median(rank_us), "us");
    const double all = static_cast<double>(report.attempted);
    report.Set("storage.minor_faults_per_query",
               static_cast<double>(faults_after.minor - faults_before.minor) /
                   all,
               "count");
    report.Set("storage.major_faults",
               static_cast<double>(faults_after.major - faults_before.major),
               "count");
    report.Set("storage.mapped_resident_mib", resident, "MiB");
    double traced_wall_s = 0.0;
    for (double w : traced_wall) traced_wall_s += w;
    CheckStages(traced_search_s, traced_wall_s,
                {core_s, traced_search_s - core_s}, &report);
    // Untraced passes after the cold one against the traced ones.
    std::vector<double> warm(untraced_wall.begin() + 1, untraced_wall.end());
    report.Set("trace.overhead_pct",
               (Median(traced_wall) / Median(warm) - 1.0) * 100.0, "%");
    std::vector<const SpanLog*> logs = {&log};
    for (const SpanLog& l : sink.logs()) logs.push_back(&l);
    WriteSpans(trace_path, logs, sink.dropped_spans());
  }

  for (const auto& [name, metric] : report.metrics) write_metric(name, metric);
  for (std::size_t q = 0; q < first.size(); ++q) {
    out << "hash " << q << " " << first[q] << "\n";
  }
  out << "count attempted " << report.attempted << "\n";
  out << "count failed " << report.failed << "\n";
  for (const std::string& e : report.errors) out << "error " << e << "\n";
  return out ? 0 : 1;
}

}  // namespace e2e
