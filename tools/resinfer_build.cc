// resinfer_build — trains indexes and DDC artifacts and persists them.
//
// Reads the base (and, for the learned methods, training queries) from
// fvecs files, builds the requested index and distance-computation
// artifacts through MethodFactory — the same shared-artifact path the
// benches use — and writes everything into --out-dir with the magic-headed
// binary formats of persist/persist.h:
//
//   hnsw.bin / ivf.bin        the index (per --index)
//   pca.bin, pca_base.bin     PCA rotation + rotated base (ddc-res/ddc-pca)
//   ads_rotation.bin,
//   ads_base.bin              ADSampling random rotation + rotated base
//   ddc_pca.bin, ddc_opq.bin  trained classifier artifacts
//   MANIFEST.txt              what was built, with wall-clock timings
//
// resinfer_search consumes the directory; see that tool for the serving
// side.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/method_advisor.h"
#include "core/method_factory.h"
#include "data/dataset.h"
#include "data/vec_io.h"
#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "persist/persist.h"
#include "tool_flags.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using resinfer::core::MethodFactory;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: resinfer_build --base base.fvecs --out-dir DIR [options]\n"
      "  --train FILE          train queries fvecs (required for learned "
      "methods)\n"
      "  --index hnsw|ivf|both|none (default hnsw)\n"
      "  --methods LIST        comma list of: adsampling,ddc-res,ddc-pca,"
      "ddc-opq (default all)\n"
      "  --M N                 HNSW connectivity (default 16)\n"
      "  --ef-construction N   HNSW build beam (default 200)\n"
      "  --clusters N          IVF cluster target (default 4096, capped)\n");
}

bool NeedsTraining(const std::vector<std::string>& methods) {
  for (const std::string& m : methods) {
    if (m == "ddc-pca" || m == "ddc-opq") return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  resinfer::tools::ArgParser args(argc, argv);

  const std::string base_path = args.GetString("base");
  const std::string train_path = args.GetString("train");
  const std::string out_dir = args.GetString("out-dir");
  const std::string index_kind = args.GetString("index", "hnsw");
  std::vector<std::string> methods = resinfer::tools::SplitCommaList(
      args.GetString("methods", "adsampling,ddc-res,ddc-pca,ddc-opq"));
  const int hnsw_m = static_cast<int>(args.GetInt("M", 16));
  const int ef_construction =
      static_cast<int>(args.GetInt("ef-construction", 200));
  const int clusters = static_cast<int>(args.GetInt("clusters", 4096));

  if (base_path.empty()) args.Fail("--base is required");
  if (out_dir.empty()) args.Fail("--out-dir is required");
  if (index_kind != "hnsw" && index_kind != "ivf" && index_kind != "both" &&
      index_kind != "none") {
    args.Fail("--index must be hnsw, ivf, both or none");
  }
  for (const std::string& m : methods) {
    if (m != "adsampling" && m != "ddc-res" && m != "ddc-pca" &&
        m != "ddc-opq") {
      args.Fail("unknown method '" + m + "' in --methods");
    }
  }
  if (!args.Validate()) {
    PrintUsage();
    return 1;
  }

  resinfer::data::Dataset ds;
  ds.name = "cli";
  // Non-finite base vectors are dropped (with a counted warning) rather
  // than poisoning every downstream distance; note the drop shifts row ids
  // against any precomputed ground truth.
  resinfer::data::ReadStats base_stats;
  if (resinfer::util::Status s = resinfer::data::ReadFvecs(
          base_path, &ds.base, resinfer::data::NonFinitePolicy::kDrop,
          &base_stats);
      !s.ok()) {
    std::fprintf(stderr, "error reading base vectors: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  if (base_stats.dropped_rows > 0) {
    std::fprintf(stderr,
                 "warning: dropped %lld base vector(s) with NaN/Inf "
                 "components (first at row %lld); row ids shift against any "
                 "precomputed ground truth\n",
                 static_cast<long long>(base_stats.dropped_rows),
                 static_cast<long long>(base_stats.first_bad_row));
  }
  if (!train_path.empty()) {
    if (resinfer::util::Status s =
            resinfer::data::ReadFvecs(train_path, &ds.train_queries);
        !s.ok()) {
      std::fprintf(stderr, "error reading train queries: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (ds.train_queries.cols() != ds.base.cols()) {
      std::fprintf(stderr, "error: train dim %lld != base dim %lld\n",
                   static_cast<long long>(ds.train_queries.cols()),
                   static_cast<long long>(ds.base.cols()));
      return 1;
    }
  } else if (NeedsTraining(methods)) {
    std::fprintf(stderr,
                 "error: --train is required for ddc-pca / ddc-opq\n");
    return 1;
  }
  std::printf("base: %lld x %lld\n", static_cast<long long>(ds.size()),
              static_cast<long long>(ds.dim()));

  // Spectrum-based method advice (Exp-1's selection rule).
  resinfer::core::MethodAdvice advice = resinfer::core::AdviseMethod(
      resinfer::core::ProfileSpectrum(ds.base));
  std::printf("advisor: recommend %s — %s\n", advice.recommended.c_str(),
              advice.rationale.c_str());

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::ofstream manifest(out_dir + "/MANIFEST.txt");
  manifest << "base=" << base_path << "\nn=" << ds.size()
           << "\ndim=" << ds.dim()
           << "\nadvisor=" << advice.recommended
           << "\nexplained_variance_32=" << advice.explained_variance_32
           << "\n";

  resinfer::WallTimer timer;
  auto persist_or_die = [&](const resinfer::util::Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  };

  // Indexes.
  if (index_kind == "hnsw" || index_kind == "both") {
    resinfer::index::HnswOptions options;
    options.M = hnsw_m;
    options.ef_construction = ef_construction;
    timer.Reset();
    resinfer::index::HnswIndex hnsw =
        resinfer::index::HnswIndex::Build(ds.base, options);
    const double seconds = timer.ElapsedSeconds();
    persist_or_die(
        resinfer::persist::SaveHnsw(out_dir + "/hnsw.bin", hnsw));
    std::printf("hnsw.bin built in %.2fs (M=%d efC=%d)\n", seconds, hnsw_m,
                ef_construction);
    manifest << "hnsw_seconds=" << seconds << "\n";
  }
  if (index_kind == "ivf" || index_kind == "both") {
    resinfer::index::IvfOptions options;
    options.num_clusters = clusters;
    timer.Reset();
    resinfer::index::IvfIndex ivf =
        resinfer::index::IvfIndex::Build(ds.base, options);
    const double seconds = timer.ElapsedSeconds();
    persist_or_die(
        resinfer::persist::SaveIvf(out_dir + "/ivf.bin", ivf));
    std::printf("ivf.bin built in %.2fs (%lld clusters)\n", seconds,
                static_cast<long long>(ivf.num_clusters()));
    manifest << "ivf_seconds=" << seconds << "\n";
  }

  // Distance-computation artifacts through the shared factory.
  MethodFactory factory(&ds);
  for (const std::string& method : methods) {
    timer.Reset();
    if (method == "adsampling") {
      persist_or_die(resinfer::persist::SaveMatrix(
          out_dir + "/ads_rotation.bin", factory.EnsureAdsRotation()));
      persist_or_die(resinfer::persist::SaveMatrix(
          out_dir + "/ads_base.bin", factory.EnsureAdsRotatedBase()));
    } else if (method == "ddc-res") {
      persist_or_die(resinfer::persist::SavePca(out_dir + "/pca.bin",
                                                factory.EnsurePca()));
      persist_or_die(resinfer::persist::SaveMatrix(
          out_dir + "/pca_base.bin", factory.EnsurePcaRotatedBase()));
    } else if (method == "ddc-pca") {
      persist_or_die(resinfer::persist::SavePca(out_dir + "/pca.bin",
                                                factory.EnsurePca()));
      persist_or_die(resinfer::persist::SaveMatrix(
          out_dir + "/pca_base.bin", factory.EnsurePcaRotatedBase()));
      persist_or_die(resinfer::persist::SaveDdcPcaArtifacts(
          out_dir + "/ddc_pca.bin", factory.EnsureDdcPcaArtifacts()));
    } else if (method == "ddc-opq") {
      persist_or_die(resinfer::persist::SaveDdcOpqArtifacts(
          out_dir + "/ddc_opq.bin", factory.EnsureDdcOpqArtifacts()));
    }
    const double seconds = timer.ElapsedSeconds();
    std::printf("%s artifacts in %.2fs\n", method.c_str(), seconds);
    manifest << method << "_seconds=" << seconds << "\n";
    if (method == "ddc-opq") {
      // The OPQ share (train + encode) and the corrector's, apart.
      const resinfer::core::PreprocessCosts& costs = factory.costs();
      std::printf("  opq %.2fs, corrector %.2fs\n", costs.opq_seconds,
                  costs.ddc_opq_train_seconds);
      manifest << "opq_seconds=" << costs.opq_seconds
               << "\nddc-opq_corrector_seconds="
               << costs.ddc_opq_train_seconds << "\n";
    }
  }

  std::printf("done; artifacts in %s\n", out_dir.c_str());
  return 0;
}
