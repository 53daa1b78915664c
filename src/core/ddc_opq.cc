#include "core/ddc_opq.h"

#include <algorithm>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace resinfer::core {

int DefaultOpqSubspaces(int64_t dim) {
  int target = static_cast<int>(std::max<int64_t>(1, dim / 4));
  return quant::LargestDivisorAtMost(dim, target);
}

DdcOpqArtifacts TrainDdcOpq(const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcOpqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();
  RESINFER_CHECK(d == train_queries.cols());

  DdcOpqArtifacts artifacts;
  WallTimer timer;

  quant::OpqOptions opq_options = options.opq;
  if (opq_options.pq.num_subspaces <= 0 ||
      d % opq_options.pq.num_subspaces != 0) {
    opq_options.pq.num_subspaces = DefaultOpqSubspaces(d);
  }
  artifacts.opq = quant::OpqModel::Train(base.data(), n, d, opq_options);

  // Encode the full base in the rotated space; keep per-point
  // reconstruction errors as the classifier's third feature.
  linalg::Matrix rotated = artifacts.opq.RotateBatch(base.data(), n);
  artifacts.codes = artifacts.opq.codebook().EncodeBatch(rotated.data(), n);
  artifacts.recon_errors.resize(n);
  const auto& codebook = artifacts.opq.codebook();
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> decoded(d);
    for (int64_t i = begin; i < end; ++i) {
      codebook.Decode(artifacts.codes.data() + i * codebook.code_size(),
                      decoded.data());
      artifacts.recon_errors[i] = simd::L2Sqr(
          decoded.data(), rotated.Row(i), static_cast<std::size_t>(d));
    }
  });
  artifacts.opq_train_seconds = timer.ElapsedSeconds();

  // Corrector training on the estimates the computer serves: packed
  // codebooks serve quantized-LUT estimates, so the corrector must see
  // that feature distribution.
  timer.Reset();
  PqAdcEstimator estimator(&artifacts.opq, &artifacts.codes,
                           &artifacts.recon_errors);
  artifacts.corrector = TrainAnyCorrector(estimator, base, train_queries,
                                          options.training, options.corrector);
  artifacts.corrector_train_seconds = timer.ElapsedSeconds();
  return artifacts;
}

std::unique_ptr<DdcAnyComputer> MakeDdcOpqComputer(
    const linalg::Matrix* base, const DdcOpqArtifacts* artifacts) {
  RESINFER_CHECK(base != nullptr && artifacts != nullptr);
  RESINFER_CHECK(artifacts->opq.trained());
  return std::make_unique<DdcAnyComputer>(
      base,
      std::make_unique<PqAdcEstimator>(&artifacts->opq, &artifacts->codes,
                                       &artifacts->recon_errors),
      &artifacts->corrector);
}

}  // namespace resinfer::core
