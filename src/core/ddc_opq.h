// DDCopq (§V-B): OPQ asymmetric (ADC) distance as the approximation,
// corrected by a learned linear classifier — the demonstration that the
// data-driven correction is agnostic to the distance-estimation source.
//
// Features: the ADC distance, the threshold tau, and (third feature, per
// the paper) the distance from the point to its quantized centroid — a
// per-point reconstruction error that tells the classifier how much to
// trust the ADC estimate for that particular point.
//
// At query time DDCopq is the generic DdcAnyComputer (core/ddc_any.h) over
// a PqAdcEstimator that rotates each query by the OPQ model first; this
// header holds what is specific to it: training and the artifacts.
#ifndef RESINFER_CORE_DDC_OPQ_H_
#define RESINFER_CORE_DDC_OPQ_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ddc_any.h"
#include "core/linear_corrector.h"
#include "core/training_data.h"
#include "linalg/matrix.h"
#include "quant/opq.h"

namespace resinfer::core {

struct DdcOpqOptions {
  quant::OpqOptions opq;
  LinearCorrectorOptions corrector;  // num_features forced to 3
  TrainingDataOptions training;
};

// Picks num_subspaces =~ dim/4 (the paper's storage setting, §VI-B) as the
// largest divisor of `dim` at most dim/4, floor 1.
int DefaultOpqSubspaces(int64_t dim);

// Trained per-dataset state shared by every DDCopq computer.
struct DdcOpqArtifacts {
  quant::OpqModel opq;
  std::vector<uint8_t> codes;       // n * code_size
  std::vector<float> recon_errors;  // n, squared reconstruction error
  LinearCorrector corrector;
  double opq_train_seconds = 0.0;
  double corrector_train_seconds = 0.0;

  int64_t ExtraBytes() const {
    return static_cast<int64_t>(codes.size()) +
           static_cast<int64_t>(recon_errors.size()) * sizeof(float) +
           opq.rotation().size() * static_cast<int64_t>(sizeof(float));
  }
};

DdcOpqArtifacts TrainDdcOpq(const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcOpqOptions& options = DdcOpqOptions());

// The DDCopq computer: exact fallbacks against `base`, the ORIGINAL
// (un-rotated) data; ADC estimates in the OPQ-rotated space, read from
// `artifacts` in place. Both must outlive the computer. Named "ddc-opq";
// its code records are [opq code | recon_error].
std::unique_ptr<DdcAnyComputer> MakeDdcOpqComputer(
    const linalg::Matrix* base, const DdcOpqArtifacts* artifacts);

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_OPQ_H_
