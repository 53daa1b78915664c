// DDCpca (§V-B): plain PCA low-dimensional distance as the approximation,
// corrected by learned linear classifiers.
//
// Unlike DDCres there is no distance decomposition — the approximate
// distance at stage dimension d is simply ||x_d - q_d||^2 (a lower bound of
// the exact distance that grows toward it as d increases). One classifier
// is trained per incremental stage (§V-B "Incremental Correction"); at
// query time a candidate is pruned at the first stage whose classifier
// predicts dis > tau, otherwise the scan continues to the next stage and
// finally to the exact distance.
#ifndef RESINFER_CORE_DDC_PCA_H_
#define RESINFER_CORE_DDC_PCA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/linear_corrector.h"
#include "core/training_data.h"
#include "index/distance_computer.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"

namespace resinfer::core {

struct DdcPcaOptions {
  int64_t init_dim = 32;
  int64_t delta_dim = 64;
  // Split the overall target recall geometrically across stages so the
  // survival probability of a true neighbor over the whole cascade matches
  // the configured target.
  bool split_target_across_stages = true;
  LinearCorrectorOptions corrector;
  TrainingDataOptions training;
};

// Trained state shared by all DdcPcaComputer instances for one dataset.
struct DdcPcaArtifacts {
  std::vector<int64_t> stage_dims;          // ascending, all < D
  std::vector<LinearCorrector> correctors;  // one per stage
  double train_seconds = 0.0;
};

// `pca`/`rotated_base` are the same artifacts DDCres uses; `base` /
// `train_queries` are in the original space.
DdcPcaArtifacts TrainDdcPca(const linalg::PcaModel& pca,
                            const linalg::Matrix& rotated_base,
                            const linalg::Matrix& base,
                            const linalg::Matrix& train_queries,
                            const DdcPcaOptions& options = DdcPcaOptions());

class DdcPcaComputer : public index::DistanceComputer {
 public:
  // All pointers are shared artifacts and must outlive the computer.
  DdcPcaComputer(const linalg::PcaModel* pca,
                 const linalg::Matrix* rotated_base,
                 const DdcPcaArtifacts* artifacts);

  int64_t dim() const override { return pca_->dim(); }
  int64_t size() const override { return rotated_base_->rows(); }
  std::string name() const override { return "ddc-pca"; }

  void BeginQuery(const float* query) override;
  index::EstimateResult EstimateWithThreshold(int64_t id,
                                              float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     index::EstimateResult* out) override;
  // Code-resident form; record = the first stage_dims[0] floats of the
  // PCA-rotated row, all the first stage reads. The few candidates that
  // survive it continue from rotated_base_ by id (core/staged_scan.h).
  std::string code_tag() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                          int count, float tau,
                          index::EstimateResult* out) override;
  // Every member's PCA-rotated query is built once per SetQueryBatch (a
  // single query is a group of one); SelectQuery swaps a pointer.
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override;
  void SelectQuery(int g) override;
  float ExactDistance(int64_t id) override;

  // Plain projected distance ||x_d - q_d||^2 (Table III accuracy bench).
  float ApproximateDistance(int64_t id, int64_t d) const;

  int64_t ExtraBytes() const;

 private:
  // Bytes per code record: the first-stage prefix.
  int64_t CodeSize() const;
  // The one estimate loop behind every entry point: prefixes stream from
  // `codes` when given, else they are read by id (core/staged_scan.h).
  void Scan(const uint8_t* codes, const int64_t* ids, int count, float tau,
            index::EstimateResult* out);

  const linalg::PcaModel* pca_;
  const linalg::Matrix* rotated_base_;
  const DdcPcaArtifacts* artifacts_;

  std::vector<float> group_rotated_;  // group x dim
  // The selected member's rotated query.
  const float* active_rotated_query_ = nullptr;
  // Lazily built (content fingerprint is O(n)); computers are per-thread.
  mutable std::string code_tag_;
};

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_PCA_H_
