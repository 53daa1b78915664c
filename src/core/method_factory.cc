#include "core/method_factory.h"

#include "linalg/orthogonal.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace resinfer::core {

MethodFactory::MethodFactory(const data::Dataset* dataset,
                             const FactoryOptions& options)
    : dataset_(dataset), options_(options) {
  RESINFER_CHECK(dataset != nullptr);
  RESINFER_CHECK(dataset->base.rows() > 0);
}

const linalg::PcaModel& MethodFactory::EnsurePca() {
  if (!pca_.has_value()) {
    WallTimer timer;
    pca_ = linalg::PcaModel::Fit(dataset_->base.data(), dataset_->base.rows(),
                                 dataset_->base.cols(), options_.pca);
    costs_.pca_seconds += timer.ElapsedSeconds();
  }
  return *pca_;
}

const linalg::Matrix& MethodFactory::EnsurePcaRotatedBase() {
  if (!pca_rotated_base_.has_value()) {
    const linalg::PcaModel& pca = EnsurePca();
    WallTimer timer;
    pca_rotated_base_ =
        pca.TransformBatch(dataset_->base.data(), dataset_->base.rows());
    costs_.pca_seconds += timer.ElapsedSeconds();
  }
  return *pca_rotated_base_;
}

const linalg::Matrix& MethodFactory::EnsureAdsRotation() {
  if (!ads_rotation_.has_value()) {
    WallTimer timer;
    Rng rng(options_.ads_rotation_seed);
    ads_rotation_ = linalg::RandomOrthonormal(dataset_->base.cols(), rng);
    costs_.ads_seconds += timer.ElapsedSeconds();
  }
  return *ads_rotation_;
}

const linalg::Matrix& MethodFactory::EnsureAdsRotatedBase() {
  if (!ads_rotated_base_.has_value()) {
    const linalg::Matrix& rotation = EnsureAdsRotation();
    WallTimer timer;
    const int64_t n = dataset_->base.rows();
    const int64_t d = dataset_->base.cols();
    linalg::Matrix rotated(n, d);
    ParallelFor(n, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        linalg::MatVec(rotation, dataset_->base.Row(i), rotated.Row(i));
      }
    });
    ads_rotated_base_ = std::move(rotated);
    costs_.ads_seconds += timer.ElapsedSeconds();
  }
  return *ads_rotated_base_;
}

const DdcPcaArtifacts& MethodFactory::EnsureDdcPcaArtifacts() {
  if (!ddc_pca_artifacts_.has_value()) {
    const linalg::PcaModel& pca = EnsurePca();
    const linalg::Matrix& rotated = EnsurePcaRotatedBase();
    ddc_pca_artifacts_ = TrainDdcPca(pca, rotated, dataset_->base,
                                     dataset_->train_queries,
                                     options_.ddc_pca);
    costs_.ddc_pca_train_seconds = ddc_pca_artifacts_->train_seconds;
  }
  return *ddc_pca_artifacts_;
}

const DdcOpqArtifacts& MethodFactory::EnsureDdcOpqArtifacts() {
  if (!ddc_opq_artifacts_.has_value()) {
    ddc_opq_artifacts_ = TrainDdcOpq(dataset_->base, dataset_->train_queries,
                                     options_.ddc_opq);
    costs_.opq_seconds = ddc_opq_artifacts_->opq_train_seconds;
    costs_.ddc_opq_train_seconds =
        ddc_opq_artifacts_->corrector_train_seconds;
  }
  return *ddc_opq_artifacts_;
}

const FingerArtifacts& MethodFactory::EnsureFingerArtifacts(
    const index::HnswIndex& graph) {
  if (!finger_artifacts_.has_value()) {
    finger_artifacts_ = BuildFingerArtifacts(
        dataset_->base, graph, dataset_->train_queries, options_.finger);
    costs_.finger_seconds = finger_artifacts_->build_seconds;
    costs_.finger_bytes = finger_artifacts_->ExtraBytes();
  }
  return *finger_artifacts_;
}

std::unique_ptr<index::DistanceComputer> MethodFactory::Make(
    const std::string& method, const index::HnswIndex* graph) {
  if (method == kMethodExact) {
    return std::make_unique<index::FlatDistanceComputer>(
        dataset_->base.data(), dataset_->base.rows(), dataset_->base.cols());
  }
  if (method == kMethodAdSampling) {
    const linalg::Matrix& rotation = EnsureAdsRotation();
    const linalg::Matrix& rotated = EnsureAdsRotatedBase();
    auto computer = std::make_unique<AdSamplingComputer>(
        &rotation, &rotated, options_.ad_sampling);
    costs_.ads_bytes = computer->ExtraBytes();
    return computer;
  }
  if (method == kMethodDdcRes) {
    const linalg::PcaModel& pca = EnsurePca();
    const linalg::Matrix& rotated = EnsurePcaRotatedBase();
    auto computer =
        std::make_unique<DdcResComputer>(&pca, &rotated, options_.ddc_res);
    costs_.ddc_res_bytes = computer->ExtraBytes();
    return computer;
  }
  if (method == kMethodDdcPca) {
    const DdcPcaArtifacts& artifacts = EnsureDdcPcaArtifacts();
    auto computer = std::make_unique<DdcPcaComputer>(
        &*pca_, &*pca_rotated_base_, &artifacts);
    costs_.ddc_pca_bytes = computer->ExtraBytes();
    return computer;
  }
  if (method == kMethodDdcOpq) {
    const DdcOpqArtifacts& artifacts = EnsureDdcOpqArtifacts();
    costs_.ddc_opq_bytes = artifacts.ExtraBytes();
    return MakeDdcOpqComputer(&dataset_->base, &artifacts);
  }
  if (method == kMethodFinger) {
    RESINFER_CHECK_MSG(graph != nullptr,
                       "finger requires the HNSW graph it was built for");
    const FingerArtifacts& artifacts = EnsureFingerArtifacts(*graph);
    return std::make_unique<FingerComputer>(&dataset_->base, &artifacts);
  }
  RESINFER_CHECK_MSG(false, ("unknown method: " + method).c_str());
  return nullptr;
}

std::vector<std::string> AllMethodNames(bool include_finger) {
  std::vector<std::string> names = {kMethodExact, kMethodAdSampling,
                                    kMethodDdcOpq, kMethodDdcPca,
                                    kMethodDdcRes};
  if (include_finger) names.push_back(kMethodFinger);
  return names;
}

}  // namespace resinfer::core
