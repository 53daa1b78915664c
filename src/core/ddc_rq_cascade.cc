#include "core/ddc_rq_cascade.h"

#include <algorithm>
#include <cmath>

#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace resinfer::core {

namespace {

// ADC truncated to `stages` codebooks, from the per-query IP table.
float TruncatedAdc(const quant::RqCodebook& rq, const float* table,
                   float query_norm_sqr, const uint8_t* code, int stages,
                   float level_norm_sqr) {
  float ip = 0.0f;
  for (int m = 0; m < stages; ++m) {
    ip += table[static_cast<int64_t>(m) * rq.num_centroids() +
                rq.CodeAt(code, m)];
  }
  return query_norm_sqr - 2.0f * ip + level_norm_sqr;
}

}  // namespace

DdcRqCascadeArtifacts TrainDdcRqCascade(const linalg::Matrix& base,
                                        const linalg::Matrix& train_queries,
                                        const DdcRqCascadeOptions& options) {
  RESINFER_CHECK(!options.levels.empty());
  for (std::size_t l = 1; l < options.levels.size(); ++l) {
    RESINFER_CHECK_MSG(options.levels[l] > options.levels[l - 1],
                       "cascade levels must be strictly increasing");
  }
  RESINFER_CHECK(options.levels.front() >= 1);
  RESINFER_CHECK(base.cols() == train_queries.cols());

  const int64_t n = base.rows();
  const int64_t d = base.cols();
  const auto num_levels = static_cast<int64_t>(options.levels.size());

  WallTimer timer;
  DdcRqCascadeArtifacts artifacts;
  artifacts.levels = options.levels;

  quant::RqOptions rq_options = options.rq;
  rq_options.num_stages =
      std::max(rq_options.num_stages, options.levels.back());
  artifacts.rq = quant::RqCodebook::Train(base.data(), n, d, rq_options);

  std::vector<float> full_norms;  // unused beyond EncodeBatch's contract
  artifacts.codes = artifacts.rq.EncodeBatch(base.data(), n, &full_norms);

  // Per-level reconstruction norms and errors for every point.
  artifacts.level_norms.resize(static_cast<std::size_t>(n * num_levels));
  artifacts.level_errors.resize(static_cast<std::size_t>(n * num_levels));
  const quant::RqCodebook& rq = artifacts.rq;
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> partial(static_cast<std::size_t>(d));
    for (int64_t i = begin; i < end; ++i) {
      const uint8_t* code = artifacts.codes.data() + i * rq.code_size();
      std::fill(partial.begin(), partial.end(), 0.0f);
      int stage = 0;
      for (int64_t l = 0; l < num_levels; ++l) {
        for (; stage < options.levels[static_cast<std::size_t>(l)];
             ++stage) {
          const float* c = rq.centroids(stage).Row(rq.CodeAt(code, stage));
          for (int64_t j = 0; j < d; ++j) {
            partial[static_cast<std::size_t>(j)] += c[j];
          }
        }
        artifacts.level_norms[static_cast<std::size_t>(i * num_levels + l)] =
            simd::Norm2Sqr(partial.data(), static_cast<std::size_t>(d));
        artifacts.level_errors[static_cast<std::size_t>(i * num_levels +
                                                        l)] =
            simd::L2Sqr(partial.data(), base.Row(i),
                        static_cast<std::size_t>(d));
      }
    }
  });

  // One classifier per level, on the shared labeled pairs.
  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(base, train_queries, options.training);

  LinearCorrectorOptions corrector_options = options.corrector;
  corrector_options.num_features = 3;
  if (options.split_target_across_levels && num_levels > 1) {
    corrector_options.target_recall = std::pow(
        options.corrector.target_recall, 1.0 / static_cast<double>(num_levels));
  }

  std::vector<float> table(static_cast<std::size_t>(rq.ip_table_size()));
  for (int64_t l = 0; l < num_levels; ++l) {
    const int stages = options.levels[static_cast<std::size_t>(l)];
    int64_t current_query = -1;
    float query_norm_sqr = 0.0f;
    std::vector<CorrectorSample> samples = MaterializeSamples(
        pairs, [&](int64_t query_index, int64_t id, float* extra) {
          if (query_index != current_query) {
            rq.ComputeIpTable(train_queries.Row(query_index), table.data());
            query_norm_sqr =
                simd::Norm2Sqr(train_queries.Row(query_index),
                               static_cast<std::size_t>(d));
            current_query = query_index;
          }
          *extra = artifacts.level_errors[static_cast<std::size_t>(
              id * num_levels + l)];
          return TruncatedAdc(
              rq, table.data(), query_norm_sqr,
              artifacts.codes.data() + id * rq.code_size(), stages,
              artifacts.level_norms[static_cast<std::size_t>(
                  id * num_levels + l)]);
        });
    artifacts.correctors.push_back(
        LinearCorrector::Train(samples, corrector_options));
  }

  artifacts.train_seconds = timer.ElapsedSeconds();
  return artifacts;
}

DdcRqCascadeComputer::DdcRqCascadeComputer(
    const linalg::Matrix* base, const DdcRqCascadeArtifacts* artifacts)
    : base_(base), artifacts_(artifacts) {
  RESINFER_CHECK(base != nullptr && artifacts != nullptr);
  RESINFER_CHECK(artifacts->rq.trained());
  RESINFER_CHECK(artifacts->rq.dim() == base->cols());
  RESINFER_CHECK(artifacts->correctors.size() == artifacts->levels.size());
}

void DdcRqCascadeComputer::BeginQuery(const float* query) {
  SetQueryBatch(query, 1, dim());
  SelectQuery(0);
}

void DdcRqCascadeComputer::SetQueryBatch(const float* queries, int count,
                                         int64_t stride) {
  index::DistanceComputer::SetQueryBatch(queries, count, stride);
  const int64_t table_size = artifacts_->rq.ip_table_size();
  group_tables_.resize(static_cast<std::size_t>(count * table_size));
  group_norms_.resize(static_cast<std::size_t>(count));
  for (int g = 0; g < count; ++g) {
    const float* q = GroupQuery(g);
    artifacts_->rq.ComputeIpTable(q, group_tables_.data() + g * table_size);
    group_norms_[static_cast<std::size_t>(g)] =
        simd::Norm2Sqr(q, static_cast<std::size_t>(base_->cols()));
  }
}

void DdcRqCascadeComputer::SelectQuery(int g) {
  RESINFER_DCHECK(g >= 0 && g < group_count_);
  query_ = GroupQuery(g);
  active_ip_table_ =
      group_tables_.data() + g * artifacts_->rq.ip_table_size();
  query_norm_sqr_ = group_norms_[static_cast<std::size_t>(g)];
}

index::EstimateResult DdcRqCascadeComputer::Cascade(
    const uint8_t* code, const float* norms, const float* errors, int64_t id,
    float tau) {
  ++stats_.candidates;
  if (std::isfinite(tau)) {
    const quant::RqCodebook& rq = artifacts_->rq;
    const std::size_t num_levels = artifacts_->levels.size();
    float ip = 0.0f;
    int stage = 0;
    for (std::size_t l = 0; l < num_levels; ++l) {
      for (; stage < artifacts_->levels[l]; ++stage) {
        ip += active_ip_table_[static_cast<std::size_t>(
            static_cast<int64_t>(stage) * rq.num_centroids() +
            rq.CodeAt(code, stage))];
        ++stage_lookups_;
      }
      const float approx = query_norm_sqr_ - 2.0f * ip + norms[l];
      if (artifacts_->correctors[l].PredictPrunable(approx, tau, errors[l])) {
        ++stats_.pruned;
        return {true, approx};
      }
    }
  }
  ++stats_.exact_computations;
  stats_.dims_scanned += dim();
  return {false, ExactDistance(id)};
}

index::EstimateResult DdcRqCascadeComputer::EstimateWithThreshold(
    int64_t id, float tau) {
  const int64_t num_levels =
      static_cast<int64_t>(artifacts_->levels.size());
  return Cascade(artifacts_->codes.data() + id * artifacts_->rq.code_size(),
                 artifacts_->level_norms.data() + id * num_levels,
                 artifacts_->level_errors.data() + id * num_levels, id, tau);
}

std::string DdcRqCascadeComputer::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(artifacts_->codes.data(),
                                         artifacts_->codes.size());
    f = quant::FingerprintArray(
        artifacts_->level_norms.data(),
        artifacts_->level_norms.size() * sizeof(float), f);
    f = quant::FingerprintArray(
        artifacts_->level_errors.data(),
        artifacts_->level_errors.size() * sizeof(float), f);
    code_tag_ = quant::MakeCodeTag(
        "ddc-rq-cascade", artifacts_->rq.code_size(),
        2 * static_cast<int>(artifacts_->levels.size()), size(), f,
        artifacts_->rq.layout().packing);
  }
  return code_tag_;
}

quant::CodeStore DdcRqCascadeComputer::MakeCodeStore() const {
  const int64_t code_size = artifacts_->rq.code_size();
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  quant::CodeStore store(size(), code_size,
                         static_cast<int>(2 * num_levels), code_tag(),
                         artifacts_->rq.layout().packing);
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, artifacts_->codes.data() + i * code_size);
    for (int64_t l = 0; l < num_levels; ++l) {
      store.SetSidecar(i, static_cast<int>(l),
                       artifacts_->level_norms[static_cast<std::size_t>(
                           i * num_levels + l)]);
      store.SetSidecar(i, static_cast<int>(num_levels + l),
                       artifacts_->level_errors[static_cast<std::size_t>(
                           i * num_levels + l)]);
    }
  }
  return store;
}

void DdcRqCascadeComputer::EstimateBatchCodes(const uint8_t* codes,
                                              const int64_t* ids, int count,
                                              float tau,
                                              index::EstimateResult* out) {
  // The cascade of EstimateWithThreshold, with the code bytes and
  // per-level norms/errors read off the sequential record stream; only
  // exact fallbacks touch the (id-gathered) base rows.
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  const int64_t code_size = artifacts_->rq.code_size();
  const int64_t stride =
      quant::CodeRecordStride(code_size, static_cast<int>(2 * num_levels));
  for (int i = 0; i < count; ++i) {
    const uint8_t* rec = codes + i * stride;
    if (i + 1 < count) RESINFER_PREFETCH(rec + stride);
    const float* norms = quant::RecordSidecars(rec, code_size);
    out[i] = Cascade(rec, norms, norms + num_levels, ids[i], tau);
  }
}

float DdcRqCascadeComputer::ExactDistance(int64_t id) {
  RESINFER_DCHECK(query_ != nullptr);
  return simd::L2Sqr(query_, base_->Row(id),
                     static_cast<std::size_t>(dim()));
}

float DdcRqCascadeComputer::ApproximateDistance(int64_t id,
                                                int level) const {
  RESINFER_DCHECK(level >= 0 &&
                  level < static_cast<int>(artifacts_->levels.size()));
  const auto num_levels = static_cast<int64_t>(artifacts_->levels.size());
  return TruncatedAdc(
      artifacts_->rq, active_ip_table_, query_norm_sqr_,
      artifacts_->codes.data() + id * artifacts_->rq.code_size(),
      artifacts_->levels[static_cast<std::size_t>(level)],
      artifacts_->level_norms[static_cast<std::size_t>(id * num_levels +
                                                       level)]);
}

}  // namespace resinfer::core
