#include "core/ddc_any.h"

#include <algorithm>
#include <cmath>

#include "index/block_refine.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"

namespace resinfer::core {

// --- Artifact builders -----------------------------------------------------

int64_t PqEstimatorData::ExtraBytes() const {
  return static_cast<int64_t>(codes.size()) +
         static_cast<int64_t>(recon_errors.size()) * sizeof(float);
}

PqEstimatorData BuildPqEstimatorData(const linalg::Matrix& base,
                                     const quant::PqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();
  quant::PqOptions pq_options = options;
  if (pq_options.num_subspaces <= 0 || d % pq_options.num_subspaces != 0) {
    pq_options.num_subspaces = quant::LargestDivisorAtMost(
        d, static_cast<int>(std::max<int64_t>(1, d / 4)));
  }

  PqEstimatorData data;
  data.pq = quant::PqCodebook::Train(base.data(), n, d, pq_options);
  data.codes = data.pq.EncodeBatch(base.data(), n);
  data.recon_errors.resize(static_cast<std::size_t>(n));
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> decoded(d);
    for (int64_t i = begin; i < end; ++i) {
      data.pq.Decode(data.codes.data() + i * data.pq.code_size(),
                     decoded.data());
      data.recon_errors[static_cast<std::size_t>(i)] = simd::L2Sqr(
          decoded.data(), base.Row(i), static_cast<std::size_t>(d));
    }
  });
  return data;
}

int64_t RqEstimatorData::ExtraBytes() const {
  return static_cast<int64_t>(codes.size()) +
         static_cast<int64_t>(recon_norms.size() + recon_errors.size()) *
             sizeof(float);
}

RqEstimatorData BuildRqEstimatorData(const linalg::Matrix& base,
                                     const quant::RqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();

  RqEstimatorData data;
  data.rq = quant::RqCodebook::Train(base.data(), n, d, options);
  data.codes = data.rq.EncodeBatch(base.data(), n, &data.recon_norms);
  data.recon_errors.resize(static_cast<std::size_t>(n));
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    std::vector<float> decoded(d);
    for (int64_t i = begin; i < end; ++i) {
      data.rq.Decode(data.codes.data() + i * data.rq.code_size(),
                     decoded.data());
      data.recon_errors[static_cast<std::size_t>(i)] = simd::L2Sqr(
          decoded.data(), base.Row(i), static_cast<std::size_t>(d));
    }
  });
  return data;
}

int64_t SqEstimatorData::ExtraBytes() const {
  return static_cast<int64_t>(codes.size()) +
         static_cast<int64_t>(recon_errors.size()) * sizeof(float) +
         static_cast<int64_t>(sq.dim()) * 2 * sizeof(float);
}

SqEstimatorData BuildSqEstimatorData(const linalg::Matrix& base,
                                     const quant::SqOptions& options) {
  const int64_t n = base.rows();
  const int64_t d = base.cols();

  SqEstimatorData data;
  data.sq = quant::SqCodebook::Train(base.data(), n, d, options);
  data.codes = data.sq.EncodeBatch(base.data(), n);
  data.recon_errors.resize(static_cast<std::size_t>(n));
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      data.recon_errors[static_cast<std::size_t>(i)] =
          data.sq.AdcDistance(base.Row(i), data.codes.data() + i * d);
    }
  });
  return data;
}

// --- Estimators ------------------------------------------------------------

void ApproxDistanceEstimator::EstimateBatchCodes(const uint8_t* /*records*/,
                                                 int /*count*/, float* /*out*/,
                                                 float* /*extras*/) {
  RESINFER_CHECK_MSG(false,
                     "estimator has no code-resident form (empty code_tag)");
}

void ApproxDistanceEstimator::SetQueryBatch(const float* queries, int count,
                                            int64_t stride) {
  RESINFER_CHECK(queries != nullptr && count > 0 &&
                 count <= index::kMaxQueryGroup && stride >= dim());
  group_queries_ = queries;
  group_count_ = count;
  group_stride_ = stride;
}

void ApproxDistanceEstimator::EstimateBatchCodesGroup(
    const uint8_t* records, int count, const int* members, int num_members,
    float* out, float* extras) {
  for (int j = 0; j < num_members; ++j) {
    SelectQuery(members[j]);
    EstimateBatchCodes(records, count, out + static_cast<int64_t>(j) * count,
                       extras + static_cast<int64_t>(j) * count);
  }
}

PqAdcEstimator::PqAdcEstimator(const PqEstimatorData* data)
    : PqAdcEstimator(data != nullptr ? &data->pq : nullptr, nullptr,
                     data != nullptr ? &data->codes : nullptr,
                     data != nullptr ? &data->recon_errors : nullptr) {}

PqAdcEstimator::PqAdcEstimator(const quant::OpqModel* opq,
                               const std::vector<uint8_t>* codes,
                               const std::vector<float>* recon_errors)
    : PqAdcEstimator(opq != nullptr ? &opq->codebook() : nullptr, opq, codes,
                     recon_errors) {
  rotated_.resize(static_cast<std::size_t>(opq->dim()));
}

PqAdcEstimator::PqAdcEstimator(const quant::PqCodebook* pq,
                               const quant::OpqModel* opq,
                               const std::vector<uint8_t>* codes,
                               const std::vector<float>* recon_errors)
    : pq_(pq),
      opq_(opq),
      codes_(codes),
      recon_errors_(recon_errors),
      packed_(pq != nullptr && pq->layout().packed()) {
  RESINFER_CHECK(pq != nullptr && pq->trained() && codes != nullptr &&
                 recon_errors != nullptr);
}

int64_t PqAdcEstimator::size() const {
  return static_cast<int64_t>(recon_errors_->size());
}

void PqAdcEstimator::SetQueryBatch(const float* queries, int count,
                                   int64_t stride) {
  ApproxDistanceEstimator::SetQueryBatch(queries, count, stride);
  const int64_t table_size = pq_->adc_table_size();
  group_tables_.resize(static_cast<std::size_t>(count * table_size));
  const int64_t lut_bytes = packed_ ? pq_->fast_scan_lut_bytes() : 0;
  if (packed_) {
    group_qluts_.resize(static_cast<std::size_t>(count * lut_bytes));
    group_qscales_.resize(static_cast<std::size_t>(count));
    group_qbiases_.resize(static_cast<std::size_t>(count));
  }
  for (int g = 0; g < count; ++g) {
    const float* query = GroupQuery(g);
    if (opq_ != nullptr) {
      opq_->Rotate(query, rotated_.data());
      query = rotated_.data();
    }
    float* table = group_tables_.data() + g * table_size;
    pq_->ComputeAdcTable(query, table);
    if (packed_) {
      pq_->QuantizeAdcTable(table, group_qluts_.data() + g * lut_bytes,
                            &group_qscales_[static_cast<std::size_t>(g)],
                            &group_qbiases_[static_cast<std::size_t>(g)]);
    }
  }
}

void PqAdcEstimator::SelectQuery(int g) {
  RESINFER_DCHECK(g >= 0 && g < group_count_);
  active_table_ = group_tables_.data() + g * pq_->adc_table_size();
  if (packed_) {
    active_qlut_ = group_qluts_.data() + g * pq_->fast_scan_lut_bytes();
    active_qscale_ = group_qscales_[static_cast<std::size_t>(g)];
    active_qbias_ = group_qbiases_[static_cast<std::size_t>(g)];
  }
}

float PqAdcEstimator::Estimate(int64_t id, float* extra) {
  *extra = (*recon_errors_)[static_cast<std::size_t>(id)];
  const uint8_t* code = codes_->data() + id * pq_->code_size();
  if (packed_) {
    return quant::PqCodebook::DequantizeFastScanSum(
        simd::PqAdcFastScanOne(active_qlut_, pq_->num_subspaces(), code),
        active_qscale_, active_qbias_);
  }
  return pq_->AdcDistance(active_table_, code);
}

void PqAdcEstimator::ScoreChunk(const uint8_t* const* codes, int n,
                                float* out) const {
  constexpr int kMaxChunk = 32;
  RESINFER_DCHECK(n <= kMaxChunk);
  if (packed_) {
    uint16_t sums[kMaxChunk];
    simd::PqAdcFastScan(active_qlut_, pq_->num_subspaces(), codes, n, sums);
    for (int j = 0; j < n; ++j) {
      out[j] = quant::PqCodebook::DequantizeFastScanSum(
          sums[j], active_qscale_, active_qbias_);
    }
  } else {
    simd::PqAdcBatch(active_table_, pq_->num_subspaces(),
                     pq_->num_centroids(), codes, n, out);
  }
}

void PqAdcEstimator::Scan(const uint8_t* records, const int64_t* ids,
                          int count, float* out, float* extras) {
  constexpr int kChunk = 16;
  const uint8_t* codes[kChunk];
  const int64_t code_size = pq_->code_size();
  const int64_t stride = code_record_stride();
  for (int i = 0; i < count; i += kChunk) {
    const int block = std::min(kChunk, count - i);
    for (int j = 0; j < block; ++j) {
      if (records != nullptr) {
        const uint8_t* rec = records + (i + j) * stride;
        codes[j] = rec;
        extras[i + j] = quant::RecordSidecars(rec, code_size)[0];
      } else {
        const int64_t id = ids[i + j];
        codes[j] = codes_->data() + id * code_size;
        extras[i + j] = (*recon_errors_)[static_cast<std::size_t>(id)];
      }
    }
    ScoreChunk(codes, block, out + i);
  }
}

void PqAdcEstimator::EstimateBatch(const int64_t* ids, int count, float* out,
                                   float* extras) {
  Scan(nullptr, ids, count, out, extras);
}

void PqAdcEstimator::EstimateBatchCodes(const uint8_t* records, int count,
                                        float* out, float* extras) {
  Scan(records, nullptr, count, out, extras);
}

int64_t PqAdcEstimator::query_state_bytes() const {
  // Packed scans read only the quantized LUT (512B at m = 32) — small
  // enough that block-level member tiling always pays.
  if (packed_) return pq_->fast_scan_lut_bytes();
  return pq_->adc_table_size() * static_cast<int64_t>(sizeof(float));
}

std::string PqAdcEstimator::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(codes_->data(), codes_->size());
    f = quant::FingerprintArray(recon_errors_->data(),
                                recon_errors_->size() * sizeof(float), f);
    code_tag_ = quant::MakeCodeTag(opq_ != nullptr ? "ddc-opq" : "pq-adc",
                                   pq_->code_size(), 1, size(), f,
                                   pq_->layout().packing);
  }
  return code_tag_;
}

int64_t PqAdcEstimator::code_record_stride() const {
  return quant::CodeRecordStride(pq_->code_size(), 1);
}

quant::CodeStore PqAdcEstimator::MakeCodeStore() const {
  const int64_t code_size = pq_->code_size();
  quant::CodeStore store(size(), code_size, 1, code_tag(),
                         pq_->layout().packing);
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, codes_->data() + i * code_size);
    store.SetSidecar(i, 0, (*recon_errors_)[static_cast<std::size_t>(i)]);
  }
  return store;
}

void PqAdcEstimator::EstimateBatchCodesGroup(const uint8_t* records,
                                             int count, const int* members,
                                             int num_members, float* out,
                                             float* extras) {
  // Per member this is exactly EstimateBatchCodes (same 16-code chunks,
  // same kernel lane order); the tile kernel evaluates each chunk for
  // every member's table while the codes are hot. The packed tier tiles
  // the quantized LUTs instead, sharing each chunk's nibble transpose
  // across the group before the per-member dequantization.
  constexpr int kChunk = 16;
  const uint8_t* codes[kChunk];
  RESINFER_DCHECK(num_members > 0 && num_members <= index::kMaxQueryGroup);
  const int64_t code_size = pq_->code_size();
  const int64_t stride = code_record_stride();
  const float* tables[index::kMaxQueryGroup];
  const uint8_t* luts[index::kMaxQueryGroup];
  for (int j = 0; j < num_members; ++j) {
    RESINFER_DCHECK(members[j] >= 0 && members[j] < group_count_);
    if (packed_) {
      luts[j] = group_qluts_.data() + members[j] * pq_->fast_scan_lut_bytes();
    } else {
      tables[j] = group_tables_.data() + members[j] * pq_->adc_table_size();
    }
  }
  for (int i = 0; i < count; i += kChunk) {
    const int block = std::min(kChunk, count - i);
    for (int j = 0; j < block; ++j) {
      const uint8_t* rec = records + (i + j) * stride;
      codes[j] = rec;
      const float recon_error = quant::RecordSidecars(rec, code_size)[0];
      for (int g = 0; g < num_members; ++g) {
        extras[static_cast<int64_t>(g) * count + i + j] = recon_error;
      }
    }
    if (packed_) {
      uint16_t tile[index::kMaxQueryGroup * kChunk];
      simd::PqAdcFastScanTile(luts, num_members, pq_->num_subspaces(), codes,
                              block, tile);
      for (int g = 0; g < num_members; ++g) {
        const float scale =
            group_qscales_[static_cast<std::size_t>(members[g])];
        const float bias =
            group_qbiases_[static_cast<std::size_t>(members[g])];
        float* row = out + static_cast<int64_t>(g) * count + i;
        const uint16_t* sums = tile + g * block;
        for (int j = 0; j < block; ++j) {
          row[j] =
              quant::PqCodebook::DequantizeFastScanSum(sums[j], scale, bias);
        }
      }
    } else {
      float tile[index::kMaxQueryGroup * kChunk];
      simd::PqAdcTile(tables, num_members, pq_->num_subspaces(),
                      pq_->num_centroids(), codes, block, tile);
      for (int g = 0; g < num_members; ++g) {
        std::copy(tile + g * block, tile + (g + 1) * block,
                  out + static_cast<int64_t>(g) * count + i);
      }
    }
  }
  SelectQuery(members[num_members - 1]);
}

RqAdcEstimator::RqAdcEstimator(const RqEstimatorData* data) : data_(data) {
  RESINFER_CHECK(data != nullptr && data->rq.trained());
  if (data->rq.layout().packed()) {
    unpack_scratch_.resize(static_cast<std::size_t>(kChunk) *
                           data->rq.num_stages());
  }
}

int64_t RqAdcEstimator::size() const {
  return static_cast<int64_t>(data_->recon_errors.size());
}

void RqAdcEstimator::SetQueryBatch(const float* queries, int count,
                                   int64_t stride) {
  ApproxDistanceEstimator::SetQueryBatch(queries, count, stride);
  const int64_t table_size = data_->rq.ip_table_size();
  group_tables_.resize(static_cast<std::size_t>(count * table_size));
  group_norms_.resize(static_cast<std::size_t>(count));
  for (int g = 0; g < count; ++g) {
    const float* q = GroupQuery(g);
    data_->rq.ComputeIpTable(q, group_tables_.data() + g * table_size);
    group_norms_[static_cast<std::size_t>(g)] =
        simd::Norm2Sqr(q, static_cast<std::size_t>(data_->rq.dim()));
  }
}

void RqAdcEstimator::SelectQuery(int g) {
  RESINFER_DCHECK(g >= 0 && g < group_count_);
  active_table_ = group_tables_.data() + g * data_->rq.ip_table_size();
  query_norm_sqr_ = group_norms_[static_cast<std::size_t>(g)];
}

float RqAdcEstimator::Estimate(int64_t id, float* extra) {
  *extra = data_->recon_errors[static_cast<std::size_t>(id)];
  return data_->rq.AdcDistance(
      active_table_, query_norm_sqr_,
      data_->codes.data() + id * data_->rq.code_size(),
      data_->recon_norms[static_cast<std::size_t>(id)]);
}

void RqAdcEstimator::GatherChunk(const uint8_t* records, const int64_t* ids,
                                 int i, int n, const uint8_t** codes,
                                 float* norms, float* extras) {
  // A record's sidecars are bit-equal to the id-indexed arrays they were
  // packed from. Packed codebooks unpack each code's nibbles to bytes
  // (same values, same order as the byte layout).
  const int64_t code_size = data_->rq.code_size();
  const int64_t stride = code_record_stride();
  const int stages = data_->rq.num_stages();
  for (int j = 0; j < n; ++j) {
    const uint8_t* code;
    if (records != nullptr) {
      code = records + (i + j) * stride;
      const float* sidecars = quant::RecordSidecars(code, code_size);
      norms[j] = sidecars[0];
      extras[j] = sidecars[1];
    } else {
      const auto id = static_cast<std::size_t>(ids[i + j]);
      code = data_->codes.data() + ids[i + j] * code_size;
      norms[j] = data_->recon_norms[id];
      extras[j] = data_->recon_errors[id];
    }
    if (unpack_scratch_.empty()) {
      codes[j] = code;
    } else {
      uint8_t* row = unpack_scratch_.data() + j * stages;
      quant::UnpackCodes4(code, stages, row);
      codes[j] = row;
    }
  }
}

void RqAdcEstimator::Scan(const uint8_t* records, const int64_t* ids,
                          int count, float* out, float* extras) {
  // The RQ ADC is q·q - 2 q·x̂ + x̂·x̂; the table-lookup sum q·x̂ shares the
  // PQ accumulation kernel, the affine combine mirrors RqCodebook's
  // expression order so lanes stay bit-identical to Estimate().
  const uint8_t* codes[kChunk];
  float ip[kChunk];
  float norms[kChunk];
  for (int i = 0; i < count; i += kChunk) {
    const int block = std::min(kChunk, count - i);
    GatherChunk(records, ids, i, block, codes, norms, extras + i);
    simd::PqAdcBatch(active_table_, data_->rq.num_stages(),
                     data_->rq.num_centroids(), codes, block, ip);
    for (int j = 0; j < block; ++j) {
      out[i + j] = query_norm_sqr_ - 2.0f * ip[j] + norms[j];
    }
  }
}

void RqAdcEstimator::EstimateBatch(const int64_t* ids, int count, float* out,
                                   float* extras) {
  Scan(nullptr, ids, count, out, extras);
}

int64_t RqAdcEstimator::query_state_bytes() const {
  return data_->rq.ip_table_size() * static_cast<int64_t>(sizeof(float));
}

std::string RqAdcEstimator::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(data_->codes.data(),
                                         data_->codes.size());
    f = quant::FingerprintArray(data_->recon_norms.data(),
                                data_->recon_norms.size() * sizeof(float),
                                f);
    f = quant::FingerprintArray(data_->recon_errors.data(),
                                data_->recon_errors.size() * sizeof(float),
                                f);
    code_tag_ = quant::MakeCodeTag("rq-adc", data_->rq.code_size(), 2,
                                   size(), f, data_->rq.layout().packing);
  }
  return code_tag_;
}

int64_t RqAdcEstimator::code_record_stride() const {
  return quant::CodeRecordStride(data_->rq.code_size(), 2);
}

quant::CodeStore RqAdcEstimator::MakeCodeStore() const {
  const int64_t code_size = data_->rq.code_size();
  quant::CodeStore store(size(), code_size, 2, code_tag(),
                         data_->rq.layout().packing);
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, data_->codes.data() + i * code_size);
    store.SetSidecar(i, 0, data_->recon_norms[static_cast<std::size_t>(i)]);
    store.SetSidecar(i, 1, data_->recon_errors[static_cast<std::size_t>(i)]);
  }
  return store;
}

void RqAdcEstimator::EstimateBatchCodes(const uint8_t* records, int count,
                                        float* out, float* extras) {
  Scan(records, nullptr, count, out, extras);
}

void RqAdcEstimator::EstimateBatchCodesGroup(const uint8_t* records,
                                             int count, const int* members,
                                             int num_members, float* out,
                                             float* extras) {
  // Table-lookup stage tiled across the members' IP tables; each member's
  // affine combine keeps Scan's expression order, so lanes stay
  // bit-identical to the per-member path.
  const uint8_t* codes[kChunk];
  float norms[kChunk];
  float errors[kChunk];
  float tile[index::kMaxQueryGroup * kChunk];
  const float* tables[index::kMaxQueryGroup];
  RESINFER_DCHECK(num_members > 0 && num_members <= index::kMaxQueryGroup);
  const int64_t table_size = data_->rq.ip_table_size();
  for (int j = 0; j < num_members; ++j) {
    RESINFER_DCHECK(members[j] >= 0 && members[j] < group_count_);
    tables[j] = group_tables_.data() + members[j] * table_size;
  }
  for (int i = 0; i < count; i += kChunk) {
    const int block = std::min(kChunk, count - i);
    GatherChunk(records, nullptr, i, block, codes, norms, errors);
    simd::PqAdcTile(tables, num_members, data_->rq.num_stages(),
                    data_->rq.num_centroids(), codes, block, tile);
    for (int g = 0; g < num_members; ++g) {
      const float qnorm = group_norms_[static_cast<std::size_t>(members[g])];
      float* row = out + static_cast<int64_t>(g) * count + i;
      const float* ip = tile + g * block;
      for (int j = 0; j < block; ++j) {
        row[j] = qnorm - 2.0f * ip[j] + norms[j];
      }
      std::copy(errors, errors + block,
                extras + static_cast<int64_t>(g) * count + i);
    }
  }
  SelectQuery(members[num_members - 1]);
}

SqAdcEstimator::SqAdcEstimator(const SqEstimatorData* data) : data_(data) {
  RESINFER_CHECK(data != nullptr && data->sq.trained());
}

int64_t SqAdcEstimator::size() const {
  return static_cast<int64_t>(data_->recon_errors.size());
}

float SqAdcEstimator::Estimate(int64_t id, float* extra) {
  RESINFER_DCHECK(query_ != nullptr);
  *extra = data_->recon_errors[static_cast<std::size_t>(id)];
  return data_->sq.AdcDistance(query_, data_->codes.data() + id * dim());
}

void SqAdcEstimator::Scan(const uint8_t* records, const int64_t* ids,
                          int count, float* out, float* extras) {
  RESINFER_DCHECK(query_ != nullptr);
  const int64_t d = dim();
  const std::size_t n = static_cast<std::size_t>(d);
  const int64_t stride = code_record_stride();
  const float* q = query_;
  const float* vmin = data_->sq.vmin().data();
  const float* step = data_->sq.step().data();
  // A record's sidecar is bit-equal to the id-indexed error it was packed
  // from.
  const auto code = [this, records, ids, stride, d](int pos) {
    return records != nullptr ? records + pos * stride
                              : data_->codes.data() + ids[pos] * d;
  };
  const auto extra = [this, records, ids, stride, d](int pos) {
    return records != nullptr
               ? quant::RecordSidecars(records + pos * stride, d)[0]
               : data_->recon_errors[static_cast<std::size_t>(ids[pos])];
  };
  index::ScanBatch4(
      code,
      [q, vmin, step, n](const uint8_t* const* codes, float* vals) {
        simd::SqAdcL2SqrBatch4(q, codes, vmin, step, n, vals);
      },
      [out, extras, &extra](int pos, float val) {
        out[pos] = val;
        extras[pos] = extra(pos);
      },
      [this, q, out, extras, &code, &extra](int pos) {
        out[pos] = data_->sq.AdcDistance(q, code(pos));
        extras[pos] = extra(pos);
      },
      count);
}

void SqAdcEstimator::EstimateBatch(const int64_t* ids, int count, float* out,
                                   float* extras) {
  Scan(nullptr, ids, count, out, extras);
}

std::string SqAdcEstimator::code_tag() const {
  if (code_tag_.empty()) {
    uint64_t f = quant::FingerprintArray(data_->codes.data(),
                                         data_->codes.size());
    f = quant::FingerprintArray(data_->recon_errors.data(),
                                data_->recon_errors.size() * sizeof(float),
                                f);
    code_tag_ =
        quant::MakeCodeTag("sq8-adc", data_->sq.code_size(), 1, size(), f);
  }
  return code_tag_;
}

int64_t SqAdcEstimator::code_record_stride() const {
  return quant::CodeRecordStride(data_->sq.code_size(), 1);
}

quant::CodeStore SqAdcEstimator::MakeCodeStore() const {
  const int64_t code_size = data_->sq.code_size();
  quant::CodeStore store(size(), code_size, 1, code_tag());
  for (int64_t i = 0; i < size(); ++i) {
    store.SetCode(i, data_->codes.data() + i * code_size);
    store.SetSidecar(i, 0, data_->recon_errors[static_cast<std::size_t>(i)]);
  }
  return store;
}

void SqAdcEstimator::EstimateBatchCodes(const uint8_t* records, int count,
                                        float* out, float* extras) {
  Scan(records, nullptr, count, out, extras);
}

// --- Training + computer ----------------------------------------------------

LinearCorrector TrainAnyCorrector(ApproxDistanceEstimator& estimator,
                                  const linalg::Matrix& base,
                                  const linalg::Matrix& train_queries,
                                  const TrainingDataOptions& training,
                                  LinearCorrectorOptions corrector) {
  RESINFER_CHECK(base.cols() == train_queries.cols());
  RESINFER_CHECK(estimator.dim() == base.cols());

  std::vector<LabeledPair> pairs =
      CollectLabeledPairs(base, train_queries, training);

  int64_t current_query = -1;
  std::vector<CorrectorSample> samples = MaterializeSamples(
      pairs, [&](int64_t query_index, int64_t id, float* extra) {
        if (query_index != current_query) {
          estimator.BeginQuery(train_queries.Row(query_index));
          current_query = query_index;
        }
        return estimator.Estimate(id, extra);
      });

  corrector.num_features = estimator.has_extra_feature() ? 3 : 2;
  return LinearCorrector::Train(samples, corrector);
}

DdcAnyComputer::DdcAnyComputer(
    const linalg::Matrix* base,
    std::unique_ptr<ApproxDistanceEstimator> estimator,
    const LinearCorrector* corrector)
    : base_(base), estimator_(std::move(estimator)), corrector_(corrector) {
  RESINFER_CHECK(base != nullptr && estimator_ != nullptr &&
                 corrector != nullptr);
  RESINFER_CHECK(estimator_->dim() == base->cols());
  RESINFER_CHECK(estimator_->size() == base->rows());
}

void DdcAnyComputer::BeginQuery(const float* query) {
  SetQueryBatch(query, 1, dim());
  SelectQuery(0);
}

void DdcAnyComputer::SetQueryBatch(const float* queries, int count,
                                   int64_t stride) {
  index::DistanceComputer::SetQueryBatch(queries, count, stride);
  estimator_->SetQueryBatch(queries, count, stride);
}

void DdcAnyComputer::SelectQuery(int g) {
  query_ = GroupQuery(g);
  estimator_->SelectQuery(g);
}

void DdcAnyComputer::Scan(const uint8_t* codes, const int64_t* ids,
                          int count, float tau, index::EstimateResult* out) {
  const int64_t stride = estimator_->code_record_stride();
  index::EstimatePruneRefine(
      query_, static_cast<std::size_t>(dim()),
      [this](int64_t id) { return base_->Row(id); },
      [this, codes, stride](const int64_t* chunk, int start, int n,
                            float* approx, float* extras) {
        if (codes != nullptr) {
          estimator_->EstimateBatchCodes(codes + start * stride, n, approx,
                                         extras);
        } else {
          estimator_->EstimateBatch(chunk, n, approx, extras);
        }
      },
      [this, tau](float approx, float extra) {
        return corrector_->PredictPrunable(approx, tau, extra);
      },
      std::isfinite(tau), ids, count, stats_, out);
}

index::EstimateResult DdcAnyComputer::EstimateWithThreshold(int64_t id,
                                                            float tau) {
  index::EstimateResult out;
  Scan(nullptr, &id, 1, tau, &out);
  return out;
}

void DdcAnyComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                   index::EstimateResult* out) {
  Scan(nullptr, ids, count, tau, out);
}

std::string DdcAnyComputer::code_tag() const {
  return estimator_->code_tag();
}

quant::CodeStore DdcAnyComputer::MakeCodeStore() const {
  return estimator_->MakeCodeStore();
}

void DdcAnyComputer::EstimateBatchCodes(const uint8_t* codes,
                                        const int64_t* ids, int count,
                                        float tau,
                                        index::EstimateResult* out) {
  // Estimators without a code-resident form gather by id.
  Scan(estimator_->code_record_stride() > 0 ? codes : nullptr, ids, count,
       tau, out);
}

bool DdcAnyComputer::group_scan_tiles_blocks() const {
  // Block-level member tiling cycles every member's table through the
  // cache once per candidate block; that only pays while the whole
  // group's state fits comfortably in L2 alongside the block itself.
  constexpr int64_t kGroupStateCacheBudget = 128 * 1024;
  const int64_t per_member = estimator_->query_state_bytes();
  return per_member > 0 &&
         per_member * index::kMaxQueryGroup <= kGroupStateCacheBudget;
}

void DdcAnyComputer::EstimateBatchCodesGroup(const uint8_t* codes,
                                             const int64_t* ids, int count,
                                             const int* members,
                                             int num_members,
                                             const float* taus,
                                             index::EstimateResult* out) {
  const int64_t stride = estimator_->code_record_stride();
  if (stride <= 0) {  // estimator without a code-resident form
    index::DistanceComputer::EstimateBatchCodesGroup(
        codes, ids, count, members, num_members, taus, out);
    return;
  }
  RESINFER_DCHECK(num_members > 0 && num_members <= index::kMaxQueryGroup);
  // EstimatePruneRefine's chunk structure (see Scan), with the
  // approximation stage evaluated for the whole group per chunk and the
  // per-member prune + exact-refine passes unchanged — each member's
  // results and stats are bit-identical to its sequential call.
  float approx[index::kMaxQueryGroup * index::kRefineChunk];
  float extras[index::kMaxQueryGroup * index::kRefineChunk];
  const std::size_t d = static_cast<std::size_t>(dim());

  for (int i = 0; i < count; i += index::kRefineChunk) {
    const int block = std::min(index::kRefineChunk, count - i);
    std::fill_n(extras, static_cast<std::size_t>(num_members) * block, 0.0f);
    estimator_->EstimateBatchCodesGroup(codes + i * stride, block, members,
                                        num_members, approx, extras);
    for (int g = 0; g < num_members; ++g) {
      const float tau = taus[g];
      stats_.candidates += block;
      index::PruneRefineChunk(
          GroupQuery(members[g]), d,
          [this](int64_t id) { return base_->Row(id); },
          [this, tau](float a, float extra) {
            return corrector_->PredictPrunable(a, tau, extra);
          },
          std::isfinite(tau), ids + i, block, approx + g * block,
          extras + g * block, stats_,
          out + static_cast<int64_t>(g) * count + i);
    }
  }
  SelectQuery(members[num_members - 1]);
}

float DdcAnyComputer::ExactDistance(int64_t id) {
  RESINFER_DCHECK(query_ != nullptr);
  return simd::L2Sqr(query_, base_->Row(id),
                     static_cast<std::size_t>(dim()));
}

float DdcAnyComputer::ApproximateDistance(int64_t id) {
  float extra = 0.0f;
  return estimator_->Estimate(id, &extra);
}

}  // namespace resinfer::core
