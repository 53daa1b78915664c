// DDCany — the §V generality claim as a reusable component.
//
// The paper's data-driven correction "makes no assumptions about the source
// of these approximate distances". This header turns that into an explicit
// plug-in point: any type implementing ApproxDistanceEstimator (per-query
// state + one Estimate) gets
//   * corrector training via the shared labeled-pair pipeline
//     (TrainAnyCorrector), and
//   * a full DistanceComputer (DdcAnyComputer) that prunes with the learned
//     boundary and falls back to exact distances, usable inside IVF/HNSW.
//
// Three estimator backends ship here — PQ (the paper's §V example
// verbatim; with an OPQ rotation it is DDCopq, core/ddc_opq.h), Residual
// Quantization, and 8-bit Scalar Quantization — all corrected by the *same*
// LinearCorrector code that serves DDCpca.
#ifndef RESINFER_CORE_DDC_ANY_H_
#define RESINFER_CORE_DDC_ANY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/linear_corrector.h"
#include "core/training_data.h"
#include "index/distance_computer.h"
#include "linalg/matrix.h"
#include "quant/code_store.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "quant/rq.h"
#include "quant/sq.h"

namespace resinfer::core {

// The minimal contract a distance-estimation source must satisfy to plug
// into the data-driven correction: per-query state (SetQueryBatch +
// SelectQuery) and one Estimate. Implementations are stateful per query;
// use one instance per search thread. Shared trained artifacts (codebooks,
// codes) live outside the estimator and must outlive it.
class ApproxDistanceEstimator {
 public:
  virtual ~ApproxDistanceEstimator() = default;

  virtual std::string name() const = 0;
  virtual int64_t dim() const = 0;
  virtual int64_t size() const = 0;

  // Prepares per-query state. `query` has dim() floats in the ORIGINAL
  // space; estimators apply their own transforms internally. A single
  // query is a group of one.
  void BeginQuery(const float* query) {
    SetQueryBatch(query, 1, dim());
    SelectQuery(0);
  }

  // Declares a group of `count` queries (member g at queries + g * stride
  // floats, count <= index::kMaxQueryGroup) and builds every member's state
  // (ADC tables etc.) once; SelectQuery(g) makes member g current, after
  // which the estimate calls below serve it. Overrides call the base first.
  virtual void SetQueryBatch(const float* queries, int count, int64_t stride);
  virtual void SelectQuery(int g) = 0;

  // Approximate distance dis' for candidate `id`. When the estimator
  // carries a per-point trust feature (e.g. reconstruction error), it is
  // written to *extra (never null); otherwise *extra is left at 0.
  virtual float Estimate(int64_t id, float* extra) = 0;

  // Blocked form: out[i]/extras[i] receive Estimate(ids[i]) results,
  // bit-identical to sequential Estimate calls. The default loops; the
  // quantizer backends override with the batched ADC kernels. Estimators
  // without an extra feature leave extras[i] at 0, matching the zeroed
  // scratch a sequential caller passes to Estimate.
  virtual void EstimateBatch(const int64_t* ids, int count, float* out,
                             float* extras) {
    for (int i = 0; i < count; ++i) {
      extras[i] = 0.0f;
      out[i] = Estimate(ids[i], &extras[i]);
    }
  }

  // Whether Estimate fills a meaningful third feature; decides the
  // corrector's feature count at training time.
  virtual bool has_extra_feature() const { return false; }

  // Group code-resident evaluation: equivalent to, for each j,
  //   SelectQuery(members[j]);
  //   EstimateBatchCodes(records, count, out + j * count,
  //                      extras + j * count);
  // (member-major outputs, last member left selected), bit-identically. The
  // default performs exactly that loop; PQ/RQ override with the
  // query-tiled ADC kernel so one pass over the records serves the whole
  // group.
  virtual void EstimateBatchCodesGroup(const uint8_t* records, int count,
                                       const int* members, int num_members,
                                       float* out, float* extras);

  // --- Code-resident form (quant::CodeStore) ------------------------------
  // Estimators that can evaluate straight from a packed record stream
  // report a non-empty code_tag() plus their record stride, pack their
  // codes + sidecar features with MakeCodeStore, and implement
  // EstimateBatchCodes. The quantizer backends here do; a custom estimator
  // without support keeps the empty defaults and DdcAnyComputer falls back
  // to the id-gather path.

  virtual std::string code_tag() const { return {}; }
  virtual int64_t code_record_stride() const { return 0; }
  virtual quant::CodeStore MakeCodeStore() const { return {}; }

  // Bytes of per-query scan state (ADC tables etc.) one group member
  // keeps live during estimation. DdcAnyComputer uses this to pick the
  // query-major scan order: block-level member tiling only pays while the
  // whole group's state stays cache-resident; above that, member-major
  // bucket runs keep one member's table hot instead of cycling all of
  // them every block.
  virtual int64_t query_state_bytes() const { return 0; }

  // `records` holds `count` records of code_record_stride() bytes each, in
  // candidate order. Fills out[i]/extras[i] bit-identically to
  // EstimateBatch on the ids the records were packed from. Must not be
  // called when code_tag() is empty (the default CHECK-aborts).
  virtual void EstimateBatchCodes(const uint8_t* records, int count,
                                  float* out, float* extras);

 protected:
  const float* GroupQuery(int g) const {
    return group_queries_ + static_cast<int64_t>(g) * group_stride_;
  }

  const float* group_queries_ = nullptr;
  int group_count_ = 0;
  int64_t group_stride_ = 0;
};

// --- Quantizer-backed estimator artifacts --------------------------------

// Plain PQ (no rotation): the §V-B quantization example in its simplest
// form.
struct PqEstimatorData {
  quant::PqCodebook pq;
  std::vector<uint8_t> codes;       // n * code_size
  std::vector<float> recon_errors;  // n, ||x - x̂||^2
  int64_t ExtraBytes() const;
};
PqEstimatorData BuildPqEstimatorData(
    const linalg::Matrix& base, const quant::PqOptions& options = {});

struct RqEstimatorData {
  quant::RqCodebook rq;
  std::vector<uint8_t> codes;       // n * num_stages
  std::vector<float> recon_norms;   // n, ||x̂||^2 (ADC ingredient)
  std::vector<float> recon_errors;  // n, ||x - x̂||^2 (trust feature)
  int64_t ExtraBytes() const;
};
RqEstimatorData BuildRqEstimatorData(const linalg::Matrix& base,
                                     const quant::RqOptions& options = {});

struct SqEstimatorData {
  quant::SqCodebook sq;
  std::vector<uint8_t> codes;       // n * d
  std::vector<float> recon_errors;  // n, ||x - x̂||^2 (trust feature)
  int64_t ExtraBytes() const;
};
SqEstimatorData BuildSqEstimatorData(const linalg::Matrix& base,
                                     const quant::SqOptions& options = {});

// --- Estimators -----------------------------------------------------------

class PqAdcEstimator : public ApproxDistanceEstimator {
 public:
  // `data` must outlive the estimator.
  //
  // Packed 4-bit codebooks (pq.layout().packed()) take the fast-scan tier:
  // SetQueryBatch additionally quantizes each ADC table to a
  // register-resident u8 LUT (PqCodebook::QuantizeAdcTable) and every
  // estimate path dequantizes the exact integer LUT sum — within the
  // documented m * scale / 2 bound of the float ADC value, with survivors
  // still exactly rescored by the prune/refine epilogue. All packed paths
  // (sequential, batch, code-resident, grouped) share the same sum +
  // dequantization arithmetic, so they stay bit-identical to each other.
  explicit PqAdcEstimator(const PqEstimatorData* data);

  // OPQ form (DDCopq, §V-B): each query is rotated by `opq` before its ADC
  // table is built over opq->codebook(). `codes` (n * code_size) and
  // `recon_errors` (n) are the rotated-space codes and per-point errors of
  // DdcOpqArtifacts, read in place; all three must outlive the estimator.
  // Named "opq"; records are tagged "ddc-opq".
  PqAdcEstimator(const quant::OpqModel* opq,
                 const std::vector<uint8_t>* codes,
                 const std::vector<float>* recon_errors);

  std::string name() const override {
    return opq_ != nullptr ? "opq" : "pq-adc";
  }
  int64_t dim() const override { return pq_->dim(); }
  int64_t size() const override;
  float Estimate(int64_t id, float* extra) override;
  void EstimateBatch(const int64_t* ids, int count, float* out,
                     float* extras) override;
  bool has_extra_feature() const override { return true; }

  // Record: [pq code | recon_error].
  std::string code_tag() const override;
  int64_t code_record_stride() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* records, int count, float* out,
                          float* extras) override;

  // One ADC table (and, packed, one quantized LUT) per member, built once
  // per group; the group scan streams each record chunk through the tiled
  // kernels for all members.
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override;
  void SelectQuery(int g) override;
  void EstimateBatchCodesGroup(const uint8_t* records, int count,
                               const int* members, int num_members,
                               float* out, float* extras) override;
  int64_t query_state_bytes() const override;

 private:
  PqAdcEstimator(const quant::PqCodebook* pq, const quant::OpqModel* opq,
                 const std::vector<uint8_t>* codes,
                 const std::vector<float>* recon_errors);

  // The one estimate loop behind EstimateBatch and EstimateBatchCodes:
  // codes and trust features stream from `records` when given, else they
  // are read by id.
  void Scan(const uint8_t* records, const int64_t* ids, int count,
            float* out, float* extras);
  // The selected member's estimates for codes[0, n), n <= 32: the one
  // routing point between the float-table gather kernel and the packed
  // fast-scan tier, so every path shares one chunk arithmetic.
  void ScoreChunk(const uint8_t* const* codes, int n, float* out) const;

  const quant::PqCodebook* pq_;
  const quant::OpqModel* opq_;  // null: queries are scored unrotated
  const std::vector<uint8_t>* codes_;
  const std::vector<float>* recon_errors_;
  bool packed_;
  std::vector<float> rotated_;       // OPQ-rotated query scratch
  std::vector<float> group_tables_;  // group_count_ x adc_table_size
  // Fast-scan state (packed layout only): quantized LUT + affine map per
  // member.
  std::vector<uint8_t> group_qluts_;  // group_count_ x fast_scan_lut_bytes
  std::vector<float> group_qscales_, group_qbiases_;
  // The selected member's state.
  const float* active_table_ = nullptr;
  const uint8_t* active_qlut_ = nullptr;
  float active_qscale_ = 0.0f, active_qbias_ = 0.0f;
  // Lazily built (content fingerprint is O(n)); estimators are per-thread.
  mutable std::string code_tag_;
};

class RqAdcEstimator : public ApproxDistanceEstimator {
 public:
  explicit RqAdcEstimator(const RqEstimatorData* data);

  std::string name() const override { return "rq-adc"; }
  int64_t dim() const override { return data_->rq.dim(); }
  int64_t size() const override;
  float Estimate(int64_t id, float* extra) override;
  void EstimateBatch(const int64_t* ids, int count, float* out,
                     float* extras) override;
  bool has_extra_feature() const override { return true; }

  // Record: [rq code | recon_norm, recon_error].
  std::string code_tag() const override;
  int64_t code_record_stride() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* records, int count, float* out,
                          float* extras) override;

  // Per-member IP tables + query norms, built once per group; the group
  // scan tiles the table-lookup stage and applies each member's affine
  // combine.
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override;
  void SelectQuery(int g) override;
  void EstimateBatchCodesGroup(const uint8_t* records, int count,
                               const int* members, int num_members,
                               float* out, float* extras) override;
  int64_t query_state_bytes() const override;

 private:
  static constexpr int kChunk = 16;  // candidates per kernel call

  // The one estimate loop behind EstimateBatch and EstimateBatchCodes:
  // codes, reconstruction norms and trust features stream from `records`
  // when given, else they are read by id.
  void Scan(const uint8_t* records, const int64_t* ids, int count,
            float* out, float* extras);
  // Candidates [i, i + n), n <= kChunk, of a scan: kernel-ready code
  // pointers, reconstruction norms and trust features (norms[j],
  // extras[j]), from `records` when given, else by id.
  void GatherChunk(const uint8_t* records, const int64_t* ids, int i, int n,
                   const uint8_t** codes, float* norms, float* extras);

  const RqEstimatorData* data_;
  std::vector<float> group_tables_;  // group_count_ x ip_table_size
  std::vector<float> group_norms_;   // ||q||^2 per member
  // The selected member's state.
  const float* active_table_ = nullptr;
  float query_norm_sqr_ = 0.0f;
  // Packed-layout scratch (empty for byte codebooks): the batch paths
  // unpack each chunk's nibble codes to bytes here before the shared
  // table-lookup kernel (kChunk x num_stages bytes). Values and summation
  // order match the byte path, so the unpack is invisible to results.
  std::vector<uint8_t> unpack_scratch_;
  mutable std::string code_tag_;
};

class SqAdcEstimator : public ApproxDistanceEstimator {
 public:
  explicit SqAdcEstimator(const SqEstimatorData* data);

  std::string name() const override { return "sq8-adc"; }
  int64_t dim() const override { return data_->sq.dim(); }
  int64_t size() const override;
  void SelectQuery(int g) override { query_ = GroupQuery(g); }
  float Estimate(int64_t id, float* extra) override;
  void EstimateBatch(const int64_t* ids, int count, float* out,
                     float* extras) override;
  bool has_extra_feature() const override { return true; }

  // Record: [sq code (d bytes) | recon_error].
  std::string code_tag() const override;
  int64_t code_record_stride() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* records, int count, float* out,
                          float* extras) override;

 private:
  // The one estimate loop behind EstimateBatch and EstimateBatchCodes:
  // codes and trust features stream from `records` when given, else they
  // are read by id.
  void Scan(const uint8_t* records, const int64_t* ids, int count,
            float* out, float* extras);

  const SqEstimatorData* data_;
  const float* query_ = nullptr;  // the selected member
  mutable std::string code_tag_;
};

// --- Training + the generic computer --------------------------------------

// Trains a LinearCorrector for `estimator` on labeled pairs harvested from
// (base, train_queries) — the exact pipeline DDCpca uses, with the
// feature count chosen from estimator.has_extra_feature(). The estimator's
// per-query state is driven internally; it is left positioned at the last
// training query on return.
LinearCorrector TrainAnyCorrector(
    ApproxDistanceEstimator& estimator, const linalg::Matrix& base,
    const linalg::Matrix& train_queries,
    const TrainingDataOptions& training = TrainingDataOptions(),
    LinearCorrectorOptions corrector = LinearCorrectorOptions());

// DistanceComputer over any estimator + trained corrector: prune when the
// learned boundary says dis > tau, otherwise fall back to the exact
// distance against `base` (original space). All pointers are borrowed.
class DdcAnyComputer : public index::DistanceComputer {
 public:
  DdcAnyComputer(const linalg::Matrix* base,
                 std::unique_ptr<ApproxDistanceEstimator> estimator,
                 const LinearCorrector* corrector);

  int64_t dim() const override { return base_->cols(); }
  int64_t size() const override { return base_->rows(); }
  std::string name() const override { return "ddc-" + estimator_->name(); }

  void BeginQuery(const float* query) override;
  index::EstimateResult EstimateWithThreshold(int64_t id,
                                              float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     index::EstimateResult* out) override;
  // Forwarded to the estimator's code-resident form; falls back to the
  // gather path when the estimator has none.
  std::string code_tag() const override;
  quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids,
                          int count, float tau,
                          index::EstimateResult* out) override;
  // The estimator keeps every member's state; a single query is a group of
  // one. The group scan evaluates each record chunk for the whole group
  // (tiled ADC where the backend supports it); pruning and exact refinement
  // then run per member against that member's tau and query.
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override;
  void SelectQuery(int g) override;
  void EstimateBatchCodesGroup(const uint8_t* codes, const int64_t* ids,
                               int count, const int* members,
                               int num_members, const float* taus,
                               index::EstimateResult* out) override;
  // Block-level member tiling only while the whole group's estimator
  // state (kMaxQueryGroup ADC tables) stays cache-resident; otherwise
  // member-major runs keep one member's table hot per bucket.
  bool group_scan_tiles_blocks() const override;
  float ExactDistance(int64_t id) override;

  // Raw estimator distance for the current query (no correction).
  float ApproximateDistance(int64_t id);

 private:
  // The one estimate loop behind EstimateWithThreshold, EstimateBatch and
  // EstimateBatchCodes: approximations come from the estimator's
  // code-resident form when `codes` is given, else from its id gather.
  void Scan(const uint8_t* codes, const int64_t* ids, int count, float tau,
            index::EstimateResult* out);

  const linalg::Matrix* base_;
  std::unique_ptr<ApproxDistanceEstimator> estimator_;
  const LinearCorrector* corrector_;
  const float* query_ = nullptr;  // the selected member
};

}  // namespace resinfer::core

#endif  // RESINFER_CORE_DDC_ANY_H_
