#include "quant/opq.h"

#include <algorithm>
#include <vector>

#include "linalg/orthogonal.h"
#include "linalg/svd.h"
#include "simd/kernels.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace resinfer::quant {

namespace {

// M = sum_i x_i y_i^T accumulated in double, returned as float matrix.
// x rows come from `x` (n x d), y rows from `y` (n x d). The output rows
// are split across threads, and every element still sums over i in
// order, so M does not depend on the thread count. ParallelForShards,
// because ParallelFor would run d < 1024 rows inline.
linalg::Matrix CrossCorrelation(const float* x, const linalg::Matrix& y,
                                int64_t n, int64_t d) {
  linalg::Matrix m(d, d);
  ParallelForShards(d, DefaultThreadCount(), [&](int64_t r_begin,
                                                 int64_t r_end) {
    std::vector<double> acc(static_cast<std::size_t>(r_end - r_begin) * d,
                            0.0);
    for (int64_t i = 0; i < n; ++i) {
      const float* xi = x + i * d;
      const float* yi = y.Row(i);
      for (int64_t r = r_begin; r < r_end; ++r) {
        double xr = xi[r];
        double* row = acc.data() + static_cast<std::size_t>(r - r_begin) * d;
        for (int64_t c = 0; c < d; ++c) row[c] += xr * yi[c];
      }
    }
    for (int64_t r = r_begin; r < r_end; ++r)
      for (int64_t c = 0; c < d; ++c)
        m.At(r, c) = static_cast<float>(
            acc[static_cast<std::size_t>(r - r_begin) * d + c]);
  });
  return m;
}

}  // namespace

OpqModel OpqModel::Train(const float* data, int64_t n, int64_t d,
                         const OpqOptions& options) {
  RESINFER_CHECK(n >= 1 && d >= 1);

  // Subsample once; all alternating rounds reuse the same sample.
  std::vector<float> sampled;
  const float* train = data;
  int64_t train_n = n;
  if (n > options.pq.max_train_rows) {
    Rng rng(options.pq.sample_seed);
    std::vector<int64_t> pick =
        rng.SampleWithoutReplacement(n, options.pq.max_train_rows);
    sampled.resize(pick.size() * static_cast<std::size_t>(d));
    for (std::size_t i = 0; i < pick.size(); ++i) {
      const float* src = data + pick[i] * d;
      std::copy(src, src + d, sampled.data() + i * d);
    }
    train = sampled.data();
    train_n = static_cast<int64_t>(pick.size());
  }

  OpqModel model;
  if (options.random_init) {
    Rng rng(options.rotation_seed);
    model.rotation_ = linalg::RandomOrthonormal(d, rng);
  } else {
    model.rotation_ = linalg::Matrix::Identity(d);
  }

  linalg::Matrix rotated(train_n, d);
  std::vector<uint8_t> codes;
  linalg::Matrix reconstructed(train_n, d);

  PqOptions pq_options = options.pq;
  // The alternating rounds train on the full (already sampled) block.
  pq_options.max_train_rows = train_n;

  for (int iter = 0; iter < std::max(1, options.num_iterations); ++iter) {
    // Rotate the training sample: rotated = train * R^T.
    ParallelFor(train_n, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        linalg::MatVec(model.rotation_, train + i * d, rotated.Row(i));
      }
    });

    model.codebook_ = PqCodebook::Train(rotated.data(), train_n, d,
                                        pq_options);

    if (iter + 1 >= options.num_iterations) break;

    // Reconstruction of the rotated sample.
    codes = model.codebook_.EncodeBatch(rotated.data(), train_n);
    ParallelFor(train_n, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        model.codebook_.Decode(codes.data() + i * model.codebook_.code_size(),
                               reconstructed.Row(i));
      }
    });

    // Procrustes: maximize sum_i <R x_i, y_i>, i.e. trace(R M) with
    // M = sum_i x_i y_i^T = U S V^T; the optimum is R = V U^T.
    linalg::Matrix m = CrossCorrelation(train, reconstructed, train_n, d);
    linalg::SvdResult svd = linalg::Svd(m);
    model.rotation_ = linalg::MatMulBt(svd.v, svd.u);
  }
  return model;
}

OpqModel OpqModel::FromComponents(linalg::Matrix rotation,
                                  PqCodebook codebook) {
  RESINFER_CHECK(rotation.rows() == rotation.cols());
  RESINFER_CHECK(codebook.trained());
  RESINFER_CHECK(codebook.dim() == rotation.rows());
  OpqModel model;
  model.rotation_ = std::move(rotation);
  model.codebook_ = std::move(codebook);
  return model;
}

void OpqModel::Rotate(const float* x, float* out) const {
  linalg::MatVec(rotation_, x, out);
}

linalg::Matrix OpqModel::RotateBatch(const float* data, int64_t n) const {
  const int64_t d = rotation_.rows();
  linalg::Matrix out(n, d);
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      linalg::MatVec(rotation_, data + i * d, out.Row(i));
    }
  });
  return out;
}

double OpqModel::MeanReconstructionError(const float* data, int64_t n) const {
  RESINFER_CHECK(trained());
  const int64_t d = rotation_.rows();
  std::vector<float> rotated(d);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    Rotate(data + i * d, rotated.data());
    total += codebook_.ReconstructionError(rotated.data());
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace resinfer::quant
