#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace tabbin {

namespace {

using internal::TensorImpl;

// Accumulates `src` into the parent's grad buffer if it wants gradients.
inline void AccumulateGrad(TensorImpl* t, const std::vector<float>& src) {
  if (!t->requires_grad) return;
  t->EnsureGrad();
  for (size_t i = 0; i < src.size(); ++i) t->grad[i] += src[i];
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  assert(a.shape() == b.shape());
  std::vector<float> out(a.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = a.data()[i] + b.data()[i];
  Tensor result = MakeOpOutput(a.shape(), std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ai = a.impl().get();
    TensorImpl* bi = b.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [ai, bi, oi] {
      AccumulateGrad(ai, oi->grad);
      AccumulateGrad(bi, oi->grad);
    };
  }
  return result;
}

Tensor AddN(const std::vector<Tensor>& xs) {
  assert(!xs.empty());
  std::vector<float> out(xs[0].size(), 0.0f);
  for (const auto& x : xs) {
    assert(x.shape() == xs[0].shape());
    for (size_t i = 0; i < out.size(); ++i) out[i] += x.data()[i];
  }
  Tensor result = MakeOpOutput(xs[0].shape(), std::move(out), xs, nullptr);
  if (result.requires_grad()) {
    std::vector<TensorImpl*> parents;
    parents.reserve(xs.size());
    for (const auto& x : xs) parents.push_back(x.impl().get());
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [parents, oi] {
      for (TensorImpl* p : parents) AccumulateGrad(p, oi->grad);
    };
  }
  return result;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  assert(a.shape() == b.shape());
  std::vector<float> out(a.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = a.data()[i] - b.data()[i];
  Tensor result = MakeOpOutput(a.shape(), std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ai = a.impl().get();
    TensorImpl* bi = b.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [ai, bi, oi] {
      AccumulateGrad(ai, oi->grad);
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (size_t i = 0; i < oi->grad.size(); ++i) bi->grad[i] -= oi->grad[i];
      }
    };
  }
  return result;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  assert(a.shape() == b.shape());
  std::vector<float> out(a.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = a.data()[i] * b.data()[i];
  Tensor result = MakeOpOutput(a.shape(), std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ai = a.impl().get();
    TensorImpl* bi = b.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [ai, bi, oi] {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        for (size_t i = 0; i < oi->grad.size(); ++i) {
          ai->grad[i] += oi->grad[i] * bi->data[i];
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (size_t i = 0; i < oi->grad.size(); ++i) {
          bi->grad[i] += oi->grad[i] * ai->data[i];
        }
      }
    };
  }
  return result;
}

Tensor Scale(const Tensor& a, float s) {
  std::vector<float> out(a.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = a.data()[i] * s;
  Tensor result = MakeOpOutput(a.shape(), std::move(out), {a}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ai = a.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [ai, oi, s] {
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      for (size_t i = 0; i < oi->grad.size(); ++i) {
        ai->grad[i] += oi->grad[i] * s;
      }
    };
  }
  return result;
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  assert(x.ndim() == 2 && bias.ndim() == 1 && x.dim(1) == bias.dim(0));
  const int n = x.dim(0), d = x.dim(1);
  std::vector<float> out(x.size());
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) {
      out[static_cast<size_t>(r) * d + c] = x.at(r, c) + bias.at(c);
    }
  }
  Tensor result = MakeOpOutput(x.shape(), std::move(out), {x, bias}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* bi = bias.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, bi, oi, n, d] {
      AccumulateGrad(xi, oi->grad);
      if (bi->requires_grad) {
        bi->EnsureGrad();
        for (int r = 0; r < n; ++r) {
          for (int c = 0; c < d; ++c) {
            bi->grad[static_cast<size_t>(c)] +=
                oi->grad[static_cast<size_t>(r) * d + c];
          }
        }
      }
    };
  }
  return result;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  assert(a.ndim() == 2 && b.ndim() == 2 && a.dim(1) == b.dim(0));
  const int n = a.dim(0), k = a.dim(1), m = b.dim(1);
  // Forward runs on the dispatched blocked GEMM micro-kernel. The old
  // scalar loop skipped av == 0.0f terms, a branch that defeated
  // vectorization on the hot encoder path for a rare win; the kernel
  // streams unconditionally (adding av * brow where av == 0 contributes
  // exact zeros for finite inputs).
  std::vector<float> out(static_cast<size_t>(n) * m, 0.0f);
  kernels::Gemm(a.data(), b.data(), out.data(), n, k, m);
  Tensor result = MakeOpOutput({n, m}, std::move(out), {a, b}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ai = a.impl().get();
    TensorImpl* bi = b.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [ai, bi, oi, n, k, m] {
      const std::vector<float>& gout = oi->grad;
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dA = dOut * B^T. dA[i, kk] = <dOut row i, B row kk> — every
        // term is a dot of two contiguous rows, so one batched
        // row-dot pass per output row replaces the strided scalar loop.
        std::vector<float> row_dots(static_cast<size_t>(k));
        for (int i = 0; i < n; ++i) {
          const float* grow = gout.data() + static_cast<size_t>(i) * m;
          kernels::MatVec(bi->data.data(), static_cast<size_t>(k),
                          static_cast<size_t>(m), grow, row_dots.data());
          kernels::Axpy(1.0f, row_dots.data(),
                        ai->grad.data() + static_cast<size_t>(i) * k,
                        static_cast<size_t>(k));
        }
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // dB = A^T * dOut: rank-1 updates, one SIMD axpy per (i, kk).
        for (int i = 0; i < n; ++i) {
          const float* grow = gout.data() + static_cast<size_t>(i) * m;
          for (int kk = 0; kk < k; ++kk) {
            kernels::Axpy(ai->data[static_cast<size_t>(i) * k + kk], grow,
                          bi->grad.data() + static_cast<size_t>(kk) * m,
                          static_cast<size_t>(m));
          }
        }
      }
    };
  }
  return result;
}

Tensor Transpose(const Tensor& a) {
  assert(a.ndim() == 2);
  const int n = a.dim(0), m = a.dim(1);
  std::vector<float> out(a.size());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      out[static_cast<size_t>(j) * n + i] = a.at(i, j);
    }
  }
  Tensor result = MakeOpOutput({m, n}, std::move(out), {a}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* ai = a.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [ai, oi, n, m] {
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < m; ++j) {
          ai->grad[static_cast<size_t>(i) * m + j] +=
              oi->grad[static_cast<size_t>(j) * n + i];
        }
      }
    };
  }
  return result;
}

Tensor SoftmaxRows(const Tensor& x, const Tensor* additive_mask) {
  assert(x.ndim() == 2);
  const int n = x.dim(0), m = x.dim(1);
  std::vector<float> out(x.size());
  for (int r = 0; r < n; ++r) {
    float maxv = -1e30f;
    for (int c = 0; c < m; ++c) {
      float v = x.at(r, c);
      if (additive_mask) v += additive_mask->at(r, c);
      if (v > maxv) maxv = v;
    }
    float sum = 0.0f;
    for (int c = 0; c < m; ++c) {
      float v = x.at(r, c);
      if (additive_mask) v += additive_mask->at(r, c);
      float e = std::exp(v - maxv);
      out[static_cast<size_t>(r) * m + c] = e;
      sum += e;
    }
    const float inv = 1.0f / (sum + 1e-12f);
    for (int c = 0; c < m; ++c) out[static_cast<size_t>(r) * m + c] *= inv;
  }
  Tensor result = MakeOpOutput(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi, n, m] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (int r = 0; r < n; ++r) {
        const float* y = oi->data.data() + static_cast<size_t>(r) * m;
        const float* gy = oi->grad.data() + static_cast<size_t>(r) * m;
        float dot = 0.0f;
        for (int c = 0; c < m; ++c) dot += y[c] * gy[c];
        float* gx = xi->grad.data() + static_cast<size_t>(r) * m;
        for (int c = 0; c < m; ++c) gx[c] += y[c] * (gy[c] - dot);
      }
    };
  }
  return result;
}

void LayerNormForward(const float* x, int n, int d, const float* gamma,
                      const float* beta, float eps, float* out, float* mean,
                      float* rstd) {
  for (int r = 0; r < n; ++r) {
    const float* row = x + static_cast<size_t>(r) * d;
    float* orow = out + static_cast<size_t>(r) * d;
    float mu = 0.0f;
    for (int c = 0; c < d; ++c) mu += row[c];
    mu /= static_cast<float>(d);
    float var = 0.0f;
    for (int c = 0; c < d; ++c) {
      float dv = row[c] - mu;
      var += dv * dv;
    }
    var /= static_cast<float>(d);
    float rs = 1.0f / std::sqrt(var + eps);
    if (mean != nullptr) mean[r] = mu;
    if (rstd != nullptr) rstd[r] = rs;
    for (int c = 0; c < d; ++c) {
      orow[c] = (row[c] - mu) * rs * gamma[c] + beta[c];
    }
  }
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  assert(x.ndim() == 2 && gamma.ndim() == 1 && beta.ndim() == 1);
  assert(x.dim(1) == gamma.dim(0) && x.dim(1) == beta.dim(0));
  const int n = x.dim(0), d = x.dim(1);
  std::vector<float> out(x.size());
  std::vector<float> mean(n), rstd(n);
  LayerNormForward(x.data(), n, d, gamma.data(), beta.data(), eps, out.data(),
                   mean.data(), rstd.data());
  Tensor result =
      MakeOpOutput(x.shape(), std::move(out), {x, gamma, beta}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* gi = gamma.impl().get();
    TensorImpl* bi = beta.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, gi, bi, oi, n, d, mean, rstd] {
      for (int r = 0; r < n; ++r) {
        const float* xrow = xi->data.data() + static_cast<size_t>(r) * d;
        const float* grow = oi->grad.data() + static_cast<size_t>(r) * d;
        const float mu = mean[r], rs = rstd[r];
        if (gi->requires_grad) {
          gi->EnsureGrad();
          for (int c = 0; c < d; ++c) {
            gi->grad[static_cast<size_t>(c)] +=
                grow[c] * (xrow[c] - mu) * rs;
          }
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          for (int c = 0; c < d; ++c) bi->grad[static_cast<size_t>(c)] += grow[c];
        }
        if (xi->requires_grad) {
          xi->EnsureGrad();
          // dx = rs * gamma * (gy - mean(gy*gamma) - xhat * mean(gy*gamma*xhat))
          float sum_gy = 0.0f, sum_gy_xhat = 0.0f;
          for (int c = 0; c < d; ++c) {
            float gyg = grow[c] * gi->data[static_cast<size_t>(c)];
            float xhat = (xrow[c] - mu) * rs;
            sum_gy += gyg;
            sum_gy_xhat += gyg * xhat;
          }
          const float inv_d = 1.0f / static_cast<float>(d);
          for (int c = 0; c < d; ++c) {
            float gyg = grow[c] * gi->data[static_cast<size_t>(c)];
            float xhat = (xrow[c] - mu) * rs;
            xi->grad[static_cast<size_t>(r) * d + c] +=
                rs * (gyg - inv_d * sum_gy - xhat * inv_d * sum_gy_xhat);
          }
        }
      }
    };
  }
  return result;
}

void GeluForward(const float* x, size_t n, float* out) {
  if (out != x) std::copy(x, x + n, out);
  kernels::GeluInPlace(out, n);
}

Tensor Gelu(const Tensor& x) {
  std::vector<float> out(x.size());
  GeluForward(x.data(), out.size(), out.data());
  Tensor result = MakeOpOutput(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (size_t i = 0; i < oi->grad.size(); ++i) {
        float v = xi->data[i];
        float inner = kernels::kGeluC * (v + 0.044715f * v * v * v);
        float t = std::tanh(inner);
        float dt = (1.0f - t * t) * kernels::kGeluC *
                   (1.0f + 3.0f * 0.044715f * v * v);
        float dgelu = 0.5f * (1.0f + t) + 0.5f * v * dt;
        xi->grad[i] += oi->grad[i] * dgelu;
      }
    };
  }
  return result;
}

Tensor Relu(const Tensor& x) {
  std::vector<float> out(x.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
  }
  Tensor result = MakeOpOutput(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (size_t i = 0; i < oi->grad.size(); ++i) {
        if (xi->data[i] > 0.0f) xi->grad[i] += oi->grad[i];
      }
    };
  }
  return result;
}

Tensor TanhOp(const Tensor& x) {
  std::vector<float> out(x.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(x.data()[i]);
  Tensor result = MakeOpOutput(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (size_t i = 0; i < oi->grad.size(); ++i) {
        float y = oi->data[i];
        xi->grad[i] += oi->grad[i] * (1.0f - y * y);
      }
    };
  }
  return result;
}

Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids) {
  assert(weight.ndim() == 2);
  const int d = weight.dim(1);
  const int n = static_cast<int>(ids.size());
  std::vector<float> out(static_cast<size_t>(n) * d);
  for (int i = 0; i < n; ++i) {
    assert(ids[i] >= 0 && ids[i] < weight.dim(0));
    const float* src = weight.data() + static_cast<size_t>(ids[i]) * d;
    std::copy(src, src + d, out.data() + static_cast<size_t>(i) * d);
  }
  Tensor result = MakeOpOutput({n, d}, std::move(out), {weight}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* wi = weight.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [wi, oi, ids, n, d] {
      if (!wi->requires_grad) return;
      wi->EnsureGrad();
      for (int i = 0; i < n; ++i) {
        float* dst = wi->grad.data() + static_cast<size_t>(ids[i]) * d;
        const float* src = oi->grad.data() + static_cast<size_t>(i) * d;
        for (int c = 0; c < d; ++c) dst[c] += src[c];
      }
    };
  }
  return result;
}

Tensor ConcatCols(const std::vector<Tensor>& xs) {
  assert(!xs.empty());
  const int n = xs[0].dim(0);
  int total = 0;
  for (const auto& x : xs) {
    assert(x.ndim() == 2 && x.dim(0) == n);
    total += x.dim(1);
  }
  std::vector<float> out(static_cast<size_t>(n) * total);
  int offset = 0;
  for (const auto& x : xs) {
    const int d = x.dim(1);
    for (int r = 0; r < n; ++r) {
      std::copy(x.data() + static_cast<size_t>(r) * d,
                x.data() + static_cast<size_t>(r) * d + d,
                out.data() + static_cast<size_t>(r) * total + offset);
    }
    offset += d;
  }
  Tensor result = MakeOpOutput({n, total}, std::move(out), xs, nullptr);
  if (result.requires_grad()) {
    std::vector<TensorImpl*> parents;
    std::vector<int> dims;
    for (const auto& x : xs) {
      parents.push_back(x.impl().get());
      dims.push_back(x.dim(1));
    }
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [parents, dims, oi, n, total] {
      int offset = 0;
      for (size_t p = 0; p < parents.size(); ++p) {
        TensorImpl* pi = parents[p];
        const int d = dims[p];
        if (pi->requires_grad) {
          pi->EnsureGrad();
          for (int r = 0; r < n; ++r) {
            const float* src =
                oi->grad.data() + static_cast<size_t>(r) * total + offset;
            float* dst = pi->grad.data() + static_cast<size_t>(r) * d;
            for (int c = 0; c < d; ++c) dst[c] += src[c];
          }
        }
        offset += d;
      }
    };
  }
  return result;
}

Tensor GatherRows(const Tensor& x, const std::vector<int>& rows) {
  assert(x.ndim() == 2);
  const int d = x.dim(1);
  const int k = static_cast<int>(rows.size());
  std::vector<float> out(static_cast<size_t>(k) * d);
  for (int i = 0; i < k; ++i) {
    assert(rows[i] >= 0 && rows[i] < x.dim(0));
    const float* src = x.data() + static_cast<size_t>(rows[i]) * d;
    std::copy(src, src + d, out.data() + static_cast<size_t>(i) * d);
  }
  Tensor result = MakeOpOutput({k, d}, std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi, rows, k, d] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (int i = 0; i < k; ++i) {
        float* dst = xi->grad.data() + static_cast<size_t>(rows[i]) * d;
        const float* src = oi->grad.data() + static_cast<size_t>(i) * d;
        for (int c = 0; c < d; ++c) dst[c] += src[c];
      }
    };
  }
  return result;
}

Tensor SliceRows(const Tensor& x, int start, int len) {
  std::vector<int> rows(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) rows[static_cast<size_t>(i)] = start + i;
  return GatherRows(x, rows);
}

Tensor MeanRows(const Tensor& x) {
  assert(x.ndim() == 2);
  const int n = x.dim(0), d = x.dim(1);
  std::vector<float> out(static_cast<size_t>(d), 0.0f);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < d; ++c) out[static_cast<size_t>(c)] += x.at(r, c);
  }
  const float inv = 1.0f / static_cast<float>(n);
  for (auto& v : out) v *= inv;
  Tensor result = MakeOpOutput({d}, std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi, n, d, inv] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < d; ++c) {
          xi->grad[static_cast<size_t>(r) * d + c] +=
              oi->grad[static_cast<size_t>(c)] * inv;
        }
      }
    };
  }
  return result;
}

Tensor SumAll(const Tensor& x) {
  float total = 0.0f;
  for (size_t i = 0; i < x.size(); ++i) total += x.data()[i];
  Tensor result = MakeOpOutput({1}, {total}, {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      const float g = oi->grad[0];
      for (auto& v : xi->grad) v += g;
    };
  }
  return result;
}

Tensor MeanAll(const Tensor& x) {
  return Scale(SumAll(x), 1.0f / static_cast<float>(x.size()));
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& targets,
                              int ignore_index) {
  assert(logits.ndim() == 2);
  const int n = logits.dim(0), v = logits.dim(1);
  assert(static_cast<int>(targets.size()) == n);
  // Fused log-softmax + NLL for numerical stability; cache probabilities
  // for the backward pass.
  std::vector<float> probs(logits.size());
  float loss = 0.0f;
  int active = 0;
  for (int r = 0; r < n; ++r) {
    const float* row = logits.data() + static_cast<size_t>(r) * v;
    float maxv = -1e30f;
    for (int c = 0; c < v; ++c) maxv = std::max(maxv, row[c]);
    float sum = 0.0f;
    for (int c = 0; c < v; ++c) {
      float e = std::exp(row[c] - maxv);
      probs[static_cast<size_t>(r) * v + c] = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (int c = 0; c < v; ++c) probs[static_cast<size_t>(r) * v + c] *= inv;
    if (targets[static_cast<size_t>(r)] != ignore_index) {
      ++active;
      float p = probs[static_cast<size_t>(r) * v +
                      targets[static_cast<size_t>(r)]];
      loss -= std::log(std::max(p, 1e-12f));
    }
  }
  if (active > 0) loss /= static_cast<float>(active);
  Tensor result = MakeOpOutput({1}, {loss}, {logits}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* li = logits.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn =
        [li, oi, probs = std::move(probs), targets, n, v, active,
         ignore_index] {
          if (!li->requires_grad || active == 0) return;
          li->EnsureGrad();
          const float g = oi->grad[0] / static_cast<float>(active);
          for (int r = 0; r < n; ++r) {
            const int t = targets[static_cast<size_t>(r)];
            if (t == ignore_index) continue;
            for (int c = 0; c < v; ++c) {
              float p = probs[static_cast<size_t>(r) * v + c];
              li->grad[static_cast<size_t>(r) * v + c] +=
                  g * (p - (c == t ? 1.0f : 0.0f));
            }
          }
        };
  }
  return result;
}

Tensor DropoutOp(const Tensor& x, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return x;
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  std::vector<float> mask(x.size());
  std::vector<float> out(x.size());
  for (size_t i = 0; i < out.size(); ++i) {
    mask[i] = rng->Bernoulli(keep) ? scale : 0.0f;
    out[i] = x.data()[i] * mask[i];
  }
  Tensor result = MakeOpOutput(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi, mask = std::move(mask)] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (size_t i = 0; i < oi->grad.size(); ++i) {
        xi->grad[i] += oi->grad[i] * mask[i];
      }
    };
  }
  return result;
}

Tensor Sigmoid(const Tensor& x) {
  std::vector<float> out(x.size());
  for (size_t i = 0; i < out.size(); ++i) {
    float v = x.data()[i];
    out[i] = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                       : std::exp(v) / (1.0f + std::exp(v));
  }
  Tensor result = MakeOpOutput(x.shape(), std::move(out), {x}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* xi = x.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [xi, oi] {
      if (!xi->requires_grad) return;
      xi->EnsureGrad();
      for (size_t i = 0; i < oi->grad.size(); ++i) {
        float y = oi->data[i];
        xi->grad[i] += oi->grad[i] * y * (1.0f - y);
      }
    };
  }
  return result;
}

Tensor BinaryCrossEntropyWithLogits(const Tensor& logits,
                                    const std::vector<float>& labels) {
  assert(logits.size() == labels.size());
  const size_t n = logits.size();
  float loss = 0.0f;
  std::vector<float> sig(n);
  for (size_t i = 0; i < n; ++i) {
    float z = logits.data()[i];
    float s = z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                        : std::exp(z) / (1.0f + std::exp(z));
    sig[i] = s;
    // log(1+exp(-|z|)) formulation for stability.
    float abs_z = std::fabs(z);
    loss += std::max(z, 0.0f) - z * labels[i] + std::log1p(std::exp(-abs_z));
  }
  loss /= static_cast<float>(n);
  Tensor result = MakeOpOutput({1}, {loss}, {logits}, nullptr);
  if (result.requires_grad()) {
    TensorImpl* li = logits.impl().get();
    TensorImpl* oi = result.impl().get();
    result.impl()->backward_fn = [li, oi, sig = std::move(sig), labels, n] {
      if (!li->requires_grad) return;
      li->EnsureGrad();
      const float g = oi->grad[0] / static_cast<float>(n);
      for (size_t i = 0; i < n; ++i) {
        li->grad[i] += g * (sig[i] - labels[i]);
      }
    };
  }
  return result;
}

float CosineSimilarity(VecView a, VecView b) {
  assert(a.size() == b.size());
  // (dot * inv_a) * inv_b through the dispatched kernels — the exact
  // expression kernels::BatchedCosineRows evaluates per row, so a
  // pairwise score and a batched score over the same bytes are the same
  // bits. InvNorm returns 0 for a zero vector, which zeroes the product
  // (the documented zero-vector result) without a branch that the
  // batched path would lack.
  const float inv_a = kernels::InvNorm(a.data(), a.size());
  const float inv_b = kernels::InvNorm(b.data(), b.size());
  return kernels::Dot(a.data(), b.data(), a.size()) * inv_a * inv_b;
}

}  // namespace tabbin
