// Unit + property tests for the tensor/autograd substrate.
//
// The core property test checks every differentiable op's analytic
// gradient against central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace tabbin {
namespace {

TEST(TensorTest, ZerosShapeAndData) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.size(), 6u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FromDataAccessors) {
  Tensor t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3);
  EXPECT_FLOAT_EQ(t.at(1, 1), 4);
  t.set(1, 1, 9);
  EXPECT_FLOAT_EQ(t.at(1, 1), 9);
}

TEST(TensorTest, DetachDropsHistoryAndGrad) {
  Tensor a = Tensor::FromData({2}, {1, 2}, /*requires_grad=*/true);
  Tensor b = Scale(a, 2.0f);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_FLOAT_EQ(d.at(1), 4.0f);
}

TEST(TensorTest, NoGradGuardSuppressesTape) {
  Tensor a = Tensor::FromData({2}, {1, 2}, /*requires_grad=*/true);
  {
    NoGradGuard guard;
    Tensor b = Scale(a, 3.0f);
    EXPECT_FALSE(b.requires_grad());
  }
  Tensor c = Scale(a, 3.0f);
  EXPECT_TRUE(c.requires_grad());
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor::Zeros({4, 7}).ShapeString(), "[4, 7]");
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checking.
// ---------------------------------------------------------------------------

// Computes a scalar loss from `input` through `fn`, then compares the
// autograd gradient of input against central differences.
void CheckGradient(Tensor input,
                   const std::function<Tensor(const Tensor&)>& fn,
                   float eps = 1e-3f, float tol = 2e-2f) {
  Tensor loss = fn(input);
  ASSERT_EQ(loss.size(), 1u);
  loss.Backward();
  std::vector<float> analytic(input.grad(), input.grad() + input.size());

  for (size_t i = 0; i < input.size(); ++i) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    float up;
    {
      NoGradGuard guard;
      up = fn(input).at(0);
    }
    input.data()[i] = orig - eps;
    float down;
    {
      NoGradGuard guard;
      down = fn(input).at(0);
    }
    input.data()[i] = orig;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol + tol * std::fabs(numeric))
        << "component " << i;
  }
}

Tensor RandomInput(std::vector<int> shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), &rng, 0.5f, /*requires_grad=*/true);
}

TEST(GradCheck, Add) {
  Rng rng(1);
  Tensor b = Tensor::Randn({3, 2}, &rng, 0.5f);
  CheckGradient(RandomInput({3, 2}, 2),
                [&](const Tensor& x) { return SumAll(Add(x, b)); });
}

TEST(GradCheck, AddNAllInputs) {
  Tensor a = RandomInput({2, 3}, 3);
  Tensor b = RandomInput({2, 3}, 4);
  Tensor loss = SumAll(AddN({a, b, a}));
  loss.Backward();
  // a participates twice: gradient should be 2 everywhere.
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.grad()[i], 2.0f);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_FLOAT_EQ(b.grad()[i], 1.0f);
}

TEST(GradCheck, Sub) {
  Rng rng(5);
  Tensor b = Tensor::Randn({2, 2}, &rng, 0.5f);
  CheckGradient(RandomInput({2, 2}, 6),
                [&](const Tensor& x) { return SumAll(Sub(x, b)); });
}

TEST(GradCheck, MulBothSides) {
  Tensor a = RandomInput({2, 2}, 7);
  Tensor b = RandomInput({2, 2}, 8);
  Tensor loss = SumAll(Mul(a, b));
  loss.Backward();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.grad()[i], b.data()[i], 1e-5f);
    EXPECT_NEAR(b.grad()[i], a.data()[i], 1e-5f);
  }
}

TEST(GradCheck, Scale) {
  CheckGradient(RandomInput({3}, 9),
                [](const Tensor& x) { return SumAll(Scale(x, -2.5f)); });
}

TEST(GradCheck, AddRowBroadcastBias) {
  Tensor x = RandomInput({3, 2}, 10);
  Tensor bias = RandomInput({2}, 11);
  Tensor loss = SumAll(AddRowBroadcast(x, bias));
  loss.Backward();
  // Bias gradient is the column sum of ones = n.
  for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(bias.grad()[c], 3.0f);
}

TEST(GradCheck, MatMulLeft) {
  Rng rng(12);
  Tensor b = Tensor::Randn({4, 3}, &rng, 0.5f);
  CheckGradient(RandomInput({2, 4}, 13),
                [&](const Tensor& x) { return SumAll(MatMul(x, b)); });
}

TEST(GradCheck, MatMulRight) {
  Rng rng(14);
  Tensor a = Tensor::Randn({2, 4}, &rng, 0.5f);
  CheckGradient(RandomInput({4, 3}, 15),
                [&](const Tensor& x) { return SumAll(MatMul(a, x)); });
}

TEST(GradCheck, Transpose) {
  Rng rng(16);
  Tensor w = Tensor::Randn({3, 2}, &rng, 0.5f);
  CheckGradient(RandomInput({2, 3}, 17), [&](const Tensor& x) {
    return SumAll(MatMul(Transpose(x), w));
  });
}

TEST(GradCheck, SoftmaxRows) {
  // Weighted sum of softmax outputs to get asymmetric gradients.
  Rng rng(18);
  Tensor w = Tensor::Randn({3, 4}, &rng, 1.0f);
  CheckGradient(RandomInput({3, 4}, 19), [&](const Tensor& x) {
    return SumAll(Mul(SoftmaxRows(x), w));
  });
}

TEST(GradCheck, SoftmaxRowsWithMask) {
  Tensor mask = Tensor::FromData({2, 3}, {0, -1e9f, 0, 0, 0, -1e9f});
  Rng rng(20);
  Tensor w = Tensor::Randn({2, 3}, &rng, 1.0f);
  CheckGradient(RandomInput({2, 3}, 21), [&](const Tensor& x) {
    return SumAll(Mul(SoftmaxRows(x, &mask), w));
  });
}

TEST(SoftmaxTest, MaskedPositionsGetZeroProbability) {
  Tensor x = Tensor::FromData({1, 3}, {5, 5, 5});
  Tensor mask = Tensor::FromData({1, 3}, {0, -1e9f, 0});
  Tensor y = SoftmaxRows(x, &mask);
  EXPECT_NEAR(y.at(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(y.at(0, 1), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(0, 2), 0.5f, 1e-5f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(22);
  Tensor x = Tensor::Randn({5, 7}, &rng, 2.0f);
  Tensor y = SoftmaxRows(x);
  for (int r = 0; r < 5; ++r) {
    float sum = 0;
    for (int c = 0; c < 7; ++c) sum += y.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(GradCheck, LayerNorm) {
  Tensor gamma = RandomInput({4}, 23);
  Tensor beta = RandomInput({4}, 24);
  CheckGradient(RandomInput({2, 4}, 25), [&](const Tensor& x) {
    return SumAll(Mul(LayerNormOp(x, gamma, beta),
                      Tensor::FromData({2, 4}, {1, -1, 2, 0.5f, 0.3f, 1, -2, 1})));
  });
}

TEST(GradCheck, LayerNormGammaBeta) {
  Rng rng(26);
  Tensor x = Tensor::Randn({3, 4}, &rng, 1.0f);
  Tensor w = Tensor::Randn({3, 4}, &rng, 1.0f);
  CheckGradient(RandomInput({4}, 27), [&](const Tensor& g) {
    Tensor beta = Tensor::Zeros({4});
    return SumAll(Mul(LayerNormOp(x, g, beta), w));
  });
}

TEST(GradCheck, Gelu) {
  CheckGradient(RandomInput({2, 3}, 28),
                [](const Tensor& x) { return SumAll(Gelu(x)); });
}

TEST(GradCheck, Relu) {
  // Move inputs away from the kink at 0.
  Tensor x = Tensor::FromData({4}, {-1.0f, 0.5f, 2.0f, -0.3f},
                              /*requires_grad=*/true);
  CheckGradient(x, [](const Tensor& t) { return SumAll(Relu(t)); });
}

TEST(GradCheck, Tanh) {
  CheckGradient(RandomInput({5}, 29),
                [](const Tensor& x) { return SumAll(TanhOp(x)); });
}

TEST(GradCheck, Sigmoid) {
  CheckGradient(RandomInput({5}, 30),
                [](const Tensor& x) { return SumAll(Sigmoid(x)); });
}

TEST(GradCheck, EmbeddingLookupScattersIntoRows) {
  Tensor w = RandomInput({5, 3}, 31);
  std::vector<int> ids = {1, 3, 1};
  Tensor out = EmbeddingLookup(w, ids);
  SumAll(out).Backward();
  // Row 1 used twice, row 3 once, others never.
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(w.grad()[1 * 3 + c], 2.0f);
    EXPECT_FLOAT_EQ(w.grad()[3 * 3 + c], 1.0f);
    EXPECT_FLOAT_EQ(w.grad()[0 * 3 + c], 0.0f);
  }
}

TEST(GradCheck, ConcatCols) {
  Tensor a = RandomInput({2, 2}, 32);
  Tensor b = RandomInput({2, 3}, 33);
  Tensor out = ConcatCols({a, b});
  EXPECT_EQ(out.dim(1), 5);
  EXPECT_FLOAT_EQ(out.at(1, 2), b.at(1, 0));
  SumAll(out).Backward();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.grad()[i], 1.0f);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_FLOAT_EQ(b.grad()[i], 1.0f);
}

TEST(GradCheck, GatherRows) {
  Tensor x = RandomInput({4, 2}, 34);
  Tensor out = GatherRows(x, {2, 2, 0});
  SumAll(out).Backward();
  EXPECT_FLOAT_EQ(x.grad()[2 * 2], 2.0f);  // row 2 twice
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);      // row 0 once
  EXPECT_FLOAT_EQ(x.grad()[1 * 2], 0.0f);  // row 1 never
}

TEST(GradCheck, SliceRows) {
  Tensor x = RandomInput({4, 3}, 35);
  Tensor s = SliceRows(x, 1, 2);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_FLOAT_EQ(s.at(0, 0), x.at(1, 0));
}

TEST(GradCheck, MeanRows) {
  CheckGradient(RandomInput({3, 4}, 36), [](const Tensor& x) {
    return SumAll(MeanRows(x));
  });
}

TEST(GradCheck, CrossEntropy) {
  std::vector<int> targets = {2, 0, 1};
  CheckGradient(RandomInput({3, 4}, 37), [&](const Tensor& x) {
    return CrossEntropyWithLogits(x, targets);
  });
}

TEST(GradCheck, CrossEntropyIgnoresIndex) {
  std::vector<int> targets = {2, -1, 1};
  Tensor x = RandomInput({3, 4}, 38);
  Tensor loss = CrossEntropyWithLogits(x, targets, -1);
  loss.Backward();
  // The ignored row contributes zero gradient.
  for (int c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(x.grad()[1 * 4 + c], 0.0f);
}

TEST(GradCheck, BinaryCrossEntropy) {
  std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  CheckGradient(RandomInput({3}, 39), [&](const Tensor& x) {
    return BinaryCrossEntropyWithLogits(x, labels);
  });
}

TEST(OpsTest, DropoutIdentityWhenNotTraining) {
  Rng rng(40);
  Tensor x = Tensor::Randn({4, 4}, &rng, 1.0f);
  Tensor y = DropoutOp(x, 0.5f, &rng, /*training=*/false);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x.data()[i], y.data()[i]);
}

TEST(OpsTest, DropoutPreservesScaleInExpectation) {
  Rng rng(41);
  Tensor x = Tensor::Full({1, 10000}, 1.0f);
  Tensor y = DropoutOp(x, 0.3f, &rng, /*training=*/true);
  double sum = 0;
  for (size_t i = 0; i < y.size(); ++i) sum += y.data()[i];
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
}

TEST(OpsTest, CosineSimilarity) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {1, 0}), 1.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {-1, -1}), -1.0f, 1e-6f);
  EXPECT_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0f);
}

// ---------------------------------------------------------------------------
// NN modules.
// ---------------------------------------------------------------------------

TEST(NnTest, LinearShapesAndParams) {
  Rng rng(50);
  Linear lin(4, 3, &rng);
  Tensor x = Tensor::Randn({2, 4}, &rng, 1.0f);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
  auto params = lin.Parameters();
  EXPECT_EQ(params.size(), 2u);
  EXPECT_TRUE(params.count("weight"));
  EXPECT_TRUE(params.count("bias"));
}

TEST(NnTest, LinearGradientFlowsToWeight) {
  Rng rng(51);
  Linear lin(3, 2, &rng);
  Tensor x = Tensor::Randn({4, 3}, &rng, 1.0f);
  SumAll(lin.Forward(x)).Backward();
  float grad_norm = 0;
  for (size_t i = 0; i < lin.weight.size(); ++i) {
    grad_norm += std::fabs(lin.weight.grad()[i]);
  }
  EXPECT_GT(grad_norm, 0.0f);
}

TEST(NnTest, AttentionOutputShape) {
  Rng rng(52);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Tensor x = Tensor::Randn({5, 8}, &rng, 1.0f);
  Tensor y = attn.Forward(x, nullptr);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 8);
}

TEST(NnTest, AttentionRespectsMask) {
  // With an all-but-self mask, each output row must depend only on its
  // own input row: changing other rows must not change row 0's output.
  Rng rng(53);
  MultiHeadSelfAttention attn(4, 1, &rng);
  const int n = 3;
  Tensor mask = Tensor::Full({n, n}, -1e9f);
  for (int i = 0; i < n; ++i) mask.set(i, i, 0.0f);

  Tensor x1 = Tensor::Randn({n, 4}, &rng, 1.0f);
  Tensor x2 = x1.Clone();
  for (int c = 0; c < 4; ++c) x2.set(2, c, x2.at(2, c) + 5.0f);

  NoGradGuard guard;
  Tensor y1 = attn.Forward(x1, &mask);
  Tensor y2 = attn.Forward(x2, &mask);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(y1.at(0, c), y2.at(0, c), 1e-5f);
}

TEST(NnTest, EncoderForwardAndParamCount) {
  Rng rng(54);
  TransformerEncoder enc(2, 8, 2, 16, &rng);
  Tensor x = Tensor::Randn({6, 8}, &rng, 1.0f);
  Tensor y = enc.Forward(x, nullptr);
  EXPECT_EQ(y.dim(0), 6);
  EXPECT_EQ(y.dim(1), 8);
  // Per layer: 4 linears (8 tensors) + ffn (4) + 2 layernorms (4) = 16.
  EXPECT_EQ(enc.Parameters().size(), 32u);
}

TEST(NnTest, CheckpointRoundTrip) {
  Rng rng(55);
  Linear lin(3, 3, &rng);
  BinaryWriter w;
  SerializeParameters(lin.Parameters(), &w);

  Rng rng2(99);
  Linear lin2(3, 3, &rng2);
  auto params2 = lin2.Parameters();
  BinaryReader r(w.buffer());
  ASSERT_TRUE(DeserializeParameters(&r, &params2).ok());
  for (size_t i = 0; i < lin.weight.size(); ++i) {
    EXPECT_FLOAT_EQ(lin.weight.data()[i], lin2.weight.data()[i]);
  }
}

TEST(NnTest, CheckpointRejectsUnknownParameter) {
  Rng rng(56);
  Linear a(2, 2, &rng);
  ParameterMap renamed;
  renamed["something_else"] = a.weight;
  BinaryWriter w;
  SerializeParameters(renamed, &w);
  auto params = a.Parameters();
  BinaryReader r(w.buffer());
  EXPECT_FALSE(DeserializeParameters(&r, &params).ok());
}

// ---------------------------------------------------------------------------
// Optimizer: training converges on toy problems.
// ---------------------------------------------------------------------------

TEST(OptimizerTest, AdamFitsLinearRegression) {
  Rng rng(60);
  Linear lin(2, 1, &rng);
  AdamOptimizer::Options opts;
  opts.lr = 0.05f;
  AdamOptimizer adam(lin.Parameters(), opts);

  // y = 3 x0 - 2 x1 + 0.5
  for (int step = 0; step < 400; ++step) {
    std::vector<float> xs, ys;
    for (int i = 0; i < 16; ++i) {
      float a = rng.UniformFloat(-1, 1), b = rng.UniformFloat(-1, 1);
      xs.push_back(a);
      xs.push_back(b);
      ys.push_back(3 * a - 2 * b + 0.5f);
    }
    Tensor x = Tensor::FromData({16, 2}, xs);
    Tensor target = Tensor::FromData({16, 1}, ys);
    Tensor pred = lin.Forward(x);
    Tensor diff = Sub(pred, target);
    Tensor loss = MeanAll(Mul(diff, diff));
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
  }
  EXPECT_NEAR(lin.weight.at(0, 0), 3.0f, 0.1f);
  EXPECT_NEAR(lin.weight.at(0, 1), -2.0f, 0.1f);
  EXPECT_NEAR(lin.bias.at(0), 0.5f, 0.1f);
}

TEST(OptimizerTest, GradientClippingBoundsUpdate) {
  Rng rng(61);
  Linear lin(4, 4, &rng);
  AdamOptimizer::Options opts;
  opts.lr = 0.1f;
  opts.clip_norm = 1e-6f;  // clip hard: updates must be tiny
  AdamOptimizer adam(lin.Parameters(), opts);
  auto before = lin.weight.vec();
  Tensor x = Tensor::Randn({2, 4}, &rng, 10.0f);
  SumAll(lin.Forward(x)).Backward();
  adam.Step();
  // Adam normalizes by sqrt(v), so with uniform clipping updates stay ~lr.
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_LT(std::fabs(lin.weight.data()[i] - before[i]), 0.2f);
  }
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  Tensor w = Tensor::FromData({1}, {5.0f}, /*requires_grad=*/true);
  ParameterMap pm;
  pm["w"] = w;
  SgdOptimizer sgd(pm, 0.1f);
  for (int i = 0; i < 100; ++i) {
    sgd.ZeroGrad();
    Tensor loss = Mul(w, w);
    loss.Backward();
    sgd.Step();
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-3f);
}

// Property sweep: MatMul gradcheck across a grid of shapes.
class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, GradMatchesFiniteDifference) {
  auto [n, k, m] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 100 + k * 10 + m));
  Tensor b = Tensor::Randn({k, m}, &rng, 0.5f);
  Tensor a = Tensor::Randn({n, k}, &rng, 0.5f, /*requires_grad=*/true);
  CheckGradient(a, [&](const Tensor& x) { return SumAll(MatMul(x, b)); });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(4, 1, 5), std::make_tuple(1, 6, 2),
                      std::make_tuple(5, 5, 5)));

// Property sweep: encoder forward is deterministic and finite for many
// sequence lengths.
class EncoderSeqLenTest : public ::testing::TestWithParam<int> {};

TEST_P(EncoderSeqLenTest, ForwardIsFiniteAndDeterministic) {
  const int n = GetParam();
  Rng rng(77);
  TransformerEncoder enc(1, 8, 2, 16, &rng);
  Rng data_rng(88);
  Tensor x = Tensor::Randn({n, 8}, &data_rng, 1.0f);
  NoGradGuard guard;
  Tensor y1 = enc.Forward(x, nullptr);
  Tensor y2 = enc.Forward(x, nullptr);
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y1.data()[i]));
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(SeqLens, EncoderSeqLenTest,
                         ::testing::Values(1, 2, 7, 16, 33));

}  // namespace
}  // namespace tabbin
