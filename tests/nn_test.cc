/**
 * @file
 * Unit tests for the neural-network layer stack, trainer, and
 * serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "common/random.hh"
#include "nn/layer.hh"
#include "nn/network.hh"
#include "nn/serialize.hh"
#include "nn/sgd.hh"

namespace tn = toltiers::nn;
namespace tc = toltiers::common;
using toltiers::tensor::ConvGeometry;
using toltiers::tensor::Tensor;

namespace {

/** Tiny two-class linearly separable dataset in [N,1,4,4] images. */
void
makeToyData(Tensor &images, std::vector<std::size_t> &labels,
            std::size_t n, tc::Pcg32 &rng)
{
    images = Tensor({n, 1, 4, 4});
    labels.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t cls = rng.nextBounded(2);
        labels[i] = cls;
        for (std::size_t p = 0; p < 16; ++p) {
            double base = cls == 0 ? (p < 8 ? 1.0 : 0.0)
                                   : (p < 8 ? 0.0 : 1.0);
            images[i * 16 + p] = static_cast<float>(
                base + rng.gaussian(0.0, 0.15));
        }
    }
}

tn::Network
makeToyNet(tc::Pcg32 &rng)
{
    tn::Network net("toy");
    net.add(std::make_unique<tn::Flatten>())
        .add(std::make_unique<tn::Dense>(16, 8, rng))
        .add(std::make_unique<tn::Relu>())
        .add(std::make_unique<tn::Dense>(8, 2, rng));
    return net;
}

} // namespace

// ----------------------------------------------------------------- layers

TEST(Layers, DenseForwardShape)
{
    tc::Pcg32 rng(1);
    tn::Dense d(4, 3, rng);
    Tensor in({2, 4});
    Tensor out = d.forward(in, false);
    EXPECT_EQ(out.dim(0), 2u);
    EXPECT_EQ(out.dim(1), 3u);
    EXPECT_EQ(d.macs(in.shape()), 2u * 4u * 3u);
}

TEST(Layers, DenseParamsExposed)
{
    tc::Pcg32 rng(1);
    tn::Dense d(4, 3, rng);
    auto params = d.params();
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[0]->value.size(), 12u);
    EXPECT_EQ(params[1]->value.size(), 3u);
    EXPECT_EQ(params[0]->grad.size(), 12u);
}

TEST(Layers, Conv2dForwardShapeAndMacs)
{
    tc::Pcg32 rng(1);
    ConvGeometry g{3, 1, 1};
    tn::Conv2d c(2, 5, g, rng);
    Tensor in({3, 2, 6, 6});
    Tensor out = c.forward(in, false);
    EXPECT_EQ(out.dim(0), 3u);
    EXPECT_EQ(out.dim(1), 5u);
    EXPECT_EQ(out.dim(2), 6u);
    EXPECT_EQ(c.macs(in.shape()), 3ull * 5 * 6 * 6 * 2 * 9);
}

TEST(Layers, FlattenRoundTrip)
{
    tn::Flatten f;
    Tensor in({2, 3, 4, 4});
    Tensor out = f.forward(in, true);
    EXPECT_EQ(out.dim(0), 2u);
    EXPECT_EQ(out.dim(1), 48u);
    Tensor back = f.backward(out);
    EXPECT_EQ(back.shape(), in.shape());
}

TEST(Layers, MaxPoolShape)
{
    tn::MaxPool2d p(2, 2);
    Tensor in({1, 3, 8, 8});
    Tensor out = p.forward(in, true);
    EXPECT_EQ(out.dim(2), 4u);
    Tensor back = p.backward(out);
    EXPECT_EQ(back.shape(), in.shape());
}

TEST(Layers, GapShape)
{
    tn::GlobalAvgPool gap;
    Tensor in({2, 5, 3, 3});
    Tensor out = gap.forward(in, false);
    EXPECT_EQ(out.dim(0), 2u);
    EXPECT_EQ(out.dim(1), 5u);
}

// ---------------------------------------------------------------- network

TEST(Network, ForwardThroughStack)
{
    tc::Pcg32 rng(2);
    tn::Network net = makeToyNet(rng);
    EXPECT_EQ(net.depth(), 4u);
    Tensor in({5, 1, 4, 4});
    Tensor logits = net.forward(in, false);
    EXPECT_EQ(logits.dim(0), 5u);
    EXPECT_EQ(logits.dim(1), 2u);
}

TEST(Network, ParameterCount)
{
    tc::Pcg32 rng(2);
    tn::Network net = makeToyNet(rng);
    // dense1: 16*8+8, dense2: 8*2+2.
    EXPECT_EQ(net.parameterCount(), 16u * 8 + 8 + 8 * 2 + 2);
}

TEST(Network, MacsPerSample)
{
    tc::Pcg32 rng(2);
    tn::Network net = makeToyNet(rng);
    EXPECT_EQ(net.macsPerSample({1, 4, 4}), 16u * 8 + 8 * 2);
}

TEST(Network, ZeroGradClears)
{
    tc::Pcg32 rng(2);
    tn::Network net = makeToyNet(rng);
    Tensor in({2, 1, 4, 4});
    Tensor logits = net.forward(in, true);
    Tensor d(logits.shape());
    d.fill(1.0f);
    net.backward(d);
    bool any_nonzero = false;
    for (auto *p : net.params()) {
        for (std::size_t i = 0; i < p->grad.size(); ++i)
            any_nonzero |= p->grad[i] != 0.0f;
    }
    EXPECT_TRUE(any_nonzero);
    net.zeroGrad();
    for (auto *p : net.params()) {
        for (std::size_t i = 0; i < p->grad.size(); ++i)
            EXPECT_EQ(p->grad[i], 0.0f);
    }
}

TEST(Network, PredictConfidenceAndMargin)
{
    tc::Pcg32 rng(2);
    tn::Network net = makeToyNet(rng);
    Tensor in({3, 1, 4, 4});
    auto preds = net.predict(in);
    ASSERT_EQ(preds.size(), 3u);
    for (const auto &p : preds) {
        EXPECT_LT(p.label, 2u);
        EXPECT_GT(p.confidence, 0.0);
        EXPECT_LE(p.confidence, 1.0);
        EXPECT_GE(p.margin, 0.0);
        EXPECT_LE(p.margin, p.confidence + 1e-6);
    }
}

TEST(Network, EmptyNetworkPanics)
{
    tn::Network net("empty");
    Tensor in({1, 4});
    EXPECT_DEATH(net.forward(in, false), "empty network");
}

// -------------------------------------------------------------------- sgd

TEST(Sgd, TrainsToyProblem)
{
    tc::Pcg32 rng(3);
    Tensor images;
    std::vector<std::size_t> labels;
    makeToyData(images, labels, 200, rng);

    tn::Network net = makeToyNet(rng);
    tn::SgdConfig cfg;
    cfg.epochs = 12;
    cfg.learningRate = 0.1;
    tn::SgdTrainer trainer(cfg);

    std::vector<tn::EpochStats> history;
    trainer.train(net, images, labels, rng,
                  [&](const tn::EpochStats &e) {
                      history.push_back(e);
                  });
    ASSERT_EQ(history.size(), 12u);
    EXPECT_LT(history.back().loss, history.front().loss);

    auto ev = tn::evaluate(net, images, labels);
    EXPECT_LT(ev.top1Error, 0.05);
    EXPECT_GT(ev.meanConfidence, 0.8);
}

TEST(Sgd, GatherBatchCopiesRows)
{
    Tensor images({3, 1, 2, 2});
    for (std::size_t i = 0; i < 12; ++i)
        images[i] = static_cast<float>(i);
    Tensor batch = tn::gatherBatch(images, {2, 0});
    EXPECT_EQ(batch.dim(0), 2u);
    EXPECT_EQ(batch[0], 8.0f);  // row 2 starts at flat index 8
    EXPECT_EQ(batch[4], 0.0f);  // row 0
}

TEST(Sgd, GatherBatchOutOfRangePanics)
{
    Tensor images({2, 1, 2, 2});
    EXPECT_DEATH(tn::gatherBatch(images, {5}), "out of range");
}

TEST(Sgd, EvaluateCountsErrors)
{
    tc::Pcg32 rng(4);
    tn::Network net = makeToyNet(rng);
    Tensor images;
    std::vector<std::size_t> labels;
    makeToyData(images, labels, 50, rng);
    auto ev = tn::evaluate(net, images, labels, 16);
    EXPECT_EQ(ev.predictions.size(), 50u);
    EXPECT_GE(ev.top1Error, 0.0);
    EXPECT_LE(ev.top1Error, 1.0);
}

TEST(Sgd, InvalidConfigPanics)
{
    tn::SgdConfig cfg;
    cfg.batchSize = 0;
    EXPECT_DEATH(tn::SgdTrainer trainer(cfg), "batch size");
}

TEST(Sgd, MomentumStepMovesWeights)
{
    tc::Pcg32 rng(5);
    tn::Network net = makeToyNet(rng);
    auto *p = net.params()[0];
    float before = p->value[0];
    p->grad.fill(1.0f);
    tn::SgdTrainer trainer(tn::SgdConfig{});
    trainer.step(net, 0.1);
    EXPECT_NE(p->value[0], before);
    EXPECT_LT(p->value[0], before); // Positive grad lowers the weight.
}

// ------------------------------------------- end-to-end gradient check

TEST(Sgd, NumericalGradientThroughConvNetwork)
{
    // Check dLoss/dParam of a conv->relu->pool->dense network
    // against central differences: validates the composition of
    // every backward pass, not just the kernels in isolation.
    tc::Pcg32 rng(21);
    tn::Network net("gradcheck");
    net.add(std::make_unique<tn::Conv2d>(
               1, 3, toltiers::tensor::ConvGeometry{3, 1, 1}, rng))
        .add(std::make_unique<tn::Relu>())
        .add(std::make_unique<tn::MaxPool2d>(2, 2))
        .add(std::make_unique<tn::Flatten>())
        .add(std::make_unique<tn::Dense>(3 * 4 * 4, 3, rng));

    Tensor batch({2, 1, 8, 8});
    batch.randomNormal(rng, 1.0f);
    std::vector<std::size_t> labels = {0, 2};

    auto loss_of = [&]() {
        Tensor logits = net.forward(batch, true);
        return toltiers::tensor::crossEntropy(
            toltiers::tensor::softmaxRows(logits), labels);
    };

    net.zeroGrad();
    Tensor logits = net.forward(batch, true);
    Tensor probs = toltiers::tensor::softmaxRows(logits);
    net.backward(
        toltiers::tensor::softmaxXentBackward(probs, labels));

    const double eps = 1e-3;
    for (tn::Param *p : net.params()) {
        for (std::size_t i = 0; i < p->value.size();
             i += 1 + p->value.size() / 10) {
            float saved = p->value[i];
            p->value[i] = saved + static_cast<float>(eps);
            double up = loss_of();
            p->value[i] = saved - static_cast<float>(eps);
            double down = loss_of();
            p->value[i] = saved;
            double numeric = (up - down) / (2.0 * eps);
            EXPECT_NEAR(p->grad[i], numeric, 5e-2)
                << "param size " << p->value.size() << " index "
                << i;
        }
    }
}

// -------------------------------------------------------------- serialize

TEST(Serialize, RoundTripPreservesWeights)
{
    tc::Pcg32 rng(6);
    tn::Network a = makeToyNet(rng);
    std::string path = testing::TempDir() + "tt_weights_test.ttw";
    tn::saveWeights(a, path);

    tc::Pcg32 rng2(7);
    tn::Network b = makeToyNet(rng2);
    ASSERT_TRUE(tn::loadWeights(b, path));

    auto pa = a.params();
    auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        for (std::size_t j = 0; j < pa[i]->value.size(); ++j)
            EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileReturnsFalse)
{
    tc::Pcg32 rng(6);
    tn::Network net = makeToyNet(rng);
    EXPECT_FALSE(tn::loadWeights(net, "/nonexistent/path.ttw"));
}

TEST(Serialize, StructuralMismatchIsFatal)
{
    tc::Pcg32 rng(6);
    tn::Network a = makeToyNet(rng);
    std::string path = testing::TempDir() + "tt_weights_mismatch.ttw";
    tn::saveWeights(a, path);

    tn::Network c("different");
    c.add(std::make_unique<tn::Dense>(4, 4, rng));
    EXPECT_DEATH(tn::loadWeights(c, path), "params");
    std::remove(path.c_str());
}

TEST(Serialize, CorruptMagicIsFatal)
{
    std::string path = testing::TempDir() + "tt_weights_bad.ttw";
    {
        std::ofstream out(path, std::ios::binary);
        out << "garbage data";
    }
    tc::Pcg32 rng(6);
    tn::Network net = makeToyNet(rng);
    EXPECT_DEATH(tn::loadWeights(net, path), "not a toltiers");
    std::remove(path.c_str());
}

// --------------------------------------------------- training property

/** Training loss decreases across a range of seeds (no divergence). */
class SgdProperty : public testing::TestWithParam<int>
{
};

TEST_P(SgdProperty, LossDecreasesForAnySeed)
{
    tc::Pcg32 rng(GetParam() + 1000);
    Tensor images;
    std::vector<std::size_t> labels;
    makeToyData(images, labels, 120, rng);
    tn::Network net = makeToyNet(rng);
    tn::SgdConfig cfg;
    cfg.epochs = 6;
    cfg.learningRate = 0.1;
    tn::SgdTrainer trainer(cfg);
    double first = 0.0, last = 0.0;
    trainer.train(net, images, labels, rng,
                  [&](const tn::EpochStats &e) {
                      if (e.epoch == 0)
                          first = e.loss;
                      last = e.loss;
                  });
    EXPECT_LT(last, first);
    EXPECT_TRUE(std::isfinite(last));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgdProperty, testing::Range(0, 8));
