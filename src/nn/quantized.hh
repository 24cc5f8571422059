/**
 * @file
 * int8 inference-only layers and whole-network post-training
 * quantization.
 *
 * quantizeNetwork() walks a trained float network with a calibration
 * batch: each Conv2d/Dense layer is replaced by a QConv2d/QDense
 * whose weights are per-channel symmetric int8 and whose input
 * activation range was observed on the calibration data (static PTQ
 * — see tensor/kernels/quantize.hh for why static). Stateless layers
 * are cloned. The result serves as an ordinary nn::Network: same
 * MAC accounting (MACs describe the architecture, not the datatype),
 * ~4× smaller weights, and an integer hot loop.
 *
 * Quantized layers are inference-only: backward() panics and
 * params() is empty, so they are invisible to the optimizer and the
 * weight serializer. Their integer scratch buffers are per thread,
 * so forward() writes no member state and threads may share a
 * quantized network.
 */

#ifndef TOLTIERS_NN_QUANTIZED_HH
#define TOLTIERS_NN_QUANTIZED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hh"
#include "tensor/kernels/quantize.hh"

namespace toltiers::nn {

/** int8 fully connected layer (inference only). */
class QDense : public Layer
{
  public:
    /**
     * Quantize a trained float layer.
     * @param w float weights [in, out], @param b float bias [out],
     * @param in_quant calibrated input activation parameters.
     */
    QDense(const tensor::Tensor &w, const tensor::Tensor &b,
           const tensor::QuantParams &in_quant);

    std::string name() const override { return "qdense"; }
    tensor::Tensor forward(const tensor::Tensor &in,
                           bool train) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;
    std::uint64_t macs(const tensor::Shape &in) const override;

  private:
    std::size_t in_;
    std::size_t out_;
    tensor::QuantParams inQuant_;
    std::vector<std::int8_t> qw_;     //!< [in, out] int8 weights.
    std::vector<float> wScale_;       //!< Per-output-channel scale.
    std::vector<std::int32_t> colSum_; //!< Per-column weight sums.
    std::vector<float> bias_;
};

/** int8 convolution via im2col + int8 GEMM (inference only). */
class QConv2d : public Layer
{
  public:
    /**
     * Quantize a trained float layer.
     * @param w float weights [F, C, KH, KW], @param b float bias [F],
     * @param g window geometry,
     * @param in_quant calibrated input activation parameters.
     */
    QConv2d(const tensor::Tensor &w, const tensor::Tensor &b,
            const tensor::ConvGeometry &g,
            const tensor::QuantParams &in_quant);

    std::string name() const override { return "qconv2d"; }
    tensor::Tensor forward(const tensor::Tensor &in,
                           bool train) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;
    std::uint64_t macs(const tensor::Shape &in) const override;

  private:
    tensor::ConvGeometry g_;
    std::size_t filters_;
    std::size_t cIn_;
    tensor::QuantParams inQuant_;
    std::vector<std::int8_t> qw_;      //!< [F, C*KH*KW] int8 weights.
    std::vector<float> wScale_;        //!< Per-filter scale.
    std::vector<std::int32_t> rowSum_; //!< Per-filter weight sums.
    std::vector<float> bias_;
};

/**
 * Post-training-quantize a trained float network. The calibration
 * batch (a representative sample of inputs, NCHW or [N, features])
 * is pushed through the float layers to record each Conv2d/Dense
 * input range. Throws via panic on layer types it cannot map.
 *
 * @param net trained float network (forward passes are run on it).
 * @param calibration representative input batch.
 * @param name name of the quantized network.
 */
Network quantizeNetwork(Network &net,
                        const tensor::Tensor &calibration,
                        std::string name);

} // namespace toltiers::nn

#endif // TOLTIERS_NN_QUANTIZED_HH
