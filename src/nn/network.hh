/**
 * @file
 * Sequential network container: an ordered stack of layers ending in
 * logits, with helpers for prediction, MAC accounting, and parameter
 * enumeration.
 */

#ifndef TOLTIERS_NN_NETWORK_HH
#define TOLTIERS_NN_NETWORK_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"

namespace toltiers::nn {

/** Per-sample prediction with its softmax confidence. */
struct Prediction
{
    std::size_t label = 0;    //!< argmax class.
    double confidence = 0.0;  //!< softmax probability of the argmax.
    double margin = 0.0;      //!< top-1 minus top-2 probability.
};

/** A feed-forward stack of layers producing classification logits. */
class Network
{
  public:
    /** @param name human-readable architecture name. */
    explicit Network(std::string name);

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    /** Append a layer; returns *this for chaining. */
    Network &add(std::unique_ptr<Layer> layer);

    /** Architecture name. */
    const std::string &name() const { return name_; }

    /** Number of layers. */
    std::size_t depth() const { return layers_.size(); }

    /**
     * Forward pass to logits. An inference pass (train=false) writes
     * no state, so threads may share one network for inference.
     */
    tensor::Tensor forward(const tensor::Tensor &in, bool train);

    /** Backward pass from the loss gradient w.r.t. logits. */
    void backward(const tensor::Tensor &d_logits);

    /** All trainable parameters across layers. */
    std::vector<Param *> params();

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** Total trainable scalar count. */
    std::size_t parameterCount();

    /**
     * MACs for a single sample of the given shape (runs one dry
     * inference pass on a zero batch of one to learn each layer's
     * input shape).
     */
    std::uint64_t macsPerSample(const tensor::Shape &shape);

    /** Ordered layer stack (read-only, e.g. for quantization). */
    const std::vector<std::unique_ptr<Layer>> &layers() const
    {
        return layers_;
    }

    /**
     * Classify a batch: softmax over logits, argmax plus confidence
     * for each row.
     */
    std::vector<Prediction> predict(const tensor::Tensor &batch);

  private:
    std::string name_;
    std::vector<std::unique_ptr<Layer>> layers_;
};

} // namespace toltiers::nn

#endif // TOLTIERS_NN_NETWORK_HH
