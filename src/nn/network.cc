#include "nn/network.hh"

#include <algorithm>

#include "common/logging.hh"

namespace toltiers::nn {

using tensor::Tensor;

Network::Network(std::string name) : name_(std::move(name)) {}

Network &
Network::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
    return *this;
}

Tensor
Network::forward(const Tensor &in, bool train)
{
    TT_ASSERT(!layers_.empty(), "forward on an empty network");
    Tensor x = in;
    for (auto &layer : layers_)
        x = layer->forward(x, train);
    return x;
}

void
Network::backward(const Tensor &d_logits)
{
    Tensor d = d_logits;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        d = (*it)->backward(d);
}

std::vector<Param *>
Network::params()
{
    std::vector<Param *> out;
    for (auto &layer : layers_) {
        for (Param *p : layer->params())
            out.push_back(p);
    }
    return out;
}

void
Network::zeroGrad()
{
    for (Param *p : params())
        p->grad.zero();
}

std::size_t
Network::parameterCount()
{
    std::size_t n = 0;
    for (Param *p : params())
        n += p->value.size();
    return n;
}

std::uint64_t
Network::macsPerSample(const tensor::Shape &shape)
{
    TT_ASSERT(!layers_.empty(), "macs of an empty network");
    Tensor x(shape.prepended(1));
    std::uint64_t total = 0;
    for (auto &layer : layers_) {
        total += layer->macs(x.shape());
        x = layer->forward(x, false);
    }
    return total;
}

std::vector<Prediction>
Network::predict(const Tensor &batch)
{
    Tensor logits = forward(batch, false);
    Tensor probs = tensor::softmaxRows(logits);
    std::size_t m = probs.dim(0), n = probs.dim(1);

    std::vector<Prediction> out(m);
    for (std::size_t i = 0; i < m; ++i) {
        const float *row = probs.data() + i * n;
        std::size_t best = 0, second = n > 1 ? 1 : 0;
        if (n > 1 && row[1] > row[0])
            std::swap(best, second);
        for (std::size_t j = 2; j < n; ++j) {
            if (row[j] > row[best]) {
                second = best;
                best = j;
            } else if (row[j] > row[second]) {
                second = j;
            }
        }
        out[i].label = best;
        out[i].confidence = row[best];
        out[i].margin =
            n > 1 ? row[best] - row[second]
                  : static_cast<double>(row[best]);
    }
    return out;
}

} // namespace toltiers::nn
