#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "tensor/kernels/kernels.hh"

namespace toltiers::tensor {

using common::panic;

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    TT_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2");
    std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    TT_ASSERT(b.dim(0) == k, "matmul inner dim mismatch: ", k, " vs ",
              b.dim(0));
    Tensor c({m, n});
    kernels::gemmF32(a.data(), b.data(), c.data(), m, k, n);
    return c;
}

Tensor
matmulTransA(const Tensor &a, const Tensor &b)
{
    TT_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2");
    std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    TT_ASSERT(b.dim(0) == k, "matmulTransA inner dim mismatch");
    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *arow = pa + kk * m;
        const float *brow = pb + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
            float av = arow[i];
            if (av == 0.0f)
                continue;
            float *crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
    return c;
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    TT_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2");
    std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    TT_ASSERT(b.dim(1) == k, "matmulTransB inner dim mismatch");
    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = pa + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = pb + j * k;
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += arow[kk] * brow[kk];
            pc[i * n + j] = acc;
        }
    }
    return c;
}

void
addBiasRows(Tensor &x, const Tensor &bias)
{
    TT_ASSERT(x.rank() == 2 && bias.rank() == 1, "addBiasRows shapes");
    TT_ASSERT(x.dim(1) == bias.dim(0), "bias width mismatch");
    std::size_t m = x.dim(0), n = x.dim(1);
    for (std::size_t i = 0; i < m; ++i) {
        float *row = x.data() + i * n;
        for (std::size_t j = 0; j < n; ++j)
            row[j] += bias[j];
    }
}

Tensor
reluForward(const Tensor &x)
{
    Tensor out = x;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = std::max(0.0f, out[i]);
    return out;
}

Tensor
reluBackward(const Tensor &d_out, const Tensor &x)
{
    TT_ASSERT(d_out.sameShape(x), "reluBackward shape mismatch");
    Tensor d_in = d_out;
    for (std::size_t i = 0; i < d_in.size(); ++i) {
        if (x[i] <= 0.0f)
            d_in[i] = 0.0f;
    }
    return d_in;
}

Tensor
im2col(const Tensor &in, std::size_t sample, const ConvGeometry &g)
{
    TT_ASSERT(in.rank() == 4, "im2col expects NCHW input");
    TT_ASSERT(sample < in.dim(0), "im2col sample out of range");
    std::size_t c = in.dim(1), h = in.dim(2), w = in.dim(3);
    std::size_t oh = g.outExtent(h), ow = g.outExtent(w);
    // Tensor storage starts zeroed, so only in-bounds taps are
    // written; padding stays zero.
    Tensor cols({c * g.kernel * g.kernel, oh * ow});
    const long pad = static_cast<long>(g.pad);
    const long stride = static_cast<long>(g.stride);
    const long width = static_cast<long>(w);
    const float *plane = in.data() + sample * c * h * w;
    float *dst = cols.data();

    for (std::size_t ch = 0; ch < c; ++ch, plane += h * w) {
        for (long ky = 0; ky < static_cast<long>(g.kernel); ++ky) {
            for (long kx = 0; kx < static_cast<long>(g.kernel);
                 ++kx, dst += oh * ow) {
                // Output columns whose tap ox*stride + kx - pad lands
                // inside the row: [ox_lo, ox_hi).
                long ox_lo =
                    kx >= pad ? 0 : (pad - kx + stride - 1) / stride;
                long last = width - 1 + pad - kx;
                long ox_hi = last < 0
                                 ? 0
                                 : std::min(static_cast<long>(ow),
                                            last / stride + 1);
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    long iy = static_cast<long>(oy) * stride + ky - pad;
                    if (iy < 0 || iy >= static_cast<long>(h))
                        continue;
                    const float *row = plane + iy * width;
                    float *out = dst + oy * ow;
                    for (long ox = ox_lo; ox < ox_hi; ++ox)
                        out[ox] = row[ox * stride + kx - pad];
                }
            }
        }
    }
    return cols;
}

void
col2im(const Tensor &cols, Tensor &d_in, std::size_t sample,
       const ConvGeometry &g)
{
    TT_ASSERT(d_in.rank() == 4, "col2im expects NCHW gradient");
    std::size_t c = d_in.dim(1), h = d_in.dim(2), w = d_in.dim(3);
    std::size_t oh = g.outExtent(h), ow = g.outExtent(w);
    TT_ASSERT(cols.dim(0) == c * g.kernel * g.kernel &&
                  cols.dim(1) == oh * ow,
              "col2im column shape mismatch");
    const float *pc = cols.data();

    std::size_t row = 0;
    for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
                const float *src = pc + row * (oh * ow);
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    long iy = static_cast<long>(oy * g.stride + ky) -
                              static_cast<long>(g.pad);
                    if (iy < 0 || iy >= static_cast<long>(h))
                        continue;
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        long ix =
                            static_cast<long>(ox * g.stride + kx) -
                            static_cast<long>(g.pad);
                        if (ix < 0 || ix >= static_cast<long>(w))
                            continue;
                        d_in.at4(sample, ch,
                                 static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix)) +=
                            src[oy * ow + ox];
                    }
                }
            }
        }
    }
}

Tensor
conv2dForward(const Tensor &in, const Tensor &w, const Tensor &bias,
              const ConvGeometry &g)
{
    TT_ASSERT(in.rank() == 4 && w.rank() == 4, "conv2d shapes");
    std::size_t n = in.dim(0), c = in.dim(1);
    std::size_t h = in.dim(2), wd = in.dim(3);
    std::size_t f = w.dim(0);
    TT_ASSERT(w.dim(1) == c && w.dim(2) == g.kernel &&
                  w.dim(3) == g.kernel,
              "conv2d weight shape mismatch");
    TT_ASSERT(bias.rank() == 1 && bias.dim(0) == f,
              "conv2d bias shape mismatch");

    std::size_t oh = g.outExtent(h), ow = g.outExtent(wd);
    Tensor out({n, f, oh, ow});
    std::size_t ckk = c * g.kernel * g.kernel;

    for (std::size_t s = 0; s < n; ++s) {
        Tensor cols = im2col(in, s, g);
        // Weights viewed in place as [F, C*KH*KW]: res = W · cols.
        Tensor res({f, oh * ow});
        kernels::gemmF32(w.data(), cols.data(), res.data(), f, ckk,
                         oh * ow);
        for (std::size_t ff = 0; ff < f; ++ff) {
            const float *src = res.data() + ff * (oh * ow);
            float *dst =
                out.data() + ((s * f + ff) * oh) * ow;
            float b = bias[ff];
            for (std::size_t i = 0; i < oh * ow; ++i)
                dst[i] = src[i] + b;
        }
    }
    return out;
}

Conv2dGrads
conv2dBackward(const Tensor &in, const Tensor &w, const Tensor &d_out,
               const ConvGeometry &g)
{
    std::size_t n = in.dim(0), c = in.dim(1);
    std::size_t h = in.dim(2), wd = in.dim(3);
    std::size_t f = w.dim(0);
    std::size_t oh = g.outExtent(h), ow = g.outExtent(wd);
    TT_ASSERT(d_out.rank() == 4 && d_out.dim(0) == n &&
                  d_out.dim(1) == f && d_out.dim(2) == oh &&
                  d_out.dim(3) == ow,
              "conv2dBackward d_out shape mismatch");

    Conv2dGrads grads;
    grads.dIn = Tensor(in.shape());
    grads.dW = Tensor(w.shape());
    grads.dBias = Tensor({f});

    Tensor wmat = w;
    wmat.reshape({f, c * g.kernel * g.kernel});
    Tensor dwmat({f, c * g.kernel * g.kernel});

    for (std::size_t s = 0; s < n; ++s) {
        // View this sample's output gradient as [F, OH*OW].
        Tensor dmat({f, oh * ow});
        for (std::size_t ff = 0; ff < f; ++ff) {
            const float *src =
                d_out.data() + ((s * f + ff) * oh) * ow;
            float *dst = dmat.data() + ff * (oh * ow);
            double bsum = 0.0;
            for (std::size_t i = 0; i < oh * ow; ++i) {
                dst[i] = src[i];
                bsum += src[i];
            }
            grads.dBias[ff] += static_cast<float>(bsum);
        }

        Tensor cols = im2col(in, s, g);
        // dW += dmat * cols^T
        dwmat += matmulTransB(dmat, cols);
        // dCols = wmat^T * dmat
        Tensor dcols = matmulTransA(wmat, dmat);
        col2im(dcols, grads.dIn, s, g);
    }

    dwmat.reshape({f, c, g.kernel, g.kernel});
    grads.dW = std::move(dwmat);
    return grads;
}

PoolResult
maxPool2dForward(const Tensor &in, std::size_t kernel,
                 std::size_t stride)
{
    PoolResult res;
    res.out = maxPool2dForward(in, kernel, stride, &res.argmax);
    return res;
}

Tensor
maxPool2dForward(const Tensor &in, std::size_t kernel,
                 std::size_t stride, std::vector<std::uint32_t> *argmax)
{
    TT_ASSERT(in.rank() == 4, "maxPool2d expects NCHW");
    std::size_t n = in.dim(0), c = in.dim(1);
    std::size_t h = in.dim(2), w = in.dim(3);
    TT_ASSERT(h >= kernel && w >= kernel, "pool kernel too large");
    std::size_t oh = (h - kernel) / stride + 1;
    std::size_t ow = (w - kernel) / stride + 1;

    Tensor out({n, c, oh, ow});
    if (argmax != nullptr)
        argmax->resize(out.size());

    std::size_t oidx = 0;
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox, ++oidx) {
                    float best = -std::numeric_limits<float>::max();
                    std::size_t best_idx = 0;
                    for (std::size_t ky = 0; ky < kernel; ++ky) {
                        for (std::size_t kx = 0; kx < kernel; ++kx) {
                            std::size_t iy = oy * stride + ky;
                            std::size_t ix = ox * stride + kx;
                            std::size_t flat =
                                ((s * c + ch) * h + iy) * w + ix;
                            float v = in[flat];
                            if (v > best) {
                                best = v;
                                best_idx = flat;
                            }
                        }
                    }
                    out[oidx] = best;
                    if (argmax != nullptr) {
                        (*argmax)[oidx] =
                            static_cast<std::uint32_t>(best_idx);
                    }
                }
            }
        }
    }
    return out;
}

Tensor
maxPool2dBackward(const Tensor &d_out,
                  const std::vector<std::uint32_t> &argmax,
                  const Shape &in_shape)
{
    TT_ASSERT(d_out.size() == argmax.size(),
              "maxPool2dBackward argmax size mismatch");
    Tensor d_in(in_shape);
    for (std::size_t i = 0; i < d_out.size(); ++i)
        d_in[argmax[i]] += d_out[i];
    return d_in;
}

Tensor
globalAvgPoolForward(const Tensor &in)
{
    TT_ASSERT(in.rank() == 4, "globalAvgPool expects NCHW");
    std::size_t n = in.dim(0), c = in.dim(1);
    std::size_t hw = in.dim(2) * in.dim(3);
    Tensor out({n, c});
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float *src = in.data() + (s * c + ch) * hw;
            double acc = 0.0;
            for (std::size_t i = 0; i < hw; ++i)
                acc += src[i];
            out.at2(s, ch) =
                static_cast<float>(acc / static_cast<double>(hw));
        }
    }
    return out;
}

Tensor
globalAvgPoolBackward(const Tensor &d_out, const Shape &in_shape)
{
    TT_ASSERT(in_shape.size() == 4, "globalAvgPool gradient shape");
    std::size_t n = in_shape[0], c = in_shape[1];
    std::size_t hw = in_shape[2] * in_shape[3];
    TT_ASSERT(d_out.rank() == 2 && d_out.dim(0) == n &&
                  d_out.dim(1) == c,
              "globalAvgPoolBackward d_out shape mismatch");
    Tensor d_in(in_shape);
    float inv = 1.0f / static_cast<float>(hw);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            float g = d_out.at2(s, ch) * inv;
            float *dst = d_in.data() + (s * c + ch) * hw;
            for (std::size_t i = 0; i < hw; ++i)
                dst[i] = g;
        }
    }
    return d_in;
}

Tensor
softmaxRows(const Tensor &logits)
{
    TT_ASSERT(logits.rank() == 2, "softmaxRows expects rank-2");
    std::size_t m = logits.dim(0), n = logits.dim(1);
    Tensor probs({m, n});
    for (std::size_t i = 0; i < m; ++i) {
        const float *row = logits.data() + i * n;
        float *out = probs.data() + i * n;
        float mx = row[0];
        for (std::size_t j = 1; j < n; ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = std::exp(row[j] - mx);
            denom += out[j];
        }
        float inv = static_cast<float>(1.0 / denom);
        for (std::size_t j = 0; j < n; ++j)
            out[j] *= inv;
    }
    return probs;
}

double
crossEntropy(const Tensor &probs, const std::vector<std::size_t> &labels)
{
    TT_ASSERT(probs.rank() == 2 && probs.dim(0) == labels.size(),
              "crossEntropy label count mismatch");
    std::size_t m = probs.dim(0), n = probs.dim(1);
    double loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        TT_ASSERT(labels[i] < n, "label out of range");
        double p = probs.at2(i, labels[i]);
        loss -= std::log(std::max(p, 1e-12));
    }
    return loss / static_cast<double>(m);
}

Tensor
softmaxXentBackward(const Tensor &probs,
                    const std::vector<std::size_t> &labels)
{
    std::size_t m = probs.dim(0), n = probs.dim(1);
    TT_ASSERT(labels.size() == m, "label count mismatch");
    Tensor d = probs;
    float inv = 1.0f / static_cast<float>(m);
    for (std::size_t i = 0; i < m; ++i) {
        d.at2(i, labels[i]) -= 1.0f;
        float *row = d.data() + i * n;
        for (std::size_t j = 0; j < n; ++j)
            row[j] *= inv;
    }
    return d;
}

std::uint64_t
denseMacs(std::size_t m, std::size_t k, std::size_t n)
{
    return static_cast<std::uint64_t>(m) * k * n;
}

std::uint64_t
convMacs(std::size_t n, std::size_t c, std::size_t h, std::size_t w,
         std::size_t f, const ConvGeometry &g)
{
    std::size_t oh = g.outExtent(h), ow = g.outExtent(w);
    return static_cast<std::uint64_t>(n) * f * oh * ow * c * g.kernel *
           g.kernel;
}

} // namespace toltiers::tensor
