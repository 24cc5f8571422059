/**
 * @file
 * BENCH-K: inference-kernel microbenchmark -> BENCH_kernels.json.
 *
 * Four sections:
 *
 *  - gemm: measured GFLOP/s of the scalar Reference and Blocked
 *    float GEMMs plus the int8 GEMM (GOP/s) over square sizes.
 *  - served_gemm: Reference and Blocked GFLOP/s on the batch-1 GEMM
 *    shapes the served zoo actually runs (conv layers as filters x
 *    C*K*K x OH*OW, dense layers as 1 x features x outputs).
 *  - inference: per-inference forward latency of every zoo
 *    architecture, float vs int8-quantized, both measured wall-clock
 *    and the deterministic modeled service latency (overhead +
 *    MACs x rate; the int8 rate is kInt8MacRateFactor x the float
 *    rate — see ic/quantize.hh).
 *  - sanity: with --assert-speedup=F the binary exits nonzero unless
 *    the Blocked GEMM reaches F x the Reference throughput at the
 *    largest size and every q8 version's modeled latency is strictly
 *    below its float parent's (CI gates on this).
 *
 * Weights are random: kernel latency does not depend on weight
 * values, and skipping training keeps the benchmark fast enough for
 * a CI job.
 */

#include <cstdio>
#include <fstream>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "dataset/synth_images.hh"
#include "exec/rng.hh"
#include "harness.hh"
#include "ic/quantize.hh"
#include "ic/zoo.hh"
#include "nn/quantized.hh"
#include "tensor/kernels/kernels.hh"

using namespace toltiers;

namespace {

constexpr std::size_t kImageSize = 12;

std::vector<float>
randomBuffer(std::size_t n, std::uint64_t task)
{
    common::Pcg32 rng = exec::taskRng(4242, task);
    std::vector<float> out(n);
    for (float &x : out)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return out;
}

/** Seconds per call of fn, repeated until the clock is trustworthy. */
template <typename Fn>
double
timeIt(Fn &&fn)
{
    fn(); // warmup
    std::size_t reps = 1;
    for (;;) {
        common::Stopwatch sw;
        for (std::size_t r = 0; r < reps; ++r)
            fn();
        double secs = sw.seconds();
        if (secs > 0.2 || reps >= 1u << 14)
            return secs / static_cast<double>(reps);
        reps *= 4;
    }
}

struct GemmSample
{
    std::size_t m = 0, k = 0, n = 0;
    double scalarGflops = 0.0;
    double blockedGflops = 0.0;
    double int8Gops = 0.0;
    double blockedSpeedup = 0.0;
};

/**
 * Float GEMM throughput of both backends on one m x k x n shape;
 * operands come from random streams `seed` and `seed + 1`.
 */
GemmSample
benchFloatGemm(std::size_t m, std::size_t k, std::size_t n,
               std::uint64_t seed)
{
    auto a = randomBuffer(m * k, seed);
    auto b = randomBuffer(k * n, seed + 1);
    std::vector<float> c(m * n);
    double flops = 2.0 * static_cast<double>(m) *
                   static_cast<double>(k) * static_cast<double>(n);

    GemmSample s;
    s.m = m;
    s.k = k;
    s.n = n;
    double scalar = timeIt([&] {
        std::fill(c.begin(), c.end(), 0.0f);
        tensor::kernels::gemmF32Reference(a.data(), b.data(),
                                          c.data(), m, k, n);
    });
    double blocked = timeIt([&] {
        std::fill(c.begin(), c.end(), 0.0f);
        tensor::kernels::gemmF32Blocked(a.data(), b.data(), c.data(),
                                        m, k, n);
    });
    s.scalarGflops = flops / scalar / 1e9;
    s.blockedGflops = flops / blocked / 1e9;
    s.blockedSpeedup = scalar / blocked;
    return s;
}

/** Square float GEMMs plus the int8 GEMM at the same size. */
GemmSample
benchGemm(std::size_t size)
{
    std::size_t m = size, k = size, n = size;
    GemmSample s = benchFloatGemm(m, k, n, size);
    auto a = randomBuffer(m * k, size);
    auto b = randomBuffer(k * n, size + 1);
    double flops = 2.0 * static_cast<double>(m) *
                   static_cast<double>(k) * static_cast<double>(n);

    std::vector<std::int8_t> qa(m * k), qb(k * n);
    tensor::QuantParams qp = tensor::chooseQuantParams(-1.0f, 1.0f);
    tensor::quantizeBuffer(a.data(), m * k, qp, qa.data());
    tensor::quantizeBuffer(b.data(), k * n, qp, qb.data());
    std::vector<std::int32_t> qc(m * n);
    double int8 = timeIt([&] {
        std::fill(qc.begin(), qc.end(), 0);
        tensor::kernels::gemmS8(qa.data(), qb.data(), qc.data(), m,
                                k, n);
    });
    s.int8Gops = flops / int8 / 1e9;
    return s;
}

struct InferenceSample
{
    std::string version;
    double floatMs = 0.0;   //!< Measured wall-clock forward, batch 1.
    double q8Ms = 0.0;      //!< Measured wall-clock forward, batch 1.
    double floatModelMs = 0.0; //!< Deterministic service latency.
    double q8ModelMs = 0.0;    //!< Deterministic service latency.
};

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession session(
        argc, argv, {"json-out", "assert-speedup", "sizes"});
    bench::banner("BENCH-K: inference kernels",
                  "scalar vs blocked vs int8 GEMM; float vs q8 zoo "
                  "forward latency");

    std::string json_path = session.args().getString(
        "json-out", "BENCH_kernels.json");
    double assert_speedup =
        session.args().getDouble("assert-speedup", 0.0);

    std::vector<std::size_t> sizes = {128, 256, 512};
    std::vector<GemmSample> gemm;
    for (std::size_t size : sizes) {
        gemm.push_back(benchGemm(size));
        const GemmSample &s = gemm.back();
        std::printf("gemm %4zu^3: scalar %7.2f GF/s  blocked %7.2f "
                    "GF/s (%.2fx)  int8 %7.2f GOP/s\n",
                    s.m, s.scalarGflops, s.blockedGflops,
                    s.blockedSpeedup, s.int8Gops);
    }

    // Every GEMM a batch-1 zoo forward pass issues.
    const std::size_t served_shapes[][3] = {
        {16, 9, 144},   {32, 144, 144}, {48, 288, 36},
        {48, 432, 36},  {24, 108, 144}, {32, 216, 36},
        {1, 432, 96},   {1, 1152, 64},
    };
    std::vector<GemmSample> served;
    for (const auto &shape : served_shapes) {
        served.push_back(benchFloatGemm(shape[0], shape[1], shape[2],
                                        1000 + 2 * served.size()));
        const GemmSample &s = served.back();
        std::printf("served %2zux%4zux%3zu: scalar %7.2f GF/s  "
                    "blocked %7.2f GF/s (%.2fx)\n",
                    s.m, s.k, s.n, s.scalarGflops, s.blockedGflops,
                    s.blockedSpeedup);
    }

    // Zoo architectures, float vs quantized, batch-1 forward.
    common::Pcg32 rng = exec::taskRng(4242, 99);
    tensor::Tensor calib({8, 1, kImageSize, kImageSize});
    calib.randomUniform(rng, 0.0f, 1.0f);
    tensor::Tensor probe({1, 1, kImageSize, kImageSize});
    probe.randomUniform(rng, 0.0f, 1.0f);

    ic::IcLatencyModel float_model;
    ic::IcLatencyModel q8_model;
    q8_model.secondsPerMac *= ic::kInt8MacRateFactor;

    std::vector<InferenceSample> inference;
    for (const auto &spec : ic::zooSpecs()) {
        nn::Network net = ic::buildZooNetwork(
            spec.name, kImageSize, dataset::kImageClasses, rng);
        nn::Network qnet = nn::quantizeNetwork(
            net, calib, spec.name + ic::kQuantizedSuffix);

        InferenceSample s;
        s.version = spec.name;
        s.floatMs = timeIt([&] { net.forward(probe, false); }) * 1e3;
        s.q8Ms = timeIt([&] { qnet.forward(probe, false); }) * 1e3;
        std::uint64_t macs = net.macsPerSample(
            tensor::Shape{1, kImageSize, kImageSize});
        s.floatModelMs = float_model.latency(macs) * 1e3;
        s.q8ModelMs = q8_model.latency(macs) * 1e3;
        inference.push_back(s);
        std::printf("%-8s forward: float %8.3f ms  q8 %8.3f ms | "
                    "modeled: float %7.2f ms  q8 %7.2f ms\n",
                    s.version.c_str(), s.floatMs, s.q8Ms,
                    s.floatModelMs, s.q8ModelMs);
    }

    {
        std::ofstream out(json_path);
        if (!out)
            common::fatal("cannot write ", json_path);
        common::JsonWriter json(out);
        json.beginObject();
        json.member("bench", "micro_kernels");
        json.member(
            "default_backend",
            tensor::kernelBackendName(
                tensor::kernelPolicy().backend));
        json.member("int8_mac_rate_factor", ic::kInt8MacRateFactor);
        json.beginArray("gemm");
        for (const auto &s : gemm) {
            json.beginObject();
            json.member("size", s.m);
            json.member("scalar_gflops", s.scalarGflops);
            json.member("blocked_gflops", s.blockedGflops);
            json.member("blocked_speedup", s.blockedSpeedup);
            json.member("int8_gops", s.int8Gops);
            json.endObject();
        }
        json.endArray();
        json.beginArray("served_gemm");
        for (const auto &s : served) {
            json.beginObject();
            json.member("m", s.m);
            json.member("k", s.k);
            json.member("n", s.n);
            json.member("scalar_gflops", s.scalarGflops);
            json.member("blocked_gflops", s.blockedGflops);
            json.member("blocked_speedup", s.blockedSpeedup);
            json.endObject();
        }
        json.endArray();
        json.beginArray("inference");
        for (const auto &s : inference) {
            json.beginObject();
            json.member("version", s.version);
            json.member("float_ms", s.floatMs);
            json.member("q8_ms", s.q8Ms);
            json.member("float_model_ms", s.floatModelMs);
            json.member("q8_model_ms", s.q8ModelMs);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        out << "\n";
    }
    std::printf("wrote %s\n", json_path.c_str());

    if (assert_speedup > 0.0) {
        const GemmSample &big = gemm.back();
        if (big.blockedSpeedup < assert_speedup) {
            std::fprintf(stderr,
                         "FAIL: blocked GEMM speedup %.2fx < "
                         "required %.2fx at size %zu\n",
                         big.blockedSpeedup, assert_speedup,
                         big.m);
            return 1;
        }
        for (const auto &s : inference) {
            if (!(s.q8ModelMs < s.floatModelMs)) {
                std::fprintf(stderr,
                             "FAIL: %s-q8 modeled latency %.3f ms "
                             "not below float %.3f ms\n",
                             s.version.c_str(), s.q8ModelMs,
                             s.floatModelMs);
                return 1;
            }
        }
        std::printf("sanity: blocked %.2fx >= %.2fx and all q8 "
                    "versions strictly faster — OK\n",
                    big.blockedSpeedup, assert_speedup);
    }
    return 0;
}
