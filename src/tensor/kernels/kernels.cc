#include "tensor/kernels/kernels.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace toltiers::tensor {

namespace {

KernelBackend
backendFromEnv()
{
    const char *env = std::getenv("TT_KERNEL_BACKEND");
    if (env != nullptr) {
        auto parsed = parseKernelBackend(env);
        if (parsed)
            return *parsed;
    }
    return KernelBackend::Blocked;
}

std::atomic<KernelBackend> &
backendState()
{
    static std::atomic<KernelBackend> state{backendFromEnv()};
    return state;
}

} // namespace

KernelPolicy
kernelPolicy()
{
    return KernelPolicy{
        backendState().load(std::memory_order_relaxed)};
}

void
setKernelBackend(KernelBackend backend)
{
    backendState().store(backend, std::memory_order_relaxed);
}

std::optional<KernelBackend>
parseKernelBackend(const std::string &name)
{
    if (name == "reference")
        return KernelBackend::Reference;
    if (name == "blocked")
        return KernelBackend::Blocked;
    return std::nullopt;
}

const char *
kernelBackendName(KernelBackend backend)
{
    switch (backend) {
    case KernelBackend::Reference:
        return "reference";
    case KernelBackend::Blocked:
        return "blocked";
    }
    return "unknown";
}

namespace kernels {

void
gemmF32Reference(const float *a, const float *b, float *c,
                 std::size_t m, std::size_t k, std::size_t n)
{
    // ikj loop order: streams B and C rows for cache friendliness.
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            float av = a[i * k + kk];
            if (av == 0.0f)
                continue;
            const float *brow = b + kk * n;
            float *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

namespace {

/**
 * One row of A against an NR-column panel of B: the NR accumulators
 * live in local variables for the whole k sweep, so C is loaded and
 * stored once. With a single row the skip-zero test skips a whole k
 * step, which leaves the loop free of conditional stores and lets
 * gcc keep the accumulators in vector registers; NR = 32 gives eight
 * independent SSE add chains. Each element still sums its products
 * in ascending k with the Reference's zero skip.
 */
template <std::size_t NR>
void
gemmRowPanel(const float *arow, const float *b, float *c,
             std::size_t k, std::size_t n)
{
    float acc[NR];
    for (std::size_t j = 0; j < NR; ++j)
        acc[j] = c[j];
    for (std::size_t kk = 0; kk < k; ++kk) {
        float av = arow[kk];
        if (av == 0.0f)
            continue;
        const float *brow = b + kk * n;
        for (std::size_t j = 0; j < NR; ++j)
            acc[j] += av * brow[j];
    }
    for (std::size_t j = 0; j < NR; ++j)
        c[j] = acc[j];
}

/**
 * Every NR-wide column panel left from column j0 on, panel
 * outermost so its k x NR slice of B stays in L1 across the rows.
 * Returns the first column not covered.
 */
template <std::size_t NR>
std::size_t
gemmPanels(const float *a, const float *b, float *c, std::size_t m,
           std::size_t k, std::size_t n, std::size_t j0)
{
    for (; j0 + NR <= n; j0 += NR) {
        for (std::size_t i = 0; i < m; ++i)
            gemmRowPanel<NR>(a + i * k, b + j0, c + i * n + j0, k, n);
    }
    return j0;
}

} // namespace

void
gemmF32Blocked(const float *a, const float *b, float *c,
               std::size_t m, std::size_t k, std::size_t n)
{
    // Full 32-wide panels, then at most one each of 16/8/4 and up to
    // three single columns for the remainder.
    std::size_t j = gemmPanels<32>(a, b, c, m, k, n, 0);
    j = gemmPanels<16>(a, b, c, m, k, n, j);
    j = gemmPanels<8>(a, b, c, m, k, n, j);
    j = gemmPanels<4>(a, b, c, m, k, n, j);
    gemmPanels<1>(a, b, c, m, k, n, j);
}

void
gemmF32(const float *a, const float *b, float *c, std::size_t m,
        std::size_t k, std::size_t n)
{
    switch (kernelPolicy().backend) {
    case KernelBackend::Reference:
        gemmF32Reference(a, b, c, m, k, n);
        return;
    case KernelBackend::Blocked:
        gemmF32Blocked(a, b, c, m, k, n);
        return;
    }
}

void
gemmS8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
       std::size_t m, std::size_t k, std::size_t n)
{
    // Integer accumulation is associative, so only the int32 width
    // matters for exactness: |product| <= 127*127, so overflow needs
    // K > 2^31 / 127^2 ≈ 133k — far beyond any layer here.
    constexpr std::size_t MR = 4;
    constexpr std::size_t NB = 64;
    for (std::size_t j0 = 0; j0 < n; j0 += NB) {
        std::size_t jend = std::min(j0 + NB, n);
        for (std::size_t i0 = 0; i0 < m; i0 += MR) {
            std::size_t iend = std::min(i0 + MR, m);
            for (std::size_t kk = 0; kk < k; ++kk) {
                const std::int8_t *brow = b + kk * n;
                for (std::size_t i = i0; i < iend; ++i) {
                    std::int32_t av = a[i * k + kk];
                    if (av == 0)
                        continue;
                    std::int32_t *crow = c + i * n;
#pragma omp simd
                    for (std::size_t j = j0; j < jend; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

} // namespace kernels

} // namespace toltiers::tensor
