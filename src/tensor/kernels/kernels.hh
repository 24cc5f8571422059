/**
 * @file
 * Inference GEMM kernels behind a runtime-selectable policy.
 *
 * Two float backends implement the same contract:
 *
 *  - Reference: the original scalar ikj loop, kept verbatim as the
 *    correctness oracle.
 *  - Blocked: register-blocked. One row of A runs against a 32-column
 *    panel of B whose accumulators stay in local variables (vector
 *    registers under gcc) for the whole k sweep, so C is loaded and
 *    stored once; narrower panels take the column remainder. Plain
 *    C++ that the compiler vectorizes at the baseline ISA.
 *
 * The Blocked backend is **bit-exact** against Reference: every
 * output element is accumulated in ascending-k order with the same
 * skip-zero test, so blocking changes memory traffic but not a single
 * rounding step (tests/kernels_test.cc proves this property on
 * random streams, edge shapes, infinite operands and every zoo
 * network).
 *
 * All GEMMs use the accumulate contract C += A·B; callers pass a
 * zero-initialized C (Tensor construction already guarantees this).
 * The int8 kernel accumulates in explicit int32 — never in the
 * element type — so K ≥ 129 dot products of saturated values cannot
 * wrap (regression-tested).
 *
 * Backend selection: `TT_KERNEL_BACKEND=reference|blocked` in the
 * environment, or setKernelBackend() (the `--kernel-backend` CLI
 * flag). Default is Blocked.
 */

#ifndef TOLTIERS_TENSOR_KERNELS_KERNELS_HH
#define TOLTIERS_TENSOR_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace toltiers::tensor {

/** Which GEMM implementation the hot path dispatches to. */
enum class KernelBackend
{
    Reference, //!< Scalar oracle (original ikj loop).
    Blocked,   //!< Register-blocked, bit-exact vs Reference.
};

/** The process-wide kernel selection. */
struct KernelPolicy
{
    KernelBackend backend = KernelBackend::Blocked;
};

/** Current policy (initialized once from TT_KERNEL_BACKEND). */
KernelPolicy kernelPolicy();

/** Override the process-wide backend (thread-safe). */
void setKernelBackend(KernelBackend backend);

/** Parse "reference"/"blocked"; nullopt on anything else. */
std::optional<KernelBackend> parseKernelBackend(
    const std::string &name);

/** Lowercase display name of a backend. */
const char *kernelBackendName(KernelBackend backend);

namespace kernels {

/**
 * C[m,n] += A[m,k] · B[k,n], scalar reference order: for each output
 * element, products are added in ascending k, skipping zero A
 * entries. This is the oracle every other float backend must match
 * bit-for-bit.
 */
void gemmF32Reference(const float *a, const float *b, float *c,
                      std::size_t m, std::size_t k, std::size_t n);

/**
 * C[m,n] += A[m,k] · B[k,n], register-blocked. Per-element
 * accumulation order is identical to gemmF32Reference (ascending k,
 * same zero skip), so results are bit-identical; only where the
 * partial sums live between steps differs.
 */
void gemmF32Blocked(const float *a, const float *b, float *c,
                    std::size_t m, std::size_t k, std::size_t n);

/** Dispatch to the backend chosen by kernelPolicy(). */
void gemmF32(const float *a, const float *b, float *c, std::size_t m,
             std::size_t k, std::size_t n);

/**
 * C[m,n] += A[m,k] · B[k,n] over int8 operands with explicit int32
 * accumulation (exact for any K up to ~131k even at saturated ±127
 * inputs).
 */
void gemmS8(const std::int8_t *a, const std::int8_t *b,
            std::int32_t *c, std::size_t m, std::size_t k,
            std::size_t n);

} // namespace kernels

} // namespace toltiers::tensor

#endif // TOLTIERS_TENSOR_KERNELS_KERNELS_HH
