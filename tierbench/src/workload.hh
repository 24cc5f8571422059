/**
 * @file
 * The benchmark workloads and the request streams they send.
 *
 * Each uses the tier tables of its model family, and no (payload,
 * tier) pair repeats within a phase (see NOTES.md for why each
 * exists). A workload's requests are a pure function of the
 * benchmark seed.
 */

#ifndef TIERBENCH_WORKLOAD_HH
#define TIERBENCH_WORKLOAD_HH

#include <string>
#include <vector>

#include "loadgen.hh"
#include "stack.hh"

namespace tierbench {

/** One tolerance tier a workload requests. */
struct Tier
{
    Objective objective = Objective::ResponseTime;
    double tolerance = 0.0;
};

/** A traffic mix and the fixed rates it is measured at. */
struct Workload
{
    std::string name;
    Family family = Family::Ic;
    std::vector<Tier> tiers;
    /** Tenant ids and their traffic weights (empty: no tenant
     * policy, anonymous traffic). */
    std::vector<std::string> tenants;
    std::vector<double> tenantWeights;
    std::size_t poolThreads = 4;  //!< Serving-pool workers.
    double lowRps = 0.0;          //!< ~30% of capacity.
    double highRps = 0.0;         //!< ~45-57% of capacity.
    double limitSeconds = 0.0;    //!< p99 latency limit.
};

/** The benchmark's workloads. */
const std::vector<Workload> &workloads();

/** The workload named `name`, or nullptr. */
const Workload *findWorkload(const std::string &name);

/**
 * The requests of one phase of a run: Poisson arrivals at `rate` for
 * `seconds`, with contents drawn for workload `w` over `payloads`
 * payloads. `seed` is the run's seed and `phase` names an independent
 * stream within the run. Pure in its arguments; fatal when the phase
 * would need more (payload, tier) pairs than exist.
 */
std::vector<Arrival> makeSchedule(const Workload &w, std::size_t payloads,
                                  std::uint64_t seed, std::uint64_t phase,
                                  double rate, double seconds);

} // namespace tierbench

#endif // TIERBENCH_WORKLOAD_HH
