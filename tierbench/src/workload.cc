#include "workload.hh"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/logging.hh"

namespace tierbench {

namespace {

std::vector<std::size_t>
permutation(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> p(n);
    std::iota(p.begin(), p.end(), 0);
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

/** Picks an index by weight (cumulative table + binary search). */
class Picker
{
  public:
    explicit Picker(const std::vector<double> &weights)
    {
        double sum = 0.0;
        for (double w : weights)
            cdf_.push_back(sum += w);
    }

    /** Only for a non-empty weight table. */
    std::size_t
    pick(Rng &rng) const
    {
        double u = rng.uniform() * cdf_.back();
        auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
};

toltiers::serving::ServiceRequest
request(const Tier &tier, std::size_t payload, std::string tenant)
{
    toltiers::serving::ServiceRequest r;
    r.payload = payload;
    r.tier.objective = tier.objective;
    r.tier.tolerance = tier.tolerance;
    r.tenant = std::move(tenant);
    return r;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        const Objective rt = Objective::ResponseTime;
        const Objective cost = Objective::Cost;
        std::vector<Workload> ws;

        Workload miss;
        miss.name = "ic-rt-miss";
        miss.family = Family::Ic;
        miss.tiers = {{rt, 0.0}, {rt, 0.01}, {rt, 0.05}, {rt, 0.10}};
        miss.tenants = {"t0", "t1", "t2"};
        miss.tenantWeights = {3.0, 1.0, 1.0};
        miss.lowRps = 1200;
        miss.highRps = 2500;
        miss.limitSeconds = 0.025;
        ws.push_back(miss);

        Workload asr;
        asr.name = "asr-cost-seq";
        asr.family = Family::Asr;
        asr.tiers = {{cost, 0.01}, {cost, 0.05}, {cost, 0.10}};
        asr.lowRps = 2000;
        asr.highRps = 4000;
        asr.limitSeconds = 0.025;
        ws.push_back(asr);
        return ws;
    }();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

std::vector<Arrival>
makeSchedule(const Workload &w, std::size_t payloads, std::uint64_t seed,
             std::uint64_t phase, double rate, double seconds)
{
    std::uint64_t stream = subSeed(seed, phase);
    std::vector<double> due =
        poissonArrivals(subSeed(stream, 1), rate, seconds);
    Rng rng(subSeed(stream, 2));
    std::vector<Arrival> out(due.size());
    const std::size_t tiers = w.tiers.size();

    // Walk the payloads in a seeded order, one round per tier; each
    // payload starts its rounds at a seeded tier offset, so no
    // (payload, tier) pair repeats, the tier mix stays uniform over
    // time, and the first `payloads` requests touch distinct
    // payloads.
    if (due.size() > payloads * tiers) {
        toltiers::common::fatal(w.name, ": ", due.size(), " requests at ",
                                rate, "/s exceed the ", payloads * tiers,
                                " distinct (payload, tier) pairs");
    }
    auto order = permutation(payloads, rng);
    std::vector<std::size_t> offset(payloads);
    for (auto &o : offset)
        o = rng.below(tiers);
    // Tenants come from their own stream, so the pairs do not depend
    // on whether a workload has tenants.
    Rng tenantRng(subSeed(stream, 3));
    const Picker byTenant(w.tenantWeights);
    for (std::size_t k = 0; k < due.size(); ++k) {
        std::size_t p = order[k % payloads];
        std::size_t t = (k / payloads + offset[p]) % tiers;
        std::string tenant =
            w.tenants.empty() ? "" : w.tenants[byTenant.pick(tenantRng)];
        out[k] = {due[k], request(w.tiers[t], p, std::move(tenant))};
    }
    return out;
}

} // namespace tierbench
