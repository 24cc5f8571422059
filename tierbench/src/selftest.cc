/**
 * @file
 * Self-tests of the benchmark's own machinery: percentiles, the
 * seeded schedule, due-time accounting, the max-rate search, and the
 * residual. The stall and capacity tests drive a real TierServer in
 * front of a synthetic ServiceVersion whose timing is known.
 *
 *   tierbench_selftest      (exit 0 when every check passes)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "core/front_door.hh"
#include "core/tier_service.hh"
#include "exec/pool.hh"
#include "loadgen.hh"
#include "net/server.hh"
#include "workload.hh"

namespace tt = toltiers;
using namespace tierbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

/** A version that sleeps a fixed time per request, and far longer
 * on one chosen payload. */
class SleepVersion : public tt::serving::ServiceVersion
{
  public:
    SleepVersion(double seconds, std::size_t stall_payload,
                 double stall_seconds)
        : seconds_(seconds), stallPayload_(stall_payload),
          stallSeconds_(stall_seconds)
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &instanceName() const override { return name_; }
    std::size_t workloadSize() const override { return 1u << 20; }

    tt::serving::VersionResult
    process(std::size_t index) const override
    {
        double s = index == stallPayload_ ? stallSeconds_ : seconds_;
        std::this_thread::sleep_for(std::chrono::duration<double>(s));
        tt::serving::VersionResult r;
        r.output = "answer-" + std::to_string(index);
        r.confidence = 1.0;
        r.latencySeconds = s;
        return r;
    }

  private:
    std::string name_ = "sleep";
    double seconds_;
    std::size_t stallPayload_;
    double stallSeconds_;
};

/**
 * One synthetic server: a single version behind a door whose pool
 * has no workers, so requests are served one at a time on the
 * connection's reader thread and queue behind each other.
 */
class SyntheticServer
{
  public:
    explicit SyntheticServer(const SleepVersion &version)
        : service_({&version}), pool_(1)
    {
        tt::core::RoutingRule rule;
        service_.setRules(tt::serving::Objective::ResponseTime, {rule});
        tt::core::FrontDoorConfig dc;
        dc.pool = &pool_;
        door_ = std::make_unique<tt::core::TierFrontDoor>(service_, dc);
        server_ = std::make_unique<tt::net::TierServer>(
            *door_, tt::net::ServerConfig{});
        std::string err;
        if (!server_->start(err))
            std::printf("server start failed: %s\n", err.c_str());
    }

    std::uint16_t port() const { return server_->port(); }

  private:
    tt::core::TierService service_;
    tt::exec::ThreadPool pool_;
    std::unique_ptr<tt::core::TierFrontDoor> door_;
    std::unique_ptr<tt::net::TierServer> server_;
};

std::vector<Arrival>
steadySchedule(double rate, double seconds)
{
    std::vector<Arrival> out;
    for (double t = 0.0; t < seconds; t += 1.0 / rate) {
        Arrival a;
        a.due = t;
        a.request.payload = out.size();
        out.push_back(a);
    }
    return out;
}

void
testPercentile()
{
    // The nearest-rank example: ranks ceil(p/100 * n).
    std::vector<double> v = {15, 20, 35, 40, 50};
    expect(percentile(v, 5) == 15 && percentile(v, 30) == 20 &&
               percentile(v, 40) == 20 && percentile(v, 50) == 35 &&
               percentile(v, 100) == 50,
           "nearest-rank percentiles of {15,20,35,40,50}");
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    expect(percentile(hundred, 99) == 99 && percentile(hundred, 50) == 50,
           "p99 of 1..100 is 99, p50 is 50");
    expect(percentile({}, 50) == 0.0, "percentile of nothing is 0");
}

void
testSchedule()
{
    auto a = poissonArrivals(42, 1000.0, 10.0);
    auto b = poissonArrivals(42, 1000.0, 10.0);
    auto c = poissonArrivals(43, 1000.0, 10.0);
    expect(a == b && a != c, "Poisson arrivals are a pure function of the seed");
    expect(std::fabs(static_cast<double>(a.size()) - 10000.0) < 400.0,
           "Poisson arrivals keep the offered rate (" +
               std::to_string(a.size()) + " in 10 s at 1000/s)");

    for (const Workload &w : workloads()) {
        auto same = [](const std::vector<Arrival> &x,
                       const std::vector<Arrival> &y) {
            if (x.size() != y.size())
                return false;
            for (std::size_t i = 0; i < x.size(); ++i) {
                const auto &p = x[i].request;
                const auto &q = y[i].request;
                if (x[i].due != y[i].due || p.payload != q.payload ||
                    p.tier.tolerance != q.tier.tolerance ||
                    p.tier.objective != q.tier.objective ||
                    p.tenant != q.tenant)
                    return false;
            }
            return true;
        };
        auto s1 = makeSchedule(w, 4000, 7, 2, w.lowRps, 1.0);
        auto s2 = makeSchedule(w, 4000, 7, 2, w.lowRps, 1.0);
        auto s3 = makeSchedule(w, 4000, 8, 2, w.lowRps, 1.0);
        expect(same(s1, s2) && !same(s1, s3),
               w.name + ": requests are a pure function of the seed");
        std::vector<std::tuple<std::size_t, int, double>> pairs;
        std::map<std::string, std::size_t> perTenant;
        for (const auto &a : makeSchedule(w, 500, 7, 2, 1000.0, 1.4)) {
            pairs.emplace_back(a.request.payload,
                               static_cast<int>(a.request.tier.objective),
                               a.request.tier.tolerance);
            ++perTenant[a.request.tenant];
        }
        std::sort(pairs.begin(), pairs.end());
        expect(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end(),
               w.name + ": no (payload, tier) pair repeats");
        if (!w.tenants.empty()) {
            // Weights 3:1:1: t0 sends about 60% of ~1400 requests.
            expect(perTenant.size() == 3 && perTenant["t0"] > 700 &&
                       perTenant["t1"] > 200 && perTenant["t2"] > 200,
                   w.name + ": traffic splits over its tenants by weight");
        }
    }
}

void
testStallAccounting()
{
    // 500 requests/s, 2 ms apart; payload 200 stalls the only server
    // thread for 100 ms. The ~50 requests due during the stall wait
    // behind it: measured from their due time they are late by up
    // to the stall, even though the generator sent each on time.
    SleepVersion version(0.0002, 200, 0.100);
    SyntheticServer server(version);
    auto schedule = steadySchedule(500.0, 1.0);
    PhaseResult r = runOpenLoop(server.port(), schedule, 500.0, 1);
    std::size_t slow = 0;
    for (const Sample &s : r.samples)
        slow += s.latency() > 0.040 ? 1 : 0;
    expect(r.failures() == 0, "stall test: every request answered");
    expect(r.samples[201].latency() > 0.080,
           "stall test: the request after the stall waits for it (" +
               std::to_string(r.samples[201].latency() * 1e3) + " ms)");
    expect(slow >= 20, "stall test: " + std::to_string(slow) +
                           " requests queued behind the stall are late");
    // A generator that waited for each response before sending the
    // next would have sent these requests late, after the stall, and
    // timed them from there; this one kept sending into the queue.
    expect(percentile(r.lateness(), 99) < 0.030,
           "stall test: the generator kept sending through the stall");
    expect(percentile(r.latencies(), 99) > 0.040,
           "stall test: p99 from due time shows the stall");
}

void
testMaxRateSearch()
{
    // Pure search over a known threshold, from starts below and
    // above it.
    auto upTo200 = [](double r) { return r <= 200; };
    expect(searchRung(100, 1.5, 0, 1, 10, upTo200) == 1 &&
               searchRung(300, 1.5, 0, 1, 10, upTo200) == -1,
           "ladder search finds the highest passing rung from below and "
           "above");
    // Rungs of 100 x 1.1^k: ..., 177, 195, 214. Climbing by 4 from
    // rung 0 passes rung 4 and fails rung 8; rungs 5-7 are tried.
    expect(searchRung(100, 1.1, 0, 4, 10, upTo200) == 7 &&
               rungRate(100, 1.1, 7) == 195,
           "ladder search tries the rungs a stride skipped");
    expect(searchRung(100, 1.1, 9, 1, 10, upTo200) == 7 &&
               searchRung(100, 1.1, 5, 1, 10, upTo200) == 7,
           "ladder search from another rung finds the same rung");
    expect(searchRung(100, 2, 0, 1, 10, [](double r) { return r <= 1e6; }) ==
               13,
           "ladder search has no top rung: it climbs 13 doublings");
    expect(!searchRung(100, 1.5, 0, 1, 10, [](double) { return false; }),
           "ladder search finds nothing when no rung passes");
    expect(!searchRung(100, 1.5, 0, 3, 10, [](double) { return true; }),
           "ladder search finds nothing when no rung fails");

    // A served synthetic version: 5 ms per request on one thread is
    // a capacity of ~200/s: climbing by 3x from 50/s, 150/s (75%
    // busy) passes a 200 ms limit and 450/s builds a backlog that
    // grows past it.
    SleepVersion version(0.005, ~std::size_t{0}, 0.0);
    SyntheticServer server(version);
    std::uint64_t phase = 0;
    auto found = searchRung(50, 3, 0, 1, 10, [&](double rate) {
        Workload w;
        w.tiers = {{Objective::ResponseTime, 0.0}};
        auto schedule = makeSchedule(w, 1u << 20, 11, ++phase, rate, 2.0);
        Verdict v = judge(runOpenLoop(server.port(), schedule, rate, 1), 0.2);
        std::printf("      %4.0f/s: p99 %.1f ms, backlog %s -> %s\n", rate,
                    v.p99 * 1e3, v.backlogGrew ? "grew" : "steady",
                    v.pass ? "pass" : "fail");
        return v.pass;
    });
    expect(found == 1, "served search finds the synthetic capacity rung "
                       "150/s (got rung " +
                           (found ? std::to_string(*found) : "none") + ")");
}

void
testDisturbance()
{
    PhaseResult calm;
    calm.samples.resize(100);
    for (std::size_t k = 0; k < calm.samples.size(); ++k) {
        calm.samples[k].due = 0.01 * static_cast<double>(k);
        calm.samples[k].sent = calm.samples[k].due + 50e-6;
    }
    calm.stealShare = 0.5 * kMaxStealShare;
    PhaseResult stolen = calm;
    stolen.stealShare = 2 * kMaxStealShare;
    PhaseResult late = calm;
    for (std::size_t k = 90; k < 100; ++k)
        late.samples[k].sent += 2 * kMaxLatenessP99;
    expect(disturbance(calm).empty() && !disturbance(stolen).empty() &&
               !disturbance(late).empty(),
           "a phase counts unless host steal or sender lateness passes "
           "its limit");
}

void
testResidual()
{
    // A fully attributed fake: every part of each round trip known.
    std::vector<double> parts = {12e-6, 3e-6, 1e-6, 2e-6, 400e-6, 9e-6};
    double total = 0.0;
    for (double p : parts)
        total += p;
    expect(std::fabs(residualShare(total, parts)) < 1e-12,
           "residual of a fully attributed round trip is 0");
    expect(std::fabs(residualShare(4.0, {1.0, 2.0}) - 0.25) < 1e-12,
           "residual of a quarter-unattributed round trip is 0.25");
}

} // namespace

int
main()
{
    testPercentile();
    testSchedule();
    testResidual();
    testDisturbance();
    testStallAccounting();
    testMaxRateSearch();
    std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
    return failures ? 1 : 0;
}
