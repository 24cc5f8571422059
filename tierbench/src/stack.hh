/**
 * @file
 * The served stack under test, built from the library's public APIs:
 *
 *     net::TierServer -> core::TierFrontDoor (+ TenantGovernor when a
 *     tenant policy is set) -> core::TierService with a
 *     serving::ResultCache -> ic::IcServiceVersion /
 *     asr::AsrServiceVersion
 *
 * plus an uncached in-process twin of the TierService (same versions,
 * same rules) that the correctness gate compares wire responses to.
 *
 * Everything expensive (zoo training, measurement traces) is made
 * once by prepare() into a cache directory; building a Stack then only
 * loads it, which is what the benchmark's set-up time measures.
 */

#ifndef TIERBENCH_STACK_HH
#define TIERBENCH_STACK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "asr/engine.hh"
#include "asr/service.hh"
#include "core/front_door.hh"
#include "core/measurement.hh"
#include "core/rule_generator.hh"
#include "core/tier_service.hh"
#include "dataset/synth_images.hh"
#include "exec/pool.hh"
#include "ic/classifier.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serving/cache.hh"
#include "serving/instance.hh"
#include "serving/tenant.hh"

namespace tierbench {

using toltiers::serving::Objective;

/** Which model family a stack serves. */
enum class Family { Ic, Asr };

/** Everything that defines one stack instance. */
struct StackConfig
{
    Family family = Family::Ic;
    /** Directory holding zoo weights and measurement traces. */
    std::string cacheDir;
    /** Serving-pool worker threads. */
    std::size_t poolThreads = 4;
    /** Tenants behind a fair-admission policy (empty: no policy). */
    std::vector<std::string> tenants;
    /** Wrap every version in a TimedVersion and attach a tracer. */
    bool instrument = false;
};

/** Wall time of each set-up step, in seconds. */
struct SetupTimes
{
    double load = 0.0;    //!< Datasets, zoo weights, engines.
    double trace = 0.0;   //!< Measurement traces from the cache.
    double rulegen = 0.0; //!< RoutingRuleGenerator + generate().
    double serve = 0.0;   //!< Cache, services, door, server start.
};

/** One ServiceVersion::process call seen by a TimedVersion. */
struct CallRecord
{
    std::uint32_t version = 0;
    std::size_t payload = 0;
    double start = 0.0; //!< Seconds on the stack's clock.
    double end = 0.0;
    bool poolThread = false; //!< Ran on a serving-pool worker.
    std::uint64_t workUnits = 0;
};

/**
 * Timing decorator around one ServiceVersion: while enabled, every
 * process() call is logged with its wall interval and the kind of
 * thread it ran on. Used only in the traced run.
 */
class TimedVersion : public toltiers::serving::ServiceVersion
{
  public:
    TimedVersion(const toltiers::serving::ServiceVersion &inner,
                 std::uint32_t index, const std::atomic<bool> &enabled,
                 const toltiers::common::Stopwatch &clock,
                 std::mutex &log_mu, std::vector<CallRecord> &log);

    const std::string &name() const override { return inner_.name(); }
    const std::string &instanceName() const override
    {
        return inner_.instanceName();
    }
    std::size_t workloadSize() const override
    {
        return inner_.workloadSize();
    }
    toltiers::serving::VersionResult
    process(std::size_t index) const override;

  private:
    const toltiers::serving::ServiceVersion &inner_;
    std::uint32_t index_;
    const std::atomic<bool> &enabled_;
    const toltiers::common::Stopwatch &clock_;
    std::mutex &logMu_;
    std::vector<CallRecord> &log_;
};

/** Train/load the zoo and collect every trace a Stack loads. */
void prepare(Family family, const std::string &cache_dir);

/** The live stack; the server is listening once construction ends. */
class Stack
{
  public:
    explicit Stack(const StackConfig &cfg);
    ~Stack();

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    std::uint16_t port() const { return server_->port(); }
    const SetupTimes &setupTimes() const { return times_; }

    /** Stop the server; its accounting is exact afterwards. */
    void stop() { server_->stop(); }

    /** Payloads in the bound serving workload. */
    std::size_t payloadCount() const;
    /** Version names, ladder order (reference last). */
    std::vector<std::string> versionNames() const;
    std::size_t referenceVersion() const;

    /** Error of a served output against payload's ground truth
     * (IC: top-1 0/1; ASR: word error rate). */
    double outputError(std::size_t payload,
                       const std::string &output) const;
    /** Whether IC tolerances are absolute points (else relative). */
    bool absoluteDegradation() const { return cfg_.family == Family::Ic; }
    /** Serving-set measurements (per version, per payload). */
    const toltiers::core::MeasurementSet &servingTrace() const
    {
        return *servingTrace_;
    }

    /** The uncached in-process twin of the served TierService. */
    const toltiers::core::TierService &reference() const
    {
        return *reference_;
    }

    toltiers::serving::ResultCache &cache() { return *cache_; }
    toltiers::core::TierFrontDoor &door() { return *door_; }
    toltiers::net::TierServer &server() { return *server_; }
    toltiers::obs::Registry &registry() { return registry_; }
    toltiers::obs::Tracer &tracer() { return tracer_; }
    toltiers::exec::ThreadPool &pool() { return *pool_; }

    /** Turn the tracer (every request) and the timing decorators
     * on or off. Only meaningful with cfg.instrument. */
    void setTracing(bool on);
    /** Take the call log recorded since the last take. */
    std::vector<CallRecord> takeCalls();

  private:
    void loadIc();
    void loadAsr();

    StackConfig cfg_;
    SetupTimes times_;
    toltiers::serving::InstanceCatalog catalog_;

    // IC family.
    toltiers::dataset::ImageSet icServing_;
    std::vector<toltiers::ic::Classifier> zoo_;
    // ASR family.
    std::unique_ptr<toltiers::asr::AsrWorld> world_;
    std::vector<toltiers::asr::Utterance> corpus_;
    std::vector<std::unique_ptr<toltiers::asr::AsrEngine>> engines_;

    std::vector<std::unique_ptr<toltiers::serving::ServiceVersion>>
        adapters_;
    std::vector<const toltiers::serving::ServiceVersion *> versions_;

    std::unique_ptr<toltiers::core::MeasurementSet> servingTrace_;

    toltiers::common::Stopwatch clock_;
    std::atomic<bool> timing_{false};
    std::mutex logMu_;
    std::vector<CallRecord> log_;
    std::vector<std::unique_ptr<TimedVersion>> timed_;

    toltiers::obs::Registry registry_;
    toltiers::obs::Tracer tracer_;
    toltiers::serving::TenantPolicy tenantPolicy_;
    std::unique_ptr<toltiers::serving::ResultCache> cache_;
    std::unique_ptr<toltiers::core::TierService> service_;
    std::unique_ptr<toltiers::core::TierService> reference_;
    std::unique_ptr<toltiers::exec::ThreadPool> pool_;
    std::unique_ptr<toltiers::core::TierFrontDoor> door_;
    std::unique_ptr<toltiers::net::TierServer> server_;
};

} // namespace tierbench

#endif // TIERBENCH_STACK_HH
