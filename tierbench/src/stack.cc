#include "stack.hh"

#include <filesystem>

#include "asr/versions.hh"
#include "asr/world.hh"
#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "dataset/speech_corpus.hh"
#include "ic/service.hh"
#include "ic/trainer.hh"
#include "stats/levenshtein.hh"

namespace tierbench {

namespace tt = toltiers;

namespace {

// Fixed inputs of both families. The zoo is trained on the same set
// the repo's examples use, so its cache key matches theirs; rules
// are generated on a calibration set and requests are served from a
// separate held-out set, so the degradation check is not judged on
// the data the rules were fitted to.
constexpr std::uint64_t kIcTrainSeed = 7;
constexpr std::size_t kIcTrainImages = 2500;
constexpr std::uint64_t kIcCalibSeed = 8;
constexpr std::size_t kIcCalibImages = 3000;
constexpr std::uint64_t kIcServeSeed = 11;
constexpr std::size_t kIcServeImages = 6000;

constexpr std::uint64_t kAsrCalibSeed = 1234;
constexpr std::size_t kAsrCalibUtterances = 3000;
constexpr std::uint64_t kAsrServeSeed = 4321;
constexpr std::size_t kAsrServeUtterances = 12000;

const std::vector<double> &
ruleTolerances()
{
    static const std::vector<double> tols = {0.01, 0.05, 0.10};
    return tols;
}

tt::dataset::ImageSet
imageSet(std::uint64_t seed, std::size_t count)
{
    tt::dataset::ImageSetConfig dc;
    dc.seed = seed;
    dc.count = count;
    return tt::dataset::buildImageSet(dc);
}

std::vector<tt::asr::Utterance>
corpus(const tt::asr::AsrWorld &world, std::uint64_t seed,
       std::size_t count)
{
    tt::dataset::SpeechCorpusConfig cc;
    cc.seed = seed;
    cc.utterances = count;
    return tt::dataset::buildSpeechCorpus(world, cc);
}

std::vector<tt::ic::Classifier>
loadZoo(const std::string &cache_dir)
{
    tt::ic::ZooTrainConfig zc;
    zc.cacheDir = cache_dir;
    return tt::ic::trainZoo(imageSet(kIcTrainSeed, kIcTrainImages), zc);
}

std::string
tracePath(const std::string &cache_dir, const char *kind,
          std::size_t count, std::uint64_t seed)
{
    return cache_dir + "/tierbench-" + kind + "-" +
           std::to_string(count) + "-" + std::to_string(seed) + ".ttm";
}

tt::core::MeasurementSet
loadTrace(const std::string &path)
{
    auto ms = tt::core::MeasurementSet::load(path);
    if (!ms) {
        tt::common::fatal("missing measurement trace ", path,
                          " (run the prepare step first)");
    }
    return std::move(*ms);
}

/** Collect the full measurement matrix over `owned` and save it. */
void
collectTo(const std::string &path,
          const std::vector<std::unique_ptr<tt::serving::ServiceVersion>>
              &owned)
{
    std::vector<const tt::serving::ServiceVersion *> versions;
    for (const auto &v : owned)
        versions.push_back(v.get());
    tt::core::MeasurementSet::collect(versions).save(path);
}

} // namespace

TimedVersion::TimedVersion(const tt::serving::ServiceVersion &inner,
                           std::uint32_t index,
                           const std::atomic<bool> &enabled,
                           const tt::common::Stopwatch &clock,
                           std::mutex &log_mu,
                           std::vector<CallRecord> &log)
    : inner_(inner), index_(index), enabled_(enabled), clock_(clock),
      logMu_(log_mu), log_(log)
{
}

tt::serving::VersionResult
TimedVersion::process(std::size_t index) const
{
    if (!enabled_.load(std::memory_order_relaxed))
        return inner_.process(index);
    CallRecord rec;
    rec.version = index_;
    rec.payload = index;
    rec.poolThread = tt::exec::ThreadPool::current() != nullptr;
    rec.start = clock_.seconds();
    tt::serving::VersionResult r = inner_.process(index);
    rec.end = clock_.seconds();
    rec.workUnits = r.workUnits;
    std::lock_guard<std::mutex> lock(logMu_);
    log_.push_back(rec);
    return r;
}

void
prepare(Family family, const std::string &cache_dir)
{
    std::filesystem::create_directories(cache_dir);
    tt::serving::InstanceCatalog catalog;
    if (family == Family::Ic) {
        auto zoo = loadZoo(cache_dir);
        for (auto [seed, count] : {std::pair{kIcCalibSeed, kIcCalibImages},
                                   std::pair{kIcServeSeed, kIcServeImages}}) {
            std::string path = tracePath(cache_dir, "ic", count, seed);
            if (std::filesystem::exists(path))
                continue;
            auto set = imageSet(seed, count);
            std::vector<std::unique_ptr<tt::serving::ServiceVersion>> owned;
            for (const auto &clf : zoo) {
                owned.push_back(std::make_unique<tt::ic::IcServiceVersion>(
                    clf, set, catalog.get(clf.spec().instance)));
            }
            collectTo(path, owned);
        }
        return;
    }
    tt::asr::AsrWorld world;
    std::vector<std::unique_ptr<tt::asr::AsrEngine>> engines;
    for (const auto &cfg : tt::asr::paretoVersions())
        engines.push_back(std::make_unique<tt::asr::AsrEngine>(world, cfg));
    for (auto [seed, count] :
         {std::pair{kAsrCalibSeed, kAsrCalibUtterances},
          std::pair{kAsrServeSeed, kAsrServeUtterances}}) {
        std::string path = tracePath(cache_dir, "asr", count, seed);
        if (std::filesystem::exists(path))
            continue;
        auto utts = corpus(world, seed, count);
        std::vector<std::unique_ptr<tt::serving::ServiceVersion>> owned;
        for (const auto &e : engines) {
            owned.push_back(std::make_unique<tt::asr::AsrServiceVersion>(
                *e, utts, catalog.get("cpu-small")));
        }
        collectTo(path, owned);
    }
}

Stack::Stack(const StackConfig &cfg) : cfg_(cfg)
{
    tt::common::Stopwatch step;
    if (cfg_.family == Family::Ic)
        loadIc();
    else
        loadAsr();
    times_.load = step.seconds();

    step.reset();
    const bool ic = cfg_.family == Family::Ic;
    const char *kind = ic ? "ic" : "asr";
    auto calib = loadTrace(
        ic ? tracePath(cfg_.cacheDir, kind, kIcCalibImages, kIcCalibSeed)
           : tracePath(cfg_.cacheDir, kind, kAsrCalibUtterances,
                       kAsrCalibSeed));
    servingTrace_ = std::make_unique<tt::core::MeasurementSet>(loadTrace(
        ic ? tracePath(cfg_.cacheDir, kind, kIcServeImages, kIcServeSeed)
           : tracePath(cfg_.cacheDir, kind, kAsrServeUtterances,
                       kAsrServeSeed)));
    times_.trace = step.seconds();

    step.reset();
    tt::core::RuleGenConfig rg;
    rg.referenceVersion = calib.versionCount() - 1;
    // Binary top-1 error is coarse, so IC tolerances are absolute
    // points (as in the repo's IC example); ASR WER is relative.
    if (ic)
        rg.mode = tt::core::DegradationMode::AbsolutePoints;
    tt::core::RoutingRuleGenerator gen(
        calib, tt::core::enumerateCandidates(calib.versionCount()), rg);
    // IC serves both objectives; the ASR workload requests cost tiers
    // only.
    std::vector<Objective> objectives = {Objective::Cost};
    if (ic)
        objectives.insert(objectives.begin(), Objective::ResponseTime);
    std::vector<std::pair<Objective, std::vector<tt::core::RoutingRule>>>
        rules;
    for (Objective obj : objectives)
        rules.emplace_back(obj, gen.generate(ruleTolerances(), obj));
    auto profiles = tt::core::singleVersionProfiles(gen.records());
    times_.rulegen = step.seconds();

    step.reset();
    std::vector<const tt::serving::ServiceVersion *> served = versions_;
    if (cfg_.instrument) {
        for (std::uint32_t v = 0; v < versions_.size(); ++v) {
            timed_.push_back(std::make_unique<TimedVersion>(
                *versions_[v], v, timing_, clock_, logMu_, log_));
            served[v] = timed_.back().get();
        }
    }
    tt::serving::CacheConfig cc;
    cc.metrics = &registry_;
    cache_ = std::make_unique<tt::serving::ResultCache>(cc);
    service_ = std::make_unique<tt::core::TierService>(served);
    reference_ = std::make_unique<tt::core::TierService>(versions_);
    for (auto *svc : {service_.get(), reference_.get()}) {
        for (const auto &[obj, table] : rules)
            svc->setRules(obj, table);
        svc->setVersionProfiles(profiles);
    }
    tt::obs::ObsContext ctx;
    ctx.metrics = &registry_;
    service_->attachObservability(ctx);
    service_->setCache(cache_.get());

    pool_ = std::make_unique<tt::exec::ThreadPool>(cfg_.poolThreads);
    tt::core::FrontDoorConfig dc;
    dc.pool = pool_.get();
    dc.metrics = &registry_;
    if (cfg_.instrument) {
        tracer_.setSampleEvery(0);
        dc.tracer = &tracer_;
    }
    if (!cfg_.tenants.empty()) {
        for (const auto &t : cfg_.tenants)
            tenantPolicy_.tenants[t] = tt::serving::TenantQuota{};
        dc.tenantPolicy = &tenantPolicy_;
    }
    door_ = std::make_unique<tt::core::TierFrontDoor>(*service_, dc);
    tt::net::ServerConfig sc;
    sc.metrics = &registry_;
    server_ = std::make_unique<tt::net::TierServer>(*door_, sc);
    std::string err;
    if (!server_->start(err))
        tt::common::fatal("server start failed: ", err);
    times_.serve = step.seconds();
}

Stack::~Stack()
{
    server_->stop();
}

void
Stack::loadIc()
{
    zoo_ = loadZoo(cfg_.cacheDir);
    icServing_ = imageSet(kIcServeSeed, kIcServeImages);
    for (const auto &clf : zoo_) {
        adapters_.push_back(std::make_unique<tt::ic::IcServiceVersion>(
            clf, icServing_, catalog_.get(clf.spec().instance)));
        versions_.push_back(adapters_.back().get());
    }
}

void
Stack::loadAsr()
{
    world_ = std::make_unique<tt::asr::AsrWorld>();
    corpus_ = corpus(*world_, kAsrServeSeed, kAsrServeUtterances);
    for (const auto &cfg : tt::asr::paretoVersions()) {
        engines_.push_back(
            std::make_unique<tt::asr::AsrEngine>(*world_, cfg));
        adapters_.push_back(std::make_unique<tt::asr::AsrServiceVersion>(
            *engines_.back(), corpus_, catalog_.get("cpu-small")));
        versions_.push_back(adapters_.back().get());
    }
}

std::size_t
Stack::payloadCount() const
{
    return versions_.front()->workloadSize();
}

std::vector<std::string>
Stack::versionNames() const
{
    std::vector<std::string> names;
    for (const auto *v : versions_)
        names.push_back(v->name());
    return names;
}

std::size_t
Stack::referenceVersion() const
{
    return versions_.size() - 1;
}

double
Stack::outputError(std::size_t payload, const std::string &output) const
{
    if (cfg_.family == Family::Ic) {
        return output == tt::dataset::imageClassName(
                             icServing_.labels[payload])
                   ? 0.0
                   : 1.0;
    }
    return tt::stats::wordErrorRate(output, corpus_[payload].refText);
}

void
Stack::setTracing(bool on)
{
    tracer_.setSampleEvery(on ? 1 : 0);
    timing_.store(on, std::memory_order_relaxed);
}

std::vector<CallRecord>
Stack::takeCalls()
{
    std::lock_guard<std::mutex> lock(logMu_);
    return std::exchange(log_, {});
}

} // namespace tierbench
