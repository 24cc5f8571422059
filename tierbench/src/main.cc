/**
 * @file
 * The benchmark program. run.py builds it and drives it:
 *
 *   tierbench prepare --cache DIR
 *       Train or load the IC zoo and collect every measurement trace
 *       into DIR (once per checkout, outside every timed run).
 *   tierbench setup --workload W --cache DIR
 *       Build the workload's stack, print "ready" once the server
 *       accepts requests, and exit (run.py times this).
 *   tierbench run --workload W --seed N --seconds S --trace 0|1
 *                 --cache DIR
 *       Build the stack, print "ready", drive the workload, check
 *       every response, and print one "RESULT {...}" line.
 *
 * With --trace 0 the run measures the end-to-end metrics: latency at
 * the workload's low and high fixed rates, and among them the rate
 * ladder searches for max_rate_rps. With --trace 1 it measures the per-layer metrics:
 * the low rate untraced, the same schedule again with every request
 * traced and every ServiceVersion timed, and the high rate untraced
 * (for the generator's own lateness).
 *
 * A phase the host disturbed (see disturbance()) is sent again. When
 * the retries outlast the run's budget the run is invalid: it prints
 * "INVALID <why>" instead of a result and exits with code 4.
 */

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "loadgen.hh"
#include "stack.hh"
#include "workload.hh"

namespace tt = toltiers;
using namespace tierbench;

namespace {

// Phase streams of one run (makeSchedule's `phase`).
constexpr std::uint64_t kWarmPhase = 1;
constexpr std::uint64_t kLowPhase = 100;    // + round
constexpr std::uint64_t kHighPhase = 200;   // + round
constexpr std::uint64_t kLadderPhase = 300; // + probe

// How an end-to-end run spends --seconds: kRounds rounds of one low
// and one high phase of kFixedShare each, and kSearches searches of
// the rate ladder highRps x kLadderStep^k with rungs of kProbeShare
// each, one after every kRounds / kSearches rounds, so the searches
// see the same stretch of host time as the fixed rates. The first
// search climbs kFirstStride rungs at a time from the high rate; each
// later one starts at the rung the one before it found.
// max_rate_rps is the median of the rungs found.
constexpr std::uint64_t kRounds = 16;
constexpr double kFixedShare = 0.015;
constexpr std::size_t kSearches = 7;
constexpr double kProbeShare = 0.02;
constexpr double kLadderStep = 1.05;
constexpr int kFirstStride = 8;
// A disturbed phase is sent again after a pause, so a burst of host
// interference can pass. Once the phases of a run, retries included,
// have taken kBudgetFactor x --seconds, the run is invalid.
constexpr double kRetryPauseSeconds = 0.1;
constexpr double kBudgetFactor = 4.0;
// A failing ladder rung is sent again up to kRungRetries times; it
// fails once kRungFailures undisturbed attempts have failed.
constexpr std::size_t kRungRetries = 2;
constexpr std::size_t kRungFailures = 2;
// Pipelined client connections of every phase.
constexpr std::size_t kConnections = 2;
// A traced run: the low rate untraced and then traced for this share
// of --seconds each, then the high rate for the rest.
constexpr double kTracedShare = 0.4;

struct Options
{
    std::string mode;
    std::string workload;
    std::string cache;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    int trace = 0;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    if (argc < 2)
        tt::common::fatal("usage: tierbench prepare|setup|run [--flag value]...");
    o.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--cache")
            o.cache = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace")
            o.trace = std::stoi(val);
        else
            tt::common::fatal("unknown flag ", key);
    }
    if ((argc - 2) % 2 != 0)
        tt::common::fatal("flag ", argv[argc - 1], " needs a value");
    if (o.cache.empty())
        tt::common::fatal("--cache is required");
    if (o.mode != "prepare" && findWorkload(o.workload) == nullptr)
        tt::common::fatal("unknown workload '", o.workload, "'");
    if (o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1))
        tt::common::fatal("--seconds must be > 0 and --trace 0 or 1");
    return o;
}

StackConfig
stackConfig(const Workload &w, const Options &o)
{
    StackConfig cfg;
    cfg.family = w.family;
    cfg.cacheDir = o.cache;
    cfg.poolThreads = w.poolThreads;
    cfg.tenants = w.tenants;
    cfg.instrument = o.trace == 1;
    return cfg;
}

/** Metric name -> (value, unit), written in insertion order. A
 * percentile also keeps the number of samples it was taken over. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        std::size_t samples = kNoSamples)
    {
        entries_.push_back({name, value, unit, samples});
    }

    /** Write {"<name>": <samples>, ...} for every percentile. */
    void
    writeSamples(tt::common::JsonWriter &out) const
    {
        out.beginObject();
        for (const Entry &e : entries_) {
            if (e.samples != kNoSamples)
                out.member(e.name, e.samples);
        }
        out.endObject();
    }

    /** Write {"<name>": {"value": v, "unit": u}, ...} as `key`. */
    void
    write(tt::common::JsonWriter &out, const std::string &key) const
    {
        out.beginObject(key);
        for (const Entry &e : entries_) {
            out.beginObject(e.name);
            out.member("value", e.value);
            out.member("unit", e.unit);
            out.endObject();
        }
        out.endObject();
    }

  private:
    static constexpr std::size_t kNoSamples = ~std::size_t{0};

    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        std::size_t samples;
    };
    std::vector<Entry> entries_;
};

/** Reference answer for one (payload, objective, tolerance). */
struct RefKey
{
    std::size_t payload = 0;
    int objective = 0;
    double tolerance = 0.0;

    auto tie() const { return std::tie(payload, objective, tolerance); }
    bool operator<(const RefKey &o) const { return tie() < o.tie(); }
    bool operator==(const RefKey &o) const { return tie() == o.tie(); }
};

RefKey
keyOf(const tt::serving::ServiceRequest &r)
{
    return {r.payload, static_cast<int>(r.tier.objective),
            r.tier.tolerance};
}

tt::net::WireStatus
wireStatus(tt::core::ServeStatus s)
{
    switch (s) {
      case tt::core::ServeStatus::Ok:
        return tt::net::WireStatus::Ok;
      case tt::core::ServeStatus::FellBack:
        return tt::net::WireStatus::FellBack;
      case tt::core::ServeStatus::GuaranteeViolation:
        return tt::net::WireStatus::GuaranteeViolation;
    }
    return tt::net::WireStatus::BadRequest;
}

/** A run whose host interference outlasted its retry budget. */
struct InvalidRun
{
    std::string why;
};

/** One phase's schedule and what came back. */
struct SentPhase
{
    std::vector<Arrival> schedule;
    PhaseResult result;
};

/**
 * In-process answers of the uncached twin service, memoized per
 * distinct (payload, objective, tolerance) and computed a phase at a
 * time over a few threads.
 */
class ReferenceAnswers
{
  public:
    explicit ReferenceAnswers(const Stack &stack) : stack_(stack) {}

    /** Answer every request of `schedule` not answered yet. */
    void
    addAll(const std::vector<Arrival> &schedule)
    {
        std::vector<RefKey> missing;
        for (const Arrival &a : schedule) {
            if (!answers_.count(keyOf(a.request)))
                missing.push_back(keyOf(a.request));
        }
        std::sort(missing.begin(), missing.end());
        missing.erase(std::unique(missing.begin(), missing.end()),
                      missing.end());
        std::vector<tt::core::TierResponse> got(missing.size());
        const std::size_t threads =
            std::max(1u, std::thread::hardware_concurrency());
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                for (std::size_t i = t; i < missing.size(); i += threads) {
                    tt::serving::ServiceRequest r;
                    r.payload = missing[i].payload;
                    r.tier.objective =
                        static_cast<Objective>(missing[i].objective);
                    r.tier.tolerance = missing[i].tolerance;
                    got[i] = stack_.reference().handle(r);
                }
            });
        }
        for (auto &w : workers)
            w.join();
        for (std::size_t i = 0; i < missing.size(); ++i)
            answers_.emplace(missing[i], std::move(got[i]));
    }

    const tt::core::TierResponse &
    at(const RefKey &k) const
    {
        return answers_.at(k);
    }

  private:
    const Stack &stack_;
    std::map<RefKey, tt::core::TierResponse> answers_;
};

/** Collects correctness breaches; any one fails the run. */
class Gate
{
  public:
    void
    require(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++breaches_;
        if (breaches_ <= 10)
            std::fprintf(stderr, "correctness breach: %s\n", what.c_str());
    }

    bool passed() const { return breaches_ == 0; }

  private:
    std::size_t breaches_ = 0;
};

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Value of a counter series in a registry snapshot (0 if absent). */
double
counterValue(const std::vector<tt::obs::SeriesSnapshot> &snap,
             const std::string &name)
{
    for (const auto &s : snap) {
        if (s.name == name && s.labels.empty())
            return s.value;
    }
    return 0.0;
}

/** The tt_stage_seconds histogram of one stage, or an empty one. */
tt::obs::HistogramSnapshot
stageHistogram(const std::vector<tt::obs::SeriesSnapshot> &snap,
               const std::string &stage)
{
    for (const auto &s : snap) {
        if (s.name != "tt_stage_seconds")
            continue;
        for (const auto &[k, v] : s.labels) {
            if (k == "stage" && v == stage)
                return s.hist;
        }
    }
    return {};
}

/** What a histogram recorded between two snapshots. */
tt::obs::HistogramSnapshot
delta(const tt::obs::HistogramSnapshot &after,
      const tt::obs::HistogramSnapshot &before)
{
    tt::obs::HistogramSnapshot d = after;
    if (before.counts.size() == d.counts.size()) {
        for (std::size_t i = 0; i < d.counts.size(); ++i)
            d.counts[i] -= before.counts[i];
    }
    d.count -= before.count;
    d.sum -= before.sum;
    return d;
}

/** CPU clocks of every serving-pool worker thread. */
std::vector<clockid_t>
poolClocks(tt::exec::ThreadPool &pool)
{
    const std::size_t n = pool.threadCount();
    std::mutex mu;
    std::condition_variable cv;
    std::vector<clockid_t> clocks;
    std::size_t finished = 0;
    // Each task blocks until all have started, so each runs on its
    // own worker.
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&] {
            clockid_t id{};
            pthread_getcpuclockid(pthread_self(), &id);
            std::unique_lock<std::mutex> lock(mu);
            clocks.push_back(id);
            cv.notify_all();
            cv.wait(lock, [&] { return clocks.size() == n; });
            ++finished;
            cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return finished == n; });
    return clocks;
}

double
cpuSeconds(const std::vector<clockid_t> &clocks)
{
    double total = 0.0;
    for (clockid_t id : clocks) {
        timespec ts{};
        clock_gettime(id, &ts);
        total += static_cast<double>(ts.tv_sec) +
                 static_cast<double>(ts.tv_nsec) * 1e-9;
    }
    return total;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Drives one workload against one stack and checks every answer. */
class Runner
{
  public:
    Runner(const Workload &w, const Options &o, Stack &stack)
        : w_(w), o_(o), stack_(stack), ref_(stack)
    {
    }

    /**
     * The end-to-end run (--trace 0): kRounds alternating rounds of
     * the low and the high fixed rate, so both see the same stretch
     * of machine time, with the ladder searches spread among them.
     * Each latency is the nearest-rank percentile of every request
     * sent at that rate.
     */
    void
    endToEnd(Metrics &m)
    {
        warm();
        budget_ = tt::common::Stopwatch();
        std::vector<double> low, high, found;
        bool highPass = true;
        std::uint64_t rung = kLadderPhase;
        int from = 0;
        for (std::uint64_t r = 0; r < kRounds; ++r) {
            pool(low, measured(kLowPhase + r, w_.lowRps,
                               kFixedShare * o_.seconds, "low", true));
            SentPhase h = measured(kHighPhase + r, w_.highRps,
                                   kFixedShare * o_.seconds, "high", true);
            pool(high, h);
            highPass = highPass && judge(h.result, w_.limitSeconds).pass;
            // Search s follows round ceil((s + 1) kRounds / kSearches).
            if ((found.size() + 1) * kRounds > (r + 1) * kSearches)
                continue;
            auto k = searchRung(
                w_.highRps, kLadderStep, from,
                found.empty() ? kFirstStride : 1, w_.lowRps,
                [&](double rate) {
                    return rate == w_.highRps ? highPass
                                              : rungPasses(rung++, rate);
                });
            if (!k)
                tt::common::fatal("no ladder rung passed, or none failed");
            from = *k;
            found.push_back(rungRate(w_.highRps, kLadderStep, *k));
            std::printf("ladder search %zu: %.0f/s\n", found.size(),
                        found.back());
        }
        auto ms = [](const std::vector<double> &v, double p) {
            return percentile(v, p) * 1e3;
        };
        m.add("lat_p50_ms.low", ms(low, 50), "ms", low.size());
        m.add("lat_p99_ms.low", ms(low, 99), "ms", low.size());
        m.add("lat_p50_ms.high", ms(high, 50), "ms", high.size());
        m.add("lat_p99_ms.high", ms(high, 99), "ms", high.size());
        // kSearches is odd, so the nearest-rank median is the middle
        // rung found.
        m.add("max_rate_rps", percentile(found, 50), "1/s", found.size());
    }

    /** The traced run (--trace 1). */
    void
    perLayer(Metrics &m)
    {
        auto clocks = poolClocks(stack_.pool());
        warm();
        budget_ = tt::common::Stopwatch();
        const double lowSeconds = kTracedShare * o_.seconds;
        double late = 0.0, steal = 0.0;
        std::size_t inflight = 0;
        auto generator = [&](const PhaseResult &r) {
            late = std::max(late, percentile(r.lateness(), 99));
            steal = std::max(steal, r.stealShare);
            inflight = std::max(inflight, r.inflightMax);
        };

        double base = 0.0;
        {
            SentPhase plain =
                measured(kLowPhase, w_.lowRps, lowSeconds, "low", true);
            base = percentile(plain.result.latencies(), 50);
            generator(plain.result);
        }

        // The traced phase: the same schedule, sent again until the
        // host leaves it alone; the layer figures are deltas over the
        // attempt that counts.
        const auto schedule = makeSchedule(w_, stack_.payloadCount(),
                                           o_.seed, kLowPhase, w_.lowRps,
                                           lowSeconds);
        std::vector<tt::obs::SeriesSnapshot> snapBefore, snap;
        tt::core::FrontDoorStats doorBefore, door;
        tt::serving::CacheStats cacheBefore, cache;
        std::vector<CallRecord> calls;
        std::vector<tt::obs::TraceRecord> traces;
        double cpu = 0.0, tracedWall = 0.0;
        SentPhase traced;
        for (std::size_t attempt = 0;; ++attempt) {
            snapBefore = stack_.registry().snapshot();
            doorBefore = stack_.door().stats();
            cacheBefore = stack_.cache().stats();
            double cpuBefore = cpuSeconds(clocks);
            stack_.takeCalls();
            stack_.tracer().drain();
            stack_.setTracing(true);
            tt::common::Stopwatch wall;
            traced = run(schedule, w_.lowRps, "low-traced");
            tracedWall = wall.seconds();
            stack_.setTracing(false);
            cpu = cpuSeconds(clocks) - cpuBefore;
            calls = stack_.takeCalls();
            traces = stack_.tracer().drain();
            snap = stack_.registry().snapshot();
            door = stack_.door().stats();
            cache = stack_.cache().stats();
            absorb(traced);
            if (undisturbed(traced, "low-traced", attempt))
                break;
        }
        tally(traced);
        generator(traced.result);

        double executeWall = layerMetrics(m, traced, calls, traces);

        auto stage = [&](const char *name) {
            return delta(stageHistogram(snap, name),
                         stageHistogram(snapBefore, name));
        };
        auto counter = [&](const char *name) {
            return counterValue(snap, name) - counterValue(snapBefore, name);
        };
        double accepted = counter("tt_net_accepted_total");
        double bytes = counter("tt_net_bytes_read_total") +
                       counter("tt_net_bytes_written_total");
        // The server times a read only for a frame split across reads,
        // so the sample count says how many frames this covers.
        m.add("net.read_us.p50", stage("net-read").quantile(0.5) * 1e6, "us",
              stage("net-read").count);
        m.add("net.write_us.p50", stage("net-write").quantile(0.5) * 1e6,
              "us", stage("net-write").count);
        m.add("net.codec_ns_per_frame", codecNsPerFrame(traced), "ns");
        m.add("net.bytes_per_req", accepted > 0 ? bytes / accepted : 0.0,
              "bytes");

        auto share = [](std::uint64_t part, std::uint64_t whole) {
            return whole ? static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0;
        };
        m.add("door.rejected_share",
              share(door.rejected - doorBefore.rejected,
                    door.submitted - doorBefore.submitted),
              "ratio");
        std::uint64_t lookups = cache.lookups - cacheBefore.lookups;
        m.add("cache.hit_ratio", share(cache.hits - cacheBefore.hits, lookups),
              "ratio");
        m.add("cache.insertions_per_req",
              share(cache.insertions - cacheBefore.insertions, lookups),
              "ratio");
        m.add("pool.busy_share",
              cpu / (static_cast<double>(clocks.size()) * tracedWall),
              "ratio");

        // Round trip (send to response) against the layers that
        // account for it: net read, admission wait, route, cache,
        // measured execution, net write.
        double rtt = 0.0;
        for (const Sample &s : traced.result.samples)
            rtt += s.answered ? s.done - s.sent : 0.0;
        m.add("residual_share",
              residualShare(rtt, {stage("net-read").sum,
                                  stage("admission").sum, stage("route").sum,
                                  stage("cache").sum, executeWall,
                                  stage("net-write").sum}),
              "ratio");
        m.add("trace.overhead_pct",
              base > 0 ? (percentile(traced.result.latencies(), 50) - base) /
                             base * 100.0
                       : 0.0,
              "%");

        {
            SentPhase high = measured(kHighPhase, w_.highRps,
                                   (1 - 2 * kTracedShare) * o_.seconds,
                                   "high", true);
            generator(high.result);
        }
        m.add("gen.late_p99_us", late * 1e6, "us");
        m.add("gen.inflight_max", static_cast<double>(inflight), "count");
        m.add("gen.steal_pct", steal * 100.0, "%");

        const SetupTimes &st = stack_.setupTimes();
        m.add("setup.load_s", st.load, "s");
        m.add("setup.trace_s", st.trace, "s");
        m.add("setup.rulegen_s", st.rulegen, "s");
        m.add("setup.serve_s", st.serve, "s");
    }

    /**
     * The rest of the correctness gate, once traffic is over: each
     * tier's degradation against the reference version, then the
     * accounting identities after the server stops. Also adds the
     * end-to-end figures that need the whole run.
     */
    bool
    finish(Metrics &m)
    {
        const auto &trace = stack_.servingTrace();
        const std::size_t refVersion = stack_.referenceVersion();
        struct Tally
        {
            double err = 0.0, refErr = 0.0;
            std::size_t n = 0;
        };
        std::map<std::pair<int, double>, Tally> tiers;
        for (const RefKey &k : served_) {
            Tally &t = tiers[{k.objective, k.tolerance}];
            t.err += stack_.outputError(k.payload, ref_.at(k).output);
            t.refErr += trace.at(refVersion, k.payload).error;
            ++t.n;
        }
        for (const auto &[tier, t] : tiers) {
            double err = t.err / static_cast<double>(t.n);
            double refErr = t.refErr / static_cast<double>(t.n);
            // The rule generator's definition (core/simulator.cc).
            double degradation =
                stack_.absoluteDegradation() ? err - refErr
                : refErr > 1e-12             ? (err - refErr) / refErr
                                             : err;
            std::printf("tier %s/%s: %zu pairs, error %.4f vs reference "
                        "%.4f, degradation %.4f\n",
                        tt::serving::objectiveName(
                            static_cast<Objective>(tier.first)),
                        fmt(tier.second).c_str(), t.n, err, refErr,
                        degradation);
            gate_.require(degradation <= tier.second + 1e-12,
                          "tier " + fmt(tier.second) + " degraded by " +
                              fmt(degradation));
        }

        stack_.stop();
        const auto srv = stack_.server().stats();
        const auto door = stack_.door().stats();
        const auto cache = stack_.cache().stats();
        const auto snap = stack_.registry().snapshot();
        auto same = [&](const char *series, std::uint64_t v) {
            return counterValue(snap, series) == static_cast<double>(v);
        };
        gate_.require(srv.accepted == srv.completed + srv.rejected +
                                          srv.aborted,
                      "net: accepted != completed + rejected + aborted");
        gate_.require(same("tt_net_accepted_total", srv.accepted) &&
                          same("tt_net_completed_total", srv.completed) &&
                          same("tt_net_rejected_total", srv.rejected) &&
                          same("tt_net_aborted_total", srv.aborted),
                      "net: tt_net_* series disagree with server stats");
        gate_.require(srv.badFrames == 0, "net: bad frames");
        gate_.require(srv.accepted == written_,
                      "net: accepted " + std::to_string(srv.accepted) +
                          " of " + std::to_string(written_) + " sent");
        gate_.require(srv.completed + srv.rejected == answered_,
                      "net: responses written != responses received");
        gate_.require(door.submitted == srv.accepted,
                      "door: submitted != net accepted");
        gate_.require(door.submitted == door.rejected + door.completed,
                      "door: submitted != rejected + completed");
        gate_.require(door.completed ==
                          door.ok + door.fellBack + door.violations,
                      "door: completed != ok + fell-back + violations");
        gate_.require(door.violations == 0, "door: guarantee violations");
        for (const auto &t : stack_.door().tenantStats()) {
            gate_.require(t.submitted == t.rejected + t.shed + t.completed,
                          "tenant " + t.tenant +
                              ": submitted != rejected + shed + completed");
        }
        gate_.require(cache.lookups == cache.hits + cache.misses,
                      "cache: lookups != hits + misses");
        gate_.require(cache.insertions == cache.evictions +
                                              cache.expirations +
                                              cache.replacements +
                                              cache.entries + cleared_,
                      "cache: insertions != evictions + expirations + "
                      "replacements + resident + cleared");

        if (o_.trace == 0) {
            double pct = 0.0;
            std::size_t n = 0;
            for (const auto &[obj, sv] : saving_) {
                pct += (1.0 - sv.served / sv.osfa) * 100.0 *
                       static_cast<double>(sv.n);
                n += sv.n;
            }
            m.add("ok_pct",
                  100.0 * static_cast<double>(attempted_ - failed_) /
                      static_cast<double>(std::max<std::size_t>(attempted_, 1)),
                  "%");
            m.add("modeled_saving_pct", n ? pct / static_cast<double>(n) : 0.0,
                  "%");
            m.add("peak_rss_mb", peakRssMb(), "MB");
        } else {
            m.add("cache.evictions", static_cast<double>(cache.evictions),
                  "count");
        }
        return gate_.passed();
    }

    std::size_t attempted() const { return attempted_; }
    std::size_t retries() const { return retries_; }
    std::size_t failed() const { return failed_; }

  private:
    /** Append a phase's latencies to `out`. */
    static void
    pool(std::vector<double> &out, const SentPhase &ph)
    {
        auto l = ph.result.latencies();
        out.insert(out.end(), l.begin(), l.end());
    }

    /** Send one phase: clears the cache first, so no pair repeats
     * within the cache's lifetime. */
    SentPhase
    run(std::vector<Arrival> schedule, double rate, const char *label)
    {
        cleared_ += stack_.cache().stats().entries;
        stack_.cache().clear();
        PhaseResult r = runOpenLoop(stack_.port(), schedule, rate,
                                    kConnections);
        report(label, r);
        return {std::move(schedule), std::move(r)};
    }

    /**
     * Whether attempt `attempt` (from 0) of a sent phase counts. An
     * undisturbed one does. A disturbed one is logged; the caller
     * sends it again after a pause, and once the run's retry budget
     * is spent this throws InvalidRun. The per-layer metrics carry
     * no bound, so a traced run sends a disturbed phase only once
     * more and keeps the second attempt; gen.steal_pct and
     * gen.late_p99_us show what it saw.
     */
    bool
    undisturbed(const SentPhase &ph, const char *label, std::size_t attempt)
    {
        std::string why = disturbance(ph.result);
        if (why.empty())
            return true;
        std::printf("phase %-10s disturbed (%s)\n", label, why.c_str());
        if (o_.trace == 1 && attempt > 0) {
            std::printf("phase %-10s kept\n", label);
            return true;
        }
        if (o_.trace == 0 && budget_.seconds() > kBudgetFactor * o_.seconds) {
            throw InvalidRun{"host interference outlasted the retry "
                             "budget; last: " + why};
        }
        ++retries_;
        std::printf("phase %-10s sent again\n", label);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kRetryPauseSeconds));
        return false;
    }

    /** Send and check one phase until the host leaves it alone;
     * `fixed` marks the fixed-rate phases that attempted, failed
     * and modeled_saving_pct cover. */
    SentPhase
    measured(std::uint64_t stream, double rate, double seconds,
             const char *label, bool fixed)
    {
        const auto schedule = makeSchedule(w_, stack_.payloadCount(),
                                           o_.seed, stream, rate, seconds);
        SentPhase ph;
        for (std::size_t attempt = 0;; ++attempt) {
            ph = run(schedule, rate, label);
            absorb(ph);
            if (undisturbed(ph, label, attempt))
                break;
        }
        if (fixed)
            tally(ph);
        return ph;
    }

    /**
     * Send and judge one ladder rung. A pass counts even when the
     * host disturbed it. A failure is sent again, up to kRungRetries
     * times, and the rung fails once kRungFailures attempts the host
     * left alone have failed, or the retries are spent. A quiet
     * failure is confirmed because one stall of a few ms fails a
     * rung's p99 far below capacity; a disturbed one is sent again
     * because a rung near saturation keeps every vCPU busy, and the
     * host then steals from it more than from a calm phase, so
     * demanding a quiet host there would never end.
     */
    bool
    rungPasses(std::uint64_t stream, double rate)
    {
        // kProbeShare of --seconds, shortened where the workload would
        // run out of distinct pairs.
        const double pairs =
            static_cast<double>(stack_.payloadCount() * w_.tiers.size());
        const double seconds =
            std::min(kProbeShare * o_.seconds, 0.95 * pairs / rate);
        const auto schedule = makeSchedule(w_, stack_.payloadCount(),
                                           o_.seed, stream, rate, seconds);
        std::size_t quietFailures = 0;
        for (std::size_t attempt = 0;; ++attempt) {
            SentPhase ph = run(schedule, rate, "ladder");
            absorb(ph);
            if (judge(ph.result, w_.limitSeconds).pass)
                return true;
            if (attempt == kRungRetries)
                return false;
            if (undisturbed(ph, "ladder", attempt)) {
                if (++quietFailures == kRungFailures)
                    return false;
                std::printf("phase %-10s failed; sent again to confirm\n",
                            "ladder");
            }
        }
    }

    void
    warm()
    {
        absorb(run(makeSchedule(w_, stack_.payloadCount(), o_.seed,
                                kWarmPhase, w_.lowRps, 0.5),
                   w_.lowRps, "warm"));
    }

    /** Check every response of a phase against the in-process
     * reference. */
    void
    absorb(const SentPhase &ph)
    {
        ref_.addAll(ph.schedule);
        for (std::size_t k = 0; k < ph.schedule.size(); ++k) {
            const auto &req = ph.schedule[k].request;
            const Sample &s = ph.result.samples[k];
            written_ += s.written ? 1 : 0;
            if (!s.answered)
                continue;
            ++answered_;
            const auto &got = s.response;
            gate_.require(got.status != tt::net::WireStatus::BadRequest,
                          "request refused as malformed");
            gate_.require(
                got.status != tt::net::WireStatus::GuaranteeViolation,
                "guarantee violation served for payload " +
                    std::to_string(req.payload));
            if (got.status == tt::net::WireStatus::Rejected)
                continue;
            const auto &want = ref_.at(keyOf(req));
            gate_.require(got.status == wireStatus(want.status) &&
                              got.output == want.output &&
                              got.ruleTolerance == want.ruleTolerance,
                          "wire response differs from in-process handle() "
                          "for payload " + std::to_string(req.payload) +
                              " tolerance " + fmt(req.tier.tolerance) +
                              ": '" + got.output + "' vs '" + want.output +
                              "'");
            if (got.status == tt::net::WireStatus::Ok)
                served_.insert(keyOf(req));
        }
    }

    /** Count a phase that counts toward attempted, failed and the
     * modeled saving. */
    void
    tally(const SentPhase &ph)
    {
        attempted_ += ph.result.samples.size();
        failed_ += ph.result.failures();
        // Modeled response time (or cost) of each request against the
        // one-size-fits-all reference version on the same payload.
        const auto &trace = stack_.servingTrace();
        for (const Arrival &a : ph.schedule) {
            const auto &want = ref_.at(keyOf(a.request));
            const auto &cell =
                trace.at(stack_.referenceVersion(), a.request.payload);
            bool cost = a.request.tier.objective == Objective::Cost;
            Saving &sv = saving_[static_cast<int>(a.request.tier.objective)];
            sv.served += cost ? want.costDollars : want.latencySeconds;
            sv.osfa += cost ? cell.cost : cell.latency;
            ++sv.n;
        }
    }

    void
    report(const char *label, const PhaseResult &r) const
    {
        std::printf("phase %-10s rate %7.0f/s  n %6zu  failed %4zu  "
                    "p50 %8.3f ms  p99 %8.3f ms  late p99 %7.1f us  "
                    "inflight max %4zu end %4zu  steal %5.2f%%\n",
                    label, r.rate, r.samples.size(), r.failures(),
                    percentile(r.latencies(), 50) * 1e3,
                    percentile(r.latencies(), 99) * 1e3,
                    percentile(r.lateness(), 99) * 1e6, r.inflightMax,
                    r.inflightAtEnd, r.stealShare * 100.0);
        std::fflush(stdout);
    }

    /** Encode and decode the phase's own request and response
     * frames: nanoseconds per frame. */
    static double
    codecNsPerFrame(const SentPhase &ph)
    {
        tt::common::Stopwatch sw;
        std::size_t frames = 0;
        tt::net::Bytes buf;
        for (std::size_t k = 0; k < ph.schedule.size(); ++k) {
            buf.clear();
            if (tt::net::encodeRequestFrame(ph.schedule[k].request, buf) ==
                tt::net::CodecStatus::Ok) {
                frames += tt::net::decodeFrame(buf.data(), buf.size()).ok();
            }
            const Sample &s = ph.result.samples[k];
            if (!s.answered)
                continue;
            buf.clear();
            if (tt::net::encodeResponseFrame(s.response, buf) ==
                tt::net::CodecStatus::Ok) {
                frames += tt::net::decodeFrame(buf.data(), buf.size()).ok();
            }
        }
        return frames ? sw.seconds() * 1e9 / static_cast<double>(frames)
                      : 0.0;
    }

    /** Metrics of the traced phase from its span log and call log;
     * returns the summed execution wall time. */
    double
    layerMetrics(Metrics &m, const SentPhase &traced,
                 std::vector<CallRecord> calls,
                 const std::vector<tt::obs::TraceRecord> &traces)
    {
        // Wall-clock spans the program records per request.
        std::vector<double> admission, route, lookup;
        for (const auto &t : traces) {
            for (const auto &s : t.spans) {
                if (s.name == "admission")
                    admission.push_back(s.duration);
                else if (s.name == "rule_match")
                    route.push_back(s.duration);
                else if (s.name == "cache_lookup")
                    lookup.push_back(s.duration);
            }
        }
        m.add("door.queue_wait_us.p50", percentile(admission, 50) * 1e6,
              "us", admission.size());
        m.add("door.queue_wait_us.p99", percentile(admission, 99) * 1e6,
              "us", admission.size());
        m.add("cache.lookup_us.p50", percentile(lookup, 50) * 1e6, "us",
              lookup.size());
        m.add("route.us.p50", percentile(route, 50) * 1e6, "us",
              route.size());

        std::uint64_t tenantRejected = 0;
        for (const auto &t : stack_.door().tenantStats())
            tenantRejected += t.rejected + t.shed;
        for (const char *tenant : {"t0", "t1", "t2"}) {
            std::vector<double> lat;
            for (std::size_t k = 0; k < traced.schedule.size(); ++k) {
                if (traced.schedule[k].request.tenant == tenant) {
                    const Sample &s = traced.result.samples[k];
                    lat.push_back(s.failed() ? 1e300 : s.latency());
                }
            }
            m.add(std::string("tenant.lat_p99_ms.") + tenant,
                  percentile(lat, 99) * 1e3, "ms", lat.size());
        }
        m.add("tenant.rejected", static_cast<double>(tenantRejected),
              "count");

        // One request's execution = the calls on its payload that
        // overlap or abut (a sequential escalation starts as its
        // primary ends; a raced leg overlaps it). Within the traced
        // phase a no-repeat workload never has one payload in flight
        // twice.
        std::sort(calls.begin(), calls.end(),
                  [](const CallRecord &a, const CallRecord &b) {
                      return std::tie(a.payload, a.start) <
                             std::tie(b.payload, b.start);
                  });
        std::vector<double> execute;
        for (std::size_t i = 0; i < calls.size();) {
            double start = calls[i].start, end = calls[i].end;
            std::size_t j = i + 1;
            while (j < calls.size() && calls[j].payload == calls[i].payload &&
                   calls[j].start <= end + 50e-6) {
                end = std::max(end, calls[j].end);
                ++j;
            }
            execute.push_back(end - start);
            i = j;
        }
        double executeWall = 0.0;
        for (double e : execute)
            executeWall += e;
        double modeled = 0.0;
        std::size_t served = 0;
        for (const Sample &s : traced.result.samples) {
            if (!s.answered)
                continue;
            ++served;
            if (!s.response.servedFromCache)
                modeled += s.response.latencySeconds;
        }
        auto offPool = static_cast<double>(
            std::count_if(calls.begin(), calls.end(),
                          [](const CallRecord &c) { return !c.poolThread; }));
        auto per_req = [&](double n) {
            return served ? n / static_cast<double>(served) : 0.0;
        };
        m.add("execute.us.p50", percentile(execute, 50) * 1e6, "us",
              execute.size());
        m.add("policy.legs_per_req",
              per_req(static_cast<double>(calls.size())), "ratio");
        m.add("policy.new_threads_per_req", per_req(offPool), "ratio");
        m.add("model.gap_ratio", modeled > 0 ? executeWall / modeled : 0.0,
              "ratio");

        // Per-version forward (IC) or decode (ASR) time and rate.
        const auto names = stack_.versionNames();
        std::map<std::string, double> p50us;
        std::map<std::string, std::size_t> timed;
        double work = 0.0, busy = 0.0;
        for (std::size_t v = 0; v < names.size(); ++v) {
            std::vector<double> wall;
            for (const CallRecord &c : calls) {
                if (c.version == v) {
                    wall.push_back(c.end - c.start);
                    work += static_cast<double>(c.workUnits);
                    busy += c.end - c.start;
                }
            }
            p50us[names[v]] = percentile(wall, 50) * 1e6;
            timed[names[v]] = wall.size();
        }
        // Every workload reports every layer; a layer off its path
        // reads 0.
        const bool ic = w_.family == Family::Ic;
        double rate = busy > 0 ? work / busy : 0.0;
        for (const char *v : {"mlp-s", "cnn-xs", "cnn-s", "cnn-m", "cnn-l"}) {
            m.add(std::string("kernel.forward_us.") + v, ic ? p50us[v] : 0.0,
                  "us", ic ? timed[v] : 0);
        }
        m.add("kernel.gmac_per_s", ic ? rate / 1e9 : 0.0, "GMAC/s");
        for (const char *v : {"v1", "v2", "v3", "v4", "v5", "v6", "v7"}) {
            m.add(std::string("asr.decode_us.") + v, ic ? 0.0 : p50us[v],
                  "us", ic ? 0 : timed[v]);
        }
        m.add("asr.work_units_per_s", ic ? 0.0 : rate, "1/s");
        return executeWall;
    }

    struct Saving
    {
        double served = 0.0, osfa = 0.0;
        std::size_t n = 0;
    };

    const Workload &w_;
    const Options &o_;
    Stack &stack_;
    Gate gate_;
    ReferenceAnswers ref_;
    std::set<RefKey> served_; //!< Distinct pairs answered Ok.
    std::size_t written_ = 0, answered_ = 0;
    std::uint64_t cleared_ = 0; //!< Entries the benchmark cleared.
    std::size_t attempted_ = 0, failed_ = 0;
    std::map<int, Saving> saving_;
    tt::common::Stopwatch budget_; //!< Since the measured phases began.
    std::size_t retries_ = 0;      //!< Disturbed phases sent again.
};

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    if (o.mode == "prepare") {
        prepare(Family::Ic, o.cache);
        prepare(Family::Asr, o.cache);
        std::printf("prepared %s\n", o.cache.c_str());
        return 0;
    }
    const Workload &w = *findWorkload(o.workload);
    if (o.mode != "setup" && o.mode != "run")
        tt::common::fatal("unknown mode '", o.mode, "'");

    Stack stack(stackConfig(w, o));
    std::printf("ready\n");
    std::fflush(stdout);
    if (o.mode == "setup")
        return 0;

    Metrics m;
    Runner runner(w, o, stack);
    try {
        if (o.trace == 0)
            runner.endToEnd(m);
        else
            runner.perLayer(m);
    } catch (const InvalidRun &e) {
        std::printf("INVALID %s\n", e.why.c_str());
        return 4;
    }
    bool correct = runner.finish(m);
    std::ostringstream samples;
    tt::common::JsonWriter counts(samples);
    m.writeSamples(counts);
    std::printf("samples %s\n", samples.str().c_str());
    std::printf("phases sent again after host interference: %zu\n",
                runner.retries());
    std::ostringstream result;
    tt::common::JsonWriter out(result);
    out.beginObject();
    out.member("correct", correct);
    out.member("attempted", runner.attempted());
    out.member("failed", runner.failed());
    m.write(out, "metrics");
    out.endObject();
    std::printf("RESULT %s\n", result.str().c_str());
    return correct ? 0 : 1;
}
