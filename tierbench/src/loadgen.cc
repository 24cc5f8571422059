#include "loadgen.hh"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "net/client.hh"

namespace tierbench {

namespace tt = toltiers;

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    return bound == 0 ? 0 : next() % bound;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
    return rng.next();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

std::vector<double>
poissonArrivals(std::uint64_t seed, double rate, double seconds)
{
    Rng rng(seed);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.uniform()) / rate;
        if (t >= seconds)
            return due;
        due.push_back(t);
    }
}

HostCpu
readHostCpu()
{
    HostCpu out;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return out;
    std::istringstream fields(line.substr(4));
    const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    // user nice system idle iowait irq softirq steal [guest...]: the
    // guest fields are already counted in user and nice.
    double v = 0.0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
        out.total += v * tick;
        if (i == 7)
            out.steal = v * tick;
    }
    return out;
}

std::size_t
PhaseResult::failures() const
{
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [](const Sample &s) { return s.failed(); }));
}

std::vector<double>
PhaseResult::latencies() const
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample &s : samples) {
        out.push_back(s.failed() ? std::numeric_limits<double>::infinity()
                                 : s.latency());
    }
    return out;
}

std::vector<double>
PhaseResult::lateness() const
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample &s : samples)
        out.push_back(s.sent - s.due);
    return out;
}

namespace {

using Clock = std::chrono::steady_clock;

/** One pipelined connection: the sender thread writes, the
 * receiver thread reads. The receiver only blocks in recv() while
 * a response is owed, so it never waits on a request that will not
 * come. The two halves of a TierClient touch disjoint state except
 * when recv() closes a broken stream; the sender then stops using
 * the connection, and the run fails on the unanswered requests. */
struct Connection
{
    tt::net::TierClient client;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t sent = 0; //!< Guarded by mu.
    bool closing = false; //!< Guarded by mu: no more sends.
    std::atomic<bool> broken{false};
};

double
since(Clock::time_point origin)
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

void
receive(Connection &conn, std::vector<Sample> &samples,
        Clock::time_point origin, std::atomic<std::size_t> &received)
{
    std::size_t got = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(conn.mu);
            conn.cv.wait(lock,
                         [&] { return got < conn.sent || conn.closing; });
            if (got == conn.sent)
                return;
        }
        tt::net::NetResponse resp;
        if (conn.client.recv(resp) != tt::net::CodecStatus::Ok ||
            resp.id >= samples.size()) {
            // The stream is unusable; every request still owed on
            // it stays unanswered and counts as failed.
            conn.broken.store(true);
            return;
        }
        Sample &s = samples[resp.id];
        s.done = since(origin);
        s.answered = true;
        s.response = std::move(resp);
        ++got;
        received.fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace

PhaseResult
runOpenLoop(std::uint16_t port, const std::vector<Arrival> &schedule,
            double rate, std::size_t connections)
{
    PhaseResult out;
    out.rate = rate;
    out.samples.resize(schedule.size());

    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < connections; ++c) {
        conns.push_back(std::make_unique<Connection>());
        std::string err;
        if (!conns.back()->client.connect("127.0.0.1", port, err))
            tt::common::fatal("load generator cannot connect: ", err);
    }

    // Wake-ups at the due time: without this the kernel's default
    // 50 us timer slack would make every send late by design.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    const HostCpu cpuBefore = readHostCpu();
    std::atomic<std::size_t> received{0};
    // A short lead so the receivers are parked before the first due
    // time.
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(2);
    std::vector<std::thread> receivers;
    for (auto &conn : conns) {
        receivers.emplace_back(receive, std::ref(*conn),
                               std::ref(out.samples), origin,
                               std::ref(received));
    }

    for (std::size_t k = 0; k < schedule.size(); ++k) {
        Sample &s = out.samples[k];
        s.due = schedule[k].due;
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.due)));
        Connection &conn = *conns[k % conns.size()];
        tt::serving::ServiceRequest req = schedule[k].request;
        req.id = k;
        s.sent = since(origin);
        if (conn.broken.load())
            continue;
        {
            std::lock_guard<std::mutex> lock(conn.mu);
            ++conn.sent;
        }
        conn.cv.notify_one();
        if (conn.client.send(req) == tt::net::CodecStatus::Ok)
            s.written = true;
        else
            conn.broken.store(true);
        std::size_t inflight =
            k + 1 - received.load(std::memory_order_relaxed);
        out.inflightMax = std::max(out.inflightMax, inflight);
    }
    out.inflightAtEnd =
        schedule.size() - received.load(std::memory_order_relaxed);

    for (auto &conn : conns) {
        {
            std::lock_guard<std::mutex> lock(conn->mu);
            conn->closing = true;
        }
        conn->cv.notify_one();
    }
    for (auto &t : receivers)
        t.join();
    const HostCpu cpuAfter = readHostCpu();
    if (cpuAfter.total > cpuBefore.total) {
        out.stealShare = (cpuAfter.steal - cpuBefore.steal) /
                         (cpuAfter.total - cpuBefore.total);
    }
    return out;
}

std::string
disturbance(const PhaseResult &phase)
{
    char why[96] = "";
    const double late = percentile(phase.lateness(), 99);
    if (phase.stealShare > kMaxStealShare) {
        std::snprintf(why, sizeof(why), "host steal %.2f%% > %.2f%%",
                      phase.stealShare * 100, kMaxStealShare * 100);
    } else if (late > kMaxLatenessP99) {
        std::snprintf(why, sizeof(why), "sender late p99 %.0f us > %.0f us",
                      late * 1e6, kMaxLatenessP99 * 1e6);
    }
    return why;
}

Verdict
judge(const PhaseResult &phase, double limit)
{
    Verdict v;
    v.p99 = percentile(phase.latencies(), 99.0);
    v.failures = phase.failures();
    double allowed = std::max(2.0, phase.rate * limit);
    v.backlogGrew = static_cast<double>(phase.inflightAtEnd) > allowed;
    v.pass = v.p99 <= limit && v.failures == 0 && !v.backlogGrew;
    return v;
}

double
rungRate(double base, double step, int k)
{
    return std::round(base * std::pow(step, k));
}

std::optional<int>
searchRung(double base, double step, int from, int stride, double floor,
           const std::function<bool(double)> &meets)
{
    auto passes = [&](int k) { return meets(rungRate(base, step, k)); };
    if (passes(from)) {
        int best = from;
        for (int k = from + stride; k - from <= kMaxRungs; k += stride) {
            if (!passes(k)) {
                while (best + 1 < k && passes(best + 1))
                    ++best;
                return best;
            }
            best = k;
        }
        return std::nullopt;
    }
    for (int k = from - 1; rungRate(base, step, k) >= floor; --k) {
        if (passes(k))
            return k;
    }
    return std::nullopt;
}

double
residualShare(double total, const std::vector<double> &parts)
{
    if (total <= 0.0)
        return 0.0;
    double attributed = 0.0;
    for (double p : parts)
        attributed += p;
    return (total - attributed) / total;
}

} // namespace tierbench
