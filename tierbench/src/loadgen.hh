/**
 * @file
 * The benchmark's open-loop load generator and the statistics it is
 * judged by.
 *
 * Requests follow a seeded Poisson schedule and are pipelined over a
 * few net::TierClient connections: one sender thread writes every
 * request at its due time regardless of outstanding responses, and
 * one receiver thread per connection collects responses by their
 * echoed id. Each request's latency runs from when it was *due*, not
 * from when it was sent, so a stall that delays the sender or the
 * server is charged to every request queued behind it.
 */

#ifndef TIERBENCH_LOADGEN_HH
#define TIERBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.hh"
#include "serving/request.hh"

namespace tierbench {

/** splitmix64 stream: the benchmark's only source of randomness, so
 * a workload's inputs depend on the seed and nothing in the library. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [0, bound). */
    std::uint64_t below(std::uint64_t bound);

  private:
    std::uint64_t state_;
};

/** Derive an independent seed for a named sub-stream. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

/** Nearest-rank percentile, p in (0, 100]; 0 for an empty input. */
double percentile(std::vector<double> values, double p);

/** Poisson arrival offsets (seconds) in [0, seconds) at `rate`/s. */
std::vector<double> poissonArrivals(std::uint64_t seed, double rate,
                                    double seconds);

/** CPU time the host's kernel reports, seconds summed over CPUs. */
struct HostCpu
{
    double steal = 0.0; //!< Taken by the hypervisor for other guests.
    double total = 0.0; //!< Every state, steal included.
};

/** Read /proc/stat; all zero where it cannot be read. */
HostCpu readHostCpu();

/** One scheduled request. */
struct Arrival
{
    double due = 0.0; //!< Offset from the phase start, seconds.
    toltiers::serving::ServiceRequest request;
};

/** What happened to one scheduled request. */
struct Sample
{
    double due = 0.0;  //!< Seconds from the phase start.
    double sent = 0.0; //!< When the sender wrote it.
    double done = 0.0; //!< When its response was decoded.
    bool written = false;  //!< The request frame went out.
    bool answered = false;
    toltiers::net::NetResponse response;

    /** Round trip charged to the request: due to response. */
    double latency() const { return done - due; }
    /** Failed: no response, or any status other than Ok. */
    bool failed() const
    {
        return !answered ||
               response.status != toltiers::net::WireStatus::Ok;
    }
};

/** One open-loop phase. */
struct PhaseResult
{
    std::vector<Sample> samples; //!< Indexed like the schedule.
    double rate = 0.0;           //!< Offered rate, requests/s.
    std::size_t inflightMax = 0; //!< Most requests outstanding.
    /** Requests outstanding when the last one was sent. */
    std::size_t inflightAtEnd = 0;
    /** Share of the host's CPU time stolen by the hypervisor while
     * the phase ran (0 where the kernel does not report it). */
    double stealShare = 0.0;

    std::size_t failures() const;
    /** Latency of every request; a failed one counts as infinite. */
    std::vector<double> latencies() const;
    /** How late the sender wrote each request (sent - due). */
    std::vector<double> lateness() const;
};

/**
 * Send `schedule` to 127.0.0.1:`port` over `connections` pipelined
 * connections and wait for every response. A request whose
 * connection fails is left unanswered (and so counts as failed).
 */
PhaseResult runOpenLoop(std::uint16_t port,
                        const std::vector<Arrival> &schedule,
                        double rate, std::size_t connections);

/**
 * Host interference a phase may see and still count. Past either
 * limit the phase measured the host, not the program, and is sent
 * again. Steal is time the hypervisor gave to other guests, so the
 * program cannot cause it; the sender's lateness guards against
 * interference the guest kernel does not report as steal.
 */
inline constexpr double kMaxStealShare = 0.002;
inline constexpr double kMaxLatenessP99 = 0.003; //!< Seconds.

/** Why a phase does not count ("" when it does). */
std::string disturbance(const PhaseResult &phase);

/** Whether one phase met the workload's limits. */
struct Verdict
{
    bool pass = false;
    double p99 = 0.0; //!< Seconds; a failed request is infinite.
    std::size_t failures = 0;
    bool backlogGrew = false;
};

/**
 * A phase passes when the nearest-rank p99 of all its requests is
 * within `limit` seconds, nothing failed, and the backlog did not
 * grow: the requests outstanding at the last send stay within what
 * Little's law allows for a latency of `limit` at the offered rate.
 */
Verdict judge(const PhaseResult &phase, double limit);

/** Ladder rungs above the start before the search gives up. */
inline constexpr int kMaxRungs = 64;

/** Rung k (any sign) of the geometric ladder base x step^k, rounded
 * to a whole rate, so every search sees the same rungs. */
double rungRate(double base, double step, int k);

/**
 * The highest rung of the ladder base x step^k whose rate `meets`
 * accepts, searched from rung `from`. While `from` passes, the
 * search climbs `stride` rungs at a time until one fails (there is
 * no top rung, so a faster program is never clipped), then tries
 * the rungs it skipped one by one from below. While `from` fails it
 * steps down one rung at a time. Empty when no rung down to `floor`
 * passes, and also when kMaxRungs rungs above `from` all pass.
 */
std::optional<int> searchRung(double base, double step, int from,
                              int stride, double floor,
                              const std::function<bool(double)> &meets);

/**
 * Share of the round trip no layer accounts for:
 * (total - sum(parts)) / total; 0 for a zero total.
 */
double residualShare(double total, const std::vector<double> &parts);

} // namespace tierbench

#endif // TIERBENCH_LOADGEN_HH
