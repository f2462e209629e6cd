/**
 * @file
 * Open-loop AER load generator over loopback TCP.
 *
 * Volleys arrive on a seeded Poisson schedule at a fixed aggregate
 * rate, spread uniformly at random over the sessions, and are sent
 * when due whether or not earlier ones were answered. Latency runs
 * from a volley's *intended* send time to the receipt of its result
 * line, so a server stall is charged to every volley scheduled during
 * it (no coordinated omission). The generator uses two threads: the
 * caller sends, one receiver thread polls every connection.
 */

#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "tnn/volley.hpp"

namespace perfbench {

/** AER window of every served stream (the server's default). */
inline constexpr uint64_t kWindow = 16;

/**
 * Deadline every session asks for. Late volleys are judged against the
 * workload's own limit; the server's 1 s default would turn an
 * overloaded ladder rung into deadline drops instead of latency.
 */
inline constexpr uint64_t kDeadlineMs = 60000;

/** Unanswered-volley samples taken across each phase's schedule. */
inline constexpr size_t kBacklogSamples = 8;

/** One open-loop phase: a fixed aggregate arrival rate for a time. */
struct PhaseSpec
{
    std::string name;
    double rate = 0;    //!< volleys per second, all sessions together
    double seconds = 0; //!< length of the arrival schedule
};

/** How a volley's story ended, as the client saw it. */
enum class Outcome : uint8_t
{
    Pending,
    Delivered,
    Shed,
    Deadline,
    Poisoned,
    Lost, //!< its session was closed by the server before an answer
};

/** Client-side tallies and latency statistics of one phase. */
struct PhaseResult
{
    PhaseSpec spec;
    double limitMs = 0;

    uint64_t offered = 0;
    uint64_t delivered = 0;
    uint64_t shed = 0;
    uint64_t deadline = 0;
    uint64_t poisoned = 0;
    uint64_t lost = 0; //!< session closed, or no answer by the drain
    uint64_t late = 0; //!< delivered, but past the latency limit

    /** Per offered volley: intended send -> result received. A volley
     *  that was not delivered counts with the time the drain gave up
     *  (at least twice the limit), so it misses the limit. */
    std::vector<double> latencyMs;
    std::vector<uint64_t> dueNs; //!< intended send time, same order
    std::vector<double> lagMs;   //!< actual - intended send, same order
    double p50Ms = 0;    //!< over every offered volley of the phase
    double p90Ms = 0;    //!< over every offered volley of the phase
    double p99Ms = 0;    //!< over every offered volley of the phase
    double lagP99Ms = 0; //!< how late the sender ran (p99)
    /** Host steal (hostStealMs()) from schedule start to drain end. */
    double stealMs = 0;

    /** Unanswered volleys at each k/kBacklogSamples of the schedule. */
    std::vector<uint64_t> outstanding;
    bool backlogGrowing = false;
    bool meetsLimit = false;
    /** Volleys delivered within the limit per scheduled second. */
    double goodputVps = 0;
};

/**
 * Decide a phase's verdict: the whole-phase p99 within the limit
 * (sender lag is already inside it), nothing dropped or lost, and no
 * growing backlog. The backlog grows when each of the last half of
 * the outstanding samples exceeds twice the volleys the limit allows
 * in flight (rate x limit) and the last one exceeds every sample of
 * the first half; a single host hiccup lifts a sample or two, a
 * server past its capacity lifts them all. Fills the percentile,
 * verdict and goodput fields of @p r.
 */
void judgePhase(PhaseResult &r);

/**
 * One phase out of @p parts (segments of one rate run apart in time):
 * tallies summed, per-volley series concatenated in order, judged
 * again. The backlog samples are the last part's.
 */
PhaseResult mergePhases(const std::vector<PhaseResult> &parts);

/**
 * The @p keep segments of one rate that read the lowest p99 (ties
 * broken by p50), in their original order. A segment that dropped or
 * lost a volley ranks after every segment that did not.
 *
 * On a shared virtual machine the host disturbs the program in bursts:
 * the hypervisor takes a vCPU from a server thread for several ms, or
 * wakes threads late for about a second, and a segment that caught one
 * reads a p99 several times that of its neighbours. Segments of one
 * rate are spread over the whole serving window, so the best of them
 * are the ones no burst reached. A delay inside the program that
 * recurs in every segment (a missed batcher wake-up each second, a
 * slower model) stays in the kept ones; one that reaches fewer than
 * `segments - keep` of them shows only in the per-segment phase lines.
 */
std::vector<PhaseResult> leastDelayed(const std::vector<PhaseResult> &segments,
                                      size_t keep);

/**
 * Highest goodput among rungs that met the limit. When none did, the
 * lowest rung's goodput: the volleys it served within the limit per
 * second, which is below that rung's rate, so a latency regression
 * that fails every rung reads as a goodput loss.
 */
double ladderGoodput(const std::vector<PhaseResult> &rungs);

/** 64-bit FNV-1a of a payload (the client keeps hashes, not text). */
uint64_t payloadHash(std::string_view payload);

/** The open-loop TCP client driving one StreamServer. */
class OpenLoopClient
{
  public:
    struct Options
    {
        uint16_t port = 0;
        size_t sessions = 1;
        size_t width = 16;       //!< addresses per volley
        uint64_t seed = 1;
        SpanLog *spans = nullptr;
    };

    explicit OpenLoopClient(const Options &options);
    ~OpenLoopClient();

    OpenLoopClient(const OpenLoopClient &) = delete;
    OpenLoopClient &operator=(const OpenLoopClient &) = delete;

    /**
     * Open every session (connect, hello, config) one after another
     * and wait for its `stserve-ok`. Returns each session's connect
     * time in ms. Throws std::runtime_error on a refusal or timeout.
     */
    std::vector<double> connect();

    /**
     * Run one phase: build its schedule (before the clock starts),
     * send on schedule, then wait up to @p drain_s for every volley
     * to be answered.
     */
    PhaseResult run(const PhaseSpec &spec, double limit_ms,
                    double drain_s);

    /**
     * Send `end` on every open session and wait for the `end volleys
     * <n> drops <m>` lines. False (with @p why) when a session does not
     * end cleanly or its counts disagree with the client's tallies. A
     * session the server closed is not waited for; its unanswered
     * volleys are already counted lost.
     */
    bool finish(std::string &why);

    /** Session-level tallies across every phase so far. */
    struct Tally
    {
        uint64_t offered = 0;
        uint64_t delivered = 0;
        uint64_t shed = 0;
        uint64_t deadline = 0;
        uint64_t poisoned = 0;
        uint64_t lost = 0;
        uint64_t notes = 0;
        /** Sessions closed by an `err` line or end of stream. */
        uint64_t closed = 0;
        /** Of those, sessions the server closed on an egress stall. */
        uint64_t egressStalled = 0;
    };
    Tally tally() const;

    size_t sessions() const { return tracks_.size(); }
    /** Server-assigned id of session @p s (from `stserve-ok`). */
    uint64_t serverId(size_t s) const { return tracks_[s].serverId; }
    /** Volleys sent so far on session @p s. */
    size_t sent(size_t s) const { return tracks_[s].rnd.size(); }
    /** The volley sent as @p seq on session @p s (regenerated). */
    st::Volley volley(size_t s, uint64_t seq) const;
    Outcome outcome(size_t s, uint64_t seq) const
    {
        return tracks_[s].outcome[seq];
    }
    uint64_t payloadHashOf(size_t s, uint64_t seq) const
    {
        return tracks_[s].payloadHash[seq];
    }
    /** Text of the first `err` line seen, if any. */
    std::string firstError() const;

  private:
    struct Track
    {
        int fd = -1;
        uint64_t serverId = 0;
        bool ok = false;
        bool ended = false;
        bool closed = false; //!< `err` line or end of stream seen
        bool egressStalled = false;
        uint64_t endVolleys = 0;
        uint64_t endDrops = 0;
        std::string inbuf;
        std::vector<uint64_t> rnd; //!< seed each volley is drawn from
        std::vector<uint64_t> dueNs;
        std::vector<uint64_t> recvNs;
        std::vector<Outcome> outcome;
        std::vector<uint64_t> payloadHash;
    };

    /** The volley and wire text of (@p seq, @p rnd). */
    st::Volley draw(uint64_t seq, uint64_t rnd, std::string *wire) const;
    void receiverLoop();
    /** Mark track @p s closed and its unanswered volleys lost. */
    void closeTrack(size_t s);
    void handleLine(size_t s, std::string_view line, uint64_t now);
    void consume(size_t s, const char *data, size_t n, uint64_t now);

    Options options_;
    std::vector<Track> tracks_;

    mutable std::mutex mutex_; //!< guards tracks_ contents
    std::condition_variable changed_;
    uint64_t answered_ = 0; //!< volley + drop lines received
    uint64_t notes_ = 0;
    std::string firstError_;

    std::atomic<bool> stop_{false};
    std::thread receiver_;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
