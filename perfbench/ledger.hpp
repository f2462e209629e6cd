/**
 * @file
 * The benchmark's measurement ledger: clocks, order statistics,
 * obs-counter deltas, in-memory spans, and the timing ServeModel
 * decorator that times the model layer from outside src/.
 *
 * Everything here observes the engines through their public entry
 * points; nothing is compiled into the libraries under test.
 */

#ifndef PERFBENCH_LEDGER_HPP
#define PERFBENCH_LEDGER_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/model.hpp"

namespace perfbench {

/** Nanoseconds on the steady clock (the clock every stamp uses). */
uint64_t nowNs();

/**
 * Time the hypervisor ran something else while this machine's CPUs had
 * work (the steal column of /proc/stat, all CPUs), in ms since boot;
 * 0 where the kernel does not report it. Resolution is one clock tick
 * (10 ms at the usual USER_HZ of 100).
 */
double hostStealMs();

/** Sleep until the steady clock reads @p due_ns. */
void sleepUntilNs(uint64_t due_ns);

/**
 * Quantile @p q of @p values by linear interpolation between order
 * statistics (0 for an empty sample). Sorts @p values in place.
 */
double quantile(std::vector<double> &values, double q);

/** Median of @p values (sorts a copy). */
double median(std::vector<double> values);

/** Counter and gauge values of the process-wide obs registry. */
using Counters = std::map<std::string, uint64_t>;

/** Snapshot every counter and gauge of obs::MetricsRegistry. */
Counters readCounters();

/** @p name in @p after minus @p name in @p before (0 if absent). */
uint64_t counterDelta(const Counters &before, const Counters &after,
                      const std::string &name);

/** One recorded span: a timed call into one layer. */
struct Span
{
    std::string name;
    std::string layer;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    /** (session, seq) ids of the volleys the span handled: a client
     *  volley span and the model call that served it share the id. */
    std::vector<std::pair<uint64_t, uint64_t>> items;
};

/**
 * In-memory span store for the traced run, written once at the end.
 * Disabled stores drop every record, so untraced runs pay one branch.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** True while spans are being kept. */
    bool enabled() const { return enabled_ && recording_.load(); }

    /** Pause or resume recording (an untraced store stays off). */
    void setRecording(bool on) { recording_.store(on); }

    /** Store @p span (counted as dropped once the store is full). */
    void add(Span span);

    /** Write the spans as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    static constexpr size_t kMaxSpans = 300000;

    const bool enabled_;
    std::atomic<bool> recording_{true};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/**
 * ServeModel decorator that times every processBatch call from the
 * outside: busy time, items and per-call durations, plus one span per
 * call listing its items' (session, seq) when the span log is on.
 * Runs on the server's single batcher thread; readers call stats()
 * between phases, under the same mutex.
 */
class TimingModel : public st::serve::ServeModel
{
  public:
    TimingModel(std::shared_ptr<st::serve::ServeModel> inner,
                SpanLog &spans, std::string layer);

    size_t numInputs() const override { return inner_->numInputs(); }
    std::string name() const override { return inner_->name(); }
    bool transactional() const override
    {
        return inner_->transactional();
    }
    void endSession(uint64_t session) override
    {
        inner_->endSession(session);
    }
    std::vector<std::string>
    processBatch(std::span<const st::serve::BatchItem> items,
                 size_t nthreads) override;

    /** Totals since construction. */
    struct Stats
    {
        uint64_t calls = 0;
        uint64_t items = 0;
        uint64_t busyNs = 0;
        std::vector<double> callUs; //!< one entry per call
    };
    Stats stats() const;

  private:
    std::shared_ptr<st::serve::ServeModel> inner_;
    SpanLog &spans_;
    const std::string layer_;
    mutable std::mutex mutex_;
    Stats stats_;
};

/** Difference of two TimingModel::Stats snapshots (later - earlier). */
TimingModel::Stats statsDelta(const TimingModel::Stats &before,
                              const TimingModel::Stats &after);

/** An ordered name -> (value, unit) metric set. */
class MetricSet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** The value of @p name (0 if it was never set). */
    double value(const std::string &name) const;
    const std::vector<std::pair<std::string,
                                std::pair<double, std::string>>> &
    entries() const
    {
        return entries_;
    }

    /** `{"name": {"value": v, "unit": "u"}, ...}` */
    std::string toJson() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        entries_;
};

/** JSON number text for @p v with full precision (non-finite ->
 *  `null`, which no reader takes for a measurement). */
std::string jsonNumber(double v);

/** Minimal JSON string quoting. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HPP
