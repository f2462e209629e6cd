#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "obs/metrics.hpp"

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
hostStealMs()
{
    // cpu  user nice system idle iowait irq softirq steal ...
    std::ifstream stat("/proc/stat");
    std::string cpu;
    uint64_t field[8] = {};
    stat >> cpu;
    for (uint64_t &f : field)
        stat >> f;
    if (!stat || cpu != "cpu")
        return 0;
    return static_cast<double>(field[7]) * 1000.0 /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

void
sleepUntilNs(uint64_t due_ns)
{
    // steady_clock is CLOCK_MONOTONIC on Linux, so an absolute sleep
    // on that clock wakes at the stamp nowNs() compares against.
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(due_ns / 1000000000ULL);
    ts.tv_nsec = static_cast<long>(due_ns % 1000000000ULL);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                           nullptr) != 0) {
    }
}

double
quantile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(values, 0.5);
}

Counters
readCounters()
{
    const st::obs::MetricsSnapshot snap =
        st::obs::MetricsRegistry::instance().snapshot();
    Counters out;
    for (const auto &c : snap.counters)
        out[c.name] += c.value;
    for (const auto &g : snap.gauges)
        out[g.name] = g.value;
    return out;
}

uint64_t
counterDelta(const Counters &before, const Counters &after,
             const std::string &name)
{
    const auto a = after.find(name);
    if (a == after.end())
        return 0;
    const auto b = before.find(name);
    const uint64_t base = b == before.end() ? 0 : b->second;
    return a->second >= base ? a->second - base : 0;
}

void
SpanLog::add(Span span)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxSpans)
        ++dropped_;
    else
        spans_.push_back(std::move(span));
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path + ".tmp");
    if (!out)
        return false;
    const uint64_t origin =
        spans_.empty() ? 0
                       : std::min_element(spans_.begin(), spans_.end(),
                                          [](const Span &a,
                                             const Span &b) {
                                              return a.startNs <
                                                     b.startNs;
                                          })
                             ->startNs;
    out << "{\"displayTimeUnit\":\"ns\",\"dropped\":" << dropped_
        << ",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (i)
            out << ",\n";
        out << "{\"name\":" << jsonString(s.name)
            << ",\"cat\":" << jsonString(s.layer)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << jsonString(s.layer)
            << ",\"ts\":"
            << jsonNumber(static_cast<double>(s.startNs - origin) /
                          1000.0)
            << ",\"dur\":"
            << jsonNumber(static_cast<double>(s.endNs - s.startNs) /
                          1000.0)
            << ",\"args\":{\"items\":[";
        for (size_t k = 0; k < s.items.size(); ++k)
            out << (k ? "," : "") << "[" << s.items[k].first << ","
                << s.items[k].second << "]";
        out << "]}}";
    }
    out << "]}\n";
    out.close();
    return out && std::rename((path + ".tmp").c_str(), path.c_str()) ==
                      0;
}

TimingModel::TimingModel(std::shared_ptr<st::serve::ServeModel> inner,
                         SpanLog &spans, std::string layer)
    : inner_(std::move(inner)), spans_(spans), layer_(std::move(layer))
{
}

std::vector<std::string>
TimingModel::processBatch(std::span<const st::serve::BatchItem> items,
                          size_t nthreads)
{
    const uint64_t t0 = nowNs();
    std::vector<std::string> out = inner_->processBatch(items, nthreads);
    const uint64_t t1 = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.calls;
        stats_.items += items.size();
        stats_.busyNs += t1 - t0;
        stats_.callUs.push_back(static_cast<double>(t1 - t0) / 1000.0);
    }
    if (spans_.enabled()) {
        Span span;
        span.name = "model.process_batch";
        span.layer = layer_;
        span.startNs = t0;
        span.endNs = t1;
        span.items.reserve(items.size());
        for (const st::serve::BatchItem &item : items)
            span.items.emplace_back(item.session, item.seq);
        spans_.add(std::move(span));
    }
    return out;
}

TimingModel::Stats
TimingModel::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

TimingModel::Stats
statsDelta(const TimingModel::Stats &before,
           const TimingModel::Stats &after)
{
    TimingModel::Stats d;
    d.calls = after.calls - before.calls;
    d.items = after.items - before.items;
    d.busyNs = after.busyNs - before.busyNs;
    d.callUs.assign(after.callUs.begin() +
                        static_cast<std::ptrdiff_t>(before.callUs.size()),
                    after.callUs.end());
    return d;
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    for (auto &e : entries_) {
        if (e.first == name) {
            e.second = {value, unit};
            return;
        }
    }
    entries_.push_back({name, {value, unit}});
}

double
MetricSet::value(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e.first == name)
            return e.second.first;
    return 0;
}

std::string
MetricSet::toJson() const
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
        const auto &e = entries_[i];
        os << (i ? ", " : "") << jsonString(e.first)
           << ": {\"value\": " << jsonNumber(e.second.first)
           << ", \"unit\": " << jsonString(e.second.second) << "}";
    }
    os << "}";
    return os.str();
}

std::string
jsonNumber(double v)
{
    // A non-finite value is a measurement bug; null makes the result
    // unusable instead of silently plausible.
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench
