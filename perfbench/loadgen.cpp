#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

namespace {

bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

uint64_t
parseU64(std::string_view s, size_t pos, size_t *end)
{
    uint64_t v = 0;
    size_t i = pos;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9')
        v = v * 10 + static_cast<uint64_t>(s[i++] - '0');
    if (end)
        *end = i;
    return v;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

} // namespace

void
judgePhase(PhaseResult &r)
{
    std::vector<double> all = r.latencyMs;
    r.p50Ms = quantile(all, 0.50);
    r.p90Ms = quantile(all, 0.90);
    r.p99Ms = quantile(all, 0.99);
    std::vector<double> lag = r.lagMs;
    r.lagP99Ms = quantile(lag, 0.99);

    uint64_t in_limit = 0;
    for (double ms : r.latencyMs)
        in_limit += ms <= r.limitMs;
    // Undelivered volleys carry at least twice the limit, so every
    // volley within it was delivered.
    r.late = r.delivered - in_limit;

    const double budget = r.spec.rate * r.limitMs / 1000.0;
    const std::vector<uint64_t> &o = r.outstanding;
    r.backlogGrowing = false;
    if (o.size() >= 2) {
        const size_t half = o.size() / 2;
        const uint64_t first_max =
            *std::max_element(o.begin(), o.begin() + half);
        r.backlogGrowing =
            std::all_of(o.begin() + half, o.end(),
                        [&](uint64_t v) {
                            return static_cast<double>(v) > 2.0 * budget;
                        }) &&
            o.back() > first_max;
    }
    const bool none_failed =
        r.shed + r.deadline + r.poisoned + r.lost == 0;
    r.meetsLimit = r.offered > 0 && none_failed &&
                   r.p99Ms <= r.limitMs && !r.backlogGrowing;
    r.goodputVps = r.spec.seconds > 0
                       ? static_cast<double>(in_limit) / r.spec.seconds
                       : 0;
}

PhaseResult
mergePhases(const std::vector<PhaseResult> &parts)
{
    PhaseResult m;
    m.spec = parts.front().spec;
    m.spec.seconds = 0;
    m.limitMs = parts.front().limitMs;
    for (const PhaseResult &p : parts) {
        m.spec.seconds += p.spec.seconds;
        m.offered += p.offered;
        m.delivered += p.delivered;
        m.shed += p.shed;
        m.deadline += p.deadline;
        m.poisoned += p.poisoned;
        m.lost += p.lost;
        m.stealMs += p.stealMs;
        m.latencyMs.insert(m.latencyMs.end(), p.latencyMs.begin(),
                           p.latencyMs.end());
        m.dueNs.insert(m.dueNs.end(), p.dueNs.begin(), p.dueNs.end());
        m.lagMs.insert(m.lagMs.end(), p.lagMs.begin(), p.lagMs.end());
    }
    m.outstanding = parts.back().outstanding;
    judgePhase(m);
    return m;
}

std::vector<PhaseResult>
leastDelayed(const std::vector<PhaseResult> &segments, size_t keep)
{
    std::vector<size_t> order(segments.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const auto undelivered = [](const PhaseResult &r) {
        return r.shed + r.deadline + r.poisoned + r.lost;
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const PhaseResult &x = segments[a], &y = segments[b];
        if ((undelivered(x) == 0) != (undelivered(y) == 0))
            return undelivered(x) == 0;
        return x.p99Ms != y.p99Ms ? x.p99Ms < y.p99Ms : x.p50Ms < y.p50Ms;
    });
    order.resize(std::min(keep, order.size()));
    std::sort(order.begin(), order.end());
    std::vector<PhaseResult> out;
    for (size_t i : order)
        out.push_back(segments[i]);
    return out;
}

double
ladderGoodput(const std::vector<PhaseResult> &rungs)
{
    double passed = 0;
    bool any_passed = false;
    for (const PhaseResult &r : rungs) {
        if (r.meetsLimit) {
            passed = std::max(passed, r.goodputVps);
            any_passed = true;
        }
    }
    if (any_passed || rungs.empty())
        return passed;
    const auto lowest = std::min_element(
        rungs.begin(), rungs.end(),
        [](const PhaseResult &a, const PhaseResult &b) {
            return a.spec.rate < b.spec.rate;
        });
    return lowest->goodputVps;
}

uint64_t
payloadHash(std::string_view payload)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : payload) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

OpenLoopClient::OpenLoopClient(const Options &options)
    : options_(options), tracks_(options.sessions)
{
}

OpenLoopClient::~OpenLoopClient()
{
    stop_.store(true, std::memory_order_release);
    if (receiver_.joinable())
        receiver_.join();
    for (Track &t : tracks_)
        if (t.fd >= 0)
            ::close(t.fd);
}

std::vector<double>
OpenLoopClient::connect()
{
    std::vector<double> connect_ms;
    for (size_t s = 0; s < tracks_.size(); ++s) {
        const uint64_t t0 = nowNs();
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error(std::string("socket: ") +
                                     std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(options_.port);
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            const std::string why = std::strerror(errno);
            ::close(fd);
            throw std::runtime_error("connect: " + why);
        }
        std::lock_guard<std::mutex> lock(mutex_);
        Track &t = tracks_[s];
        t.fd = fd;
        const std::string hello =
            "stserve 1\naddresses " + std::to_string(options_.width) +
            " window " + std::to_string(kWindow) + " deadline_ms " +
            std::to_string(kDeadlineMs) + "\n";
        if (!writeAll(fd, hello))
            throw std::runtime_error("hello write failed");
        // The admission reply is read here, on the caller; the
        // receiver thread starts once every session is open.
        struct pollfd pfd = {fd, POLLIN, 0};
        const uint64_t give_up = t0 + 10000000000ULL;
        while (!t.ok && !t.closed && nowNs() < give_up) {
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            char buf[4096];
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0)
                break;
            consume(s, buf, static_cast<size_t>(n), nowNs());
        }
        if (!t.ok)
            throw std::runtime_error(
                "session " + std::to_string(s) + " not admitted: " +
                (firstError_.empty() ? "no reply" : firstError_));
        connect_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    receiver_ = std::thread([this] { receiverLoop(); });
    return connect_ms;
}

st::Volley
OpenLoopClient::draw(uint64_t seq, uint64_t rnd, std::string *wire) const
{
    // Volley seq occupies the AER window [seq * W, (seq + 1) * W):
    // 1-4 events, times nondecreasing, then a flush seals it. The
    // volley mirrors the session's framing rule: the first event on an
    // address sets its time.
    const uint64_t base = seq * kWindow;
    st::Rng rng(rnd);
    const size_t events = 1 + rng.below(4);
    std::vector<std::pair<uint64_t, uint64_t>> ev(events);
    for (auto &e : ev)
        e = {rng.below(kWindow), rng.below(options_.width)};
    std::sort(ev.begin(), ev.end());
    st::Volley v(options_.width, st::INF);
    for (const auto &[rel, addr] : ev) {
        if (v[addr].isInf())
            v[addr] = st::Time(rel);
        if (wire) {
            *wire += std::to_string(base + rel);
            *wire += ' ';
            *wire += std::to_string(addr);
            *wire += '\n';
        }
    }
    if (wire)
        *wire += "flush\n";
    return v;
}

st::Volley
OpenLoopClient::volley(size_t s, uint64_t seq) const
{
    return draw(seq, tracks_[s].rnd[seq], nullptr);
}

PhaseResult
OpenLoopClient::run(const PhaseSpec &spec, double limit_ms,
                    double drain_s)
{
    PhaseResult r;
    r.spec = spec;
    r.limitMs = limit_ms;

    // The schedule: seeded Poisson arrivals, each sent to a uniformly
    // drawn session. Built, with every wire line rendered, before the
    // clock starts, so the send loop does no generation work.
    st::Rng rng(options_.seed * 0x9E3779B97F4A7C15ULL ^
                std::hash<std::string>{}(spec.name));
    struct Arrival
    {
        uint64_t offNs;
        size_t session;
        uint64_t seq;
    };
    std::vector<Arrival> arrivals;
    std::vector<std::string> wire;
    const double horizon_ns = spec.seconds * 1e9;
    uint64_t answered0 = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        answered0 = answered_;
        double t = 0;
        while (true) {
            t += -std::log(1.0 - rng.uniform()) / spec.rate * 1e9;
            if (t >= horizon_ns)
                break;
            const size_t s = rng.below(tracks_.size());
            Track &tr = tracks_[s];
            const uint64_t seq = tr.rnd.size();
            arrivals.push_back({static_cast<uint64_t>(t), s, seq});
            tr.rnd.push_back(rng.next());
            wire.emplace_back();
            draw(seq, tr.rnd.back(), &wire.back());
            tr.dueNs.push_back(0);
            tr.recvNs.push_back(0);
            tr.payloadHash.push_back(0);
            // A session the server closed in an earlier phase answers
            // nothing; its share of this schedule is lost up front.
            tr.outcome.push_back(tr.closed ? Outcome::Lost
                                           : Outcome::Pending);
            answered_ += tr.closed;
        }
    }
    r.offered = arrivals.size();

    // Fine-grained wake-ups for the send loop (the default 50 us timer
    // slack would add that much to every sleep).
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const double steal0 = hostStealMs();
    const uint64_t start = nowNs() + 2000000; // 2 ms lead
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Arrival &a : arrivals)
            tracks_[a.session].dueNs[a.seq] = start + a.offNs;
    }

    r.lagMs.reserve(arrivals.size());
    std::vector<std::string> out(tracks_.size());
    const auto sample_at = [&](size_t k) {
        return start + static_cast<uint64_t>(
                           horizon_ns * static_cast<double>(k + 1) /
                           static_cast<double>(kBacklogSamples));
    };
    const auto take_sample = [&](size_t sent) {
        std::lock_guard<std::mutex> lock(mutex_);
        const uint64_t got = answered_ - answered0;
        r.outstanding.push_back(sent > got ? sent - got : 0);
    };
    // A write fails only on a session the server has closed, whose
    // volleys the receiver counts lost; anything else is caught as an
    // unanswered volley by the drain.
    size_t i = 0;
    while (i < arrivals.size()) {
        const uint64_t due = start + arrivals[i].offNs;
        uint64_t now = nowNs();
        if (now < due) {
            sleepUntilNs(due);
            now = nowNs();
        }
        while (r.outstanding.size() + 1 < kBacklogSamples &&
               now >= sample_at(r.outstanding.size()))
            take_sample(i);
        // Everything due by now goes out in this pass, one write per
        // session.
        while (i < arrivals.size() && start + arrivals[i].offNs <= now) {
            const Arrival &a = arrivals[i];
            out[a.session] += wire[i];
            r.lagMs.push_back(
                static_cast<double>(now - (start + a.offNs)) / 1e6);
            ++i;
        }
        for (size_t s = 0; s < out.size(); ++s) {
            if (out[s].empty())
                continue;
            writeAll(tracks_[s].fd, out[s]);
            out[s].clear();
        }
    }
    while (r.outstanding.size() < kBacklogSamples)
        take_sample(arrivals.size());
    wire = {};

    uint64_t give_up = 0;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait_for(
            lock,
            std::chrono::milliseconds(
                static_cast<int64_t>(drain_s * 1000.0)),
            [&] { return answered_ - answered0 >= arrivals.size(); });
        give_up = nowNs();
        r.stealMs = hostStealMs() - steal0;
        r.latencyMs.reserve(arrivals.size());
        r.dueNs.reserve(arrivals.size());
        for (const Arrival &a : arrivals) {
            const Track &tr = tracks_[a.session];
            const uint64_t due = tr.dueNs[a.seq];
            r.dueNs.push_back(due);
            switch (tr.outcome[a.seq]) {
              case Outcome::Delivered:
                ++r.delivered;
                r.latencyMs.push_back(
                    static_cast<double>(tr.recvNs[a.seq] - due) / 1e6);
                continue;
              case Outcome::Shed:
                ++r.shed;
                break;
              case Outcome::Deadline:
                ++r.deadline;
                break;
              case Outcome::Poisoned:
                ++r.poisoned;
                break;
              case Outcome::Lost:
              case Outcome::Pending:
                ++r.lost;
                break;
            }
            r.latencyMs.push_back(
                std::max(static_cast<double>(give_up - due) / 1e6,
                         2.0 * limit_ms));
        }
    }
    if (options_.spans && options_.spans->enabled()) {
        // One volley in kSpanSample gets a client span; every model
        // call keeps its own, listing all of its volleys.
        constexpr uint64_t kSpanSample = 8;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Arrival &a : arrivals) {
            if (a.seq % kSpanSample != 0)
                continue;
            const Track &tr = tracks_[a.session];
            Span span;
            span.name = "client.volley";
            span.layer = "client";
            span.startNs = tr.dueNs[a.seq];
            span.endNs = tr.outcome[a.seq] == Outcome::Delivered
                             ? tr.recvNs[a.seq]
                             : give_up;
            span.items.emplace_back(tr.serverId, a.seq);
            options_.spans->add(std::move(span));
        }
    }
    judgePhase(r);
    return r;
}

bool
OpenLoopClient::finish(std::string &why)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Track &t : tracks_) {
            if (t.fd >= 0 && !t.closed && !writeAll(t.fd, "end\n")) {
                why = "end write failed";
                return false;
            }
        }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    const bool ended =
        changed_.wait_for(lock, std::chrono::seconds(30), [&] {
            return std::all_of(tracks_.begin(), tracks_.end(),
                               [](const Track &t) {
                                   return t.ended || t.closed;
                               });
        });
    if (!ended) {
        why = "a session did not send its end line";
        return false;
    }
    for (size_t s = 0; s < tracks_.size(); ++s) {
        const Track &t = tracks_[s];
        if (t.closed && !t.ended)
            continue;
        uint64_t delivered = 0, dropped = 0;
        for (Outcome o : t.outcome) {
            delivered += o == Outcome::Delivered;
            dropped += o == Outcome::Shed || o == Outcome::Deadline ||
                       o == Outcome::Poisoned;
        }
        if (t.endVolleys != delivered || t.endDrops != dropped ||
            delivered + dropped != t.rnd.size()) {
            why = "session " + std::to_string(s) + ": offered " +
                  std::to_string(t.rnd.size()) + ", client saw " +
                  std::to_string(delivered) + " delivered + " +
                  std::to_string(dropped) + " dropped, server says " +
                  std::to_string(t.endVolleys) + " + " +
                  std::to_string(t.endDrops);
            return false;
        }
    }
    return true;
}

OpenLoopClient::Tally
OpenLoopClient::tally() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tally out;
    for (const Track &t : tracks_) {
        out.offered += t.rnd.size();
        for (Outcome o : t.outcome) {
            out.delivered += o == Outcome::Delivered;
            out.shed += o == Outcome::Shed;
            out.deadline += o == Outcome::Deadline;
            out.poisoned += o == Outcome::Poisoned;
            out.lost += o == Outcome::Lost || o == Outcome::Pending;
        }
        out.closed += t.closed;
        out.egressStalled += t.egressStalled;
    }
    out.notes = notes_;
    return out;
}

std::string
OpenLoopClient::firstError() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return firstError_;
}

void
OpenLoopClient::handleLine(size_t s, std::string_view line, uint64_t now)
{
    // Caller holds mutex_.
    Track &t = tracks_[s];
    if (startsWith(line, "volley ")) {
        size_t end = 0;
        const uint64_t seq = parseU64(line, 7, &end);
        if (seq < t.outcome.size() && t.outcome[seq] == Outcome::Pending) {
            t.recvNs[seq] = now;
            t.outcome[seq] = Outcome::Delivered;
            t.payloadHash[seq] = payloadHash(
                end < line.size() ? line.substr(end + 1) : "");
            ++answered_;
        }
    } else if (startsWith(line, "drop ")) {
        size_t end = 0;
        const uint64_t seq = parseU64(line, 5, &end);
        if (seq < t.outcome.size() && t.outcome[seq] == Outcome::Pending) {
            const std::string_view why =
                end < line.size() ? line.substr(end + 1) : "";
            t.outcome[seq] = why == "shed"       ? Outcome::Shed
                             : why == "deadline" ? Outcome::Deadline
                                                 : Outcome::Poisoned;
            t.recvNs[seq] = now;
            ++answered_;
        }
    } else if (startsWith(line, "stserve-ok session ")) {
        t.serverId = parseU64(line, 19, nullptr);
        t.ok = true;
    } else if (startsWith(line, "end volleys ")) {
        size_t end = 0;
        t.endVolleys = parseU64(line, 12, &end);
        const size_t drops = line.find("drops ", end);
        t.endDrops = drops == std::string_view::npos
                         ? 0
                         : parseU64(line, drops + 6, nullptr);
        t.ended = true;
    } else if (startsWith(line, "note ")) {
        ++notes_;
    } else if (startsWith(line, "err ") || startsWith(line, "busy ")) {
        // `busy` refuses admission; `err` is the session's terminal
        // line (quarantine or a server-side close). Either way it will
        // answer no more volleys.
        if (firstError_.empty())
            firstError_ = std::string(line);
        t.egressStalled = t.egressStalled ||
                          line.find("egress stalled") != std::string::npos;
        closeTrack(s);
    }
}

void
OpenLoopClient::closeTrack(size_t s)
{
    // Caller holds mutex_.
    Track &t = tracks_[s];
    if (t.closed)
        return;
    t.closed = true;
    for (Outcome &o : t.outcome) {
        if (o == Outcome::Pending) {
            o = Outcome::Lost;
            ++answered_;
        }
    }
}

void
OpenLoopClient::consume(size_t s, const char *data, size_t n, uint64_t now)
{
    // Caller holds mutex_.
    Track &t = tracks_[s];
    t.inbuf.append(data, n);
    const std::string_view buf = t.inbuf;
    size_t pos = 0;
    for (size_t nl; (nl = buf.find('\n', pos)) != std::string_view::npos;
         pos = nl + 1)
        handleLine(s, buf.substr(pos, nl - pos), now);
    t.inbuf.erase(0, pos);
}

void
OpenLoopClient::receiverLoop()
{
    std::vector<struct pollfd> pfds;
    for (const Track &t : tracks_)
        pfds.push_back({t.fd, POLLIN, 0});
    char buf[65536];
    while (!stop_.load(std::memory_order_acquire)) {
        if (::poll(pfds.data(), pfds.size(), 20) <= 0)
            continue;
        for (size_t s = 0; s < pfds.size(); ++s) {
            if (!(pfds[s].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t n = ::read(pfds[s].fd, buf, sizeof(buf));
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
            if (n <= 0) {
                pfds[s].fd = -1; // closed: poll skips negative fds
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    if (!tracks_[s].ended)
                        closeTrack(s);
                }
                changed_.notify_all();
                continue;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                consume(s, buf, static_cast<size_t>(n), nowNs());
            }
            changed_.notify_all();
        }
    }
}

} // namespace perfbench
