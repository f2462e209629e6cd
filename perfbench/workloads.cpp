#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/eval_plan.hpp"
#include "core/network.hpp"
#include "grl/event_sim.hpp"
#include "grl/parallel_sim.hpp"
#include "grl/sheet.hpp"
#include "model/serialize.hpp"
#include "neuron/response.hpp"
#include "neuron/srm0_network.hpp"
#include "serve/latency.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "tnn/datasets.hpp"
#include "tnn/stdp.hpp"
#include "tnn/tnn_network.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using st::Network;
using st::NodeId;
using st::TnnNetwork;
using st::Volley;

namespace {

/** Share of a pass each phase gets (the ladder's is split by rung). */
constexpr double kLightShare = 0.20;
constexpr double kBusyShare = 0.20;
constexpr double kLadderShare = 0.36;
constexpr double kEngineShare = 0.08; // each of plan, grl, stdp

/**
 * The serving window runs as kRounds rounds, each on its own serving
 * stack: kSegments / kRounds light and busy segments, alternating, then
 * one climb of the ladder. Light and busy report the kKeptSegments of
 * each with the lowest p99 (see leastDelayed()); each ladder rung is
 * judged on its try with the lowest p99 over the climbs.
 */
constexpr size_t kRounds = 4;
constexpr size_t kSegments = 32;
constexpr size_t kKeptSegments = 4;
static_assert(kSegments % kRounds == 0);

/** Set-ups per pass; setup_s is their median. */
constexpr size_t kSetupReps = 25;

/** Engine job sizes: volleys per evaluateBatch, sheet volleys per GRL
 *  job, samples per STDP epoch, and the cortical sheet (100k gates). */
constexpr size_t kPlanBatch = 4096;
constexpr size_t kGrlVolleys = 16;
constexpr size_t kStdpSamples = 1024;
constexpr size_t kSheetRows = 4;
constexpr size_t kSheetCols = 50;
constexpr size_t kSheetNeurons = 4;

/** How long a phase may take to drain after its last arrival. */
constexpr double kDrainSeconds = 10;

double
msBetween(uint64_t t0, uint64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e6;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** A two-layer WTA TNN: lines -> neurons (k = 4) -> lines (k = 1). */
TnnNetwork
wtaTnn(size_t lines, size_t neurons)
{
    TnnNetwork net;
    st::ColumnParams l0;
    l0.numInputs = lines;
    l0.numNeurons = neurons;
    l0.wtaK = 4;
    l0.seed = 7;
    net.addLayer(l0);
    st::ColumnParams l1;
    l1.numInputs = neurons;
    l1.numNeurons = lines;
    l1.wtaK = 1;
    l1.seed = 11;
    net.addLayer(l1);
    return net;
}

/** A deep s-t network: @p levels rotating min/max/lt/inc layers. */
Network
deepNetwork(size_t inputs, size_t levels)
{
    Network net(inputs);
    std::vector<NodeId> layer;
    for (size_t i = 0; i < inputs; ++i)
        layer.push_back(net.input(i));
    for (size_t l = 0; l < levels; ++l) {
        std::vector<NodeId> next;
        next.reserve(layer.size());
        for (size_t i = 0; i < layer.size(); ++i) {
            const NodeId a = layer[i];
            const NodeId b = layer[(i + 1) % layer.size()];
            switch ((l + i) % 4) {
              case 0:
                next.push_back(net.min(a, b));
                break;
              case 1:
                next.push_back(net.max(a, b));
                break;
              case 2:
                next.push_back(net.lt(a, b));
                break;
              default:
                next.push_back(net.inc(a, 1 + (i % 3)));
                break;
            }
        }
        layer = std::move(next);
    }
    // Every last-level node is an output, so no level is dead code.
    for (NodeId n : layer)
        net.markOutput(n);
    return net;
}

/** Fig. 12 SRM0 neuron: biexponential synapses, 1 in 4 inhibitory. */
Network
srm0Network(size_t synapses)
{
    std::vector<st::ResponseFunction> syn;
    for (size_t i = 0; i < synapses; ++i) {
        if (i % 4 == 3)
            syn.push_back(st::ResponseFunction::biexponential(2, 4.0, 1.0)
                              .negated());
        else
            syn.push_back(st::ResponseFunction::biexponential(3, 4.0, 1.0));
    }
    return st::buildSrm0Network(
        syn, static_cast<st::ResponseFunction::Amp>(synapses));
}

size_t
servingWidth(const WorkloadConfig &cfg)
{
    return cfg.model == "plan" ? cfg.planInputs : 16;
}

std::string
modelPath(const WorkloadConfig &cfg)
{
    return cfg.outDir + "/" + cfg.name + ".stmf";
}

/** The daemon's serving stack plus the client driving it. */
struct ServingStack
{
    std::shared_ptr<TimingModel> timing; //!< traced passes only
    std::unique_ptr<st::serve::StreamServer> server;
    std::unique_ptr<st::serve::TcpTransport> tcp;
    std::unique_ptr<OpenLoopClient> client;

    ServingStack() = default;
    ServingStack(const ServingStack &) = delete;
    ServingStack &operator=(const ServingStack &) = delete;

    ~ServingStack()
    {
        client.reset(); // closes the sockets: an implicit `end` each
        if (server)
            server->requestStop();
        if (tcp)
            tcp->stop();
        if (server)
            server->waitDrained(5000);
        tcp.reset();
        server.reset();
    }
};

struct SetupTimes
{
    double totalS = 0;
    double loadMs = 0;
    std::vector<double> connectMs;
};

/**
 * The daemon's load path: STMF file -> loadModel -> makeServeModel ->
 * StreamServer -> TcpTransport, then every session admitted.
 */
std::unique_ptr<ServingStack>
setUpServing(const WorkloadConfig &cfg, SpanLog &spans, SetupTimes &t)
{
    auto stack = std::make_unique<ServingStack>();
    const uint64_t t0 = nowNs();
    st::model::LoadedModel loaded;
    const st::Status status = st::model::loadModel(
        modelPath(cfg), st::model::LoadMode::Mmap, loaded);
    if (!status.isOk())
        throw std::runtime_error("loadModel: " + status.str());
    const uint64_t t1 = nowNs();
    std::shared_ptr<st::serve::ServeModel> model =
        st::serve::makeServeModel(loaded);
    if (spans.enabled()) {
        stack->timing = std::make_shared<TimingModel>(
            model, spans, cfg.model == "plan" ? "core" : "tnn");
        model = stack->timing;
    }
    // The daemon's defaults but for the fixed lane count.
    st::serve::ServeConfig config;
    config.nthreads = cfg.lanes;
    stack->server = std::make_unique<st::serve::StreamServer>(
        model, loaded.info, config);
    stack->server->start();
    stack->tcp = std::make_unique<st::serve::TcpTransport>(
        *stack->server, static_cast<uint16_t>(0));
    stack->tcp->serveAsync();
    const uint64_t t2 = nowNs();
    OpenLoopClient::Options opt;
    opt.port = stack->tcp->port();
    opt.sessions = cfg.sessions;
    opt.width = servingWidth(cfg);
    opt.seed = cfg.seed;
    opt.spans = &spans;
    stack->client = std::make_unique<OpenLoopClient>(opt);
    t.connectMs = stack->client->connect();
    const uint64_t t3 = nowNs();
    t.totalS = static_cast<double>(t3 - t0) / 1e9;
    t.loadMs = msBetween(t0, t1);
    if (spans.enabled()) {
        spans.add({"model.load", "model", t0, t1, {}});
        spans.add({"serve.start", "serve.server", t1, t2, {}});
        spans.add({"transport.connect", "serve.transport", t2, t3, {}});
    }
    return stack;
}

/** Add the stage histograms recorded between snapshots @p a and @p b. */
void
addStages(st::serve::LatencySnapshot &acc,
          const st::serve::LatencySnapshot &a,
          const st::serve::LatencySnapshot &b)
{
    for (size_t s = 0; s < st::serve::kStageCount; ++s) {
        auto &d = acc.stages[s];
        d.count += b.stages[s].count - a.stages[s].count;
        d.sum += b.stages[s].sum - a.stages[s].sum;
        for (size_t i = 0; i < d.buckets.size(); ++i)
            d.buckets[i] += b.stages[s].buckets[i] - a.stages[s].buckets[i];
    }
}

size_t
stageIndex(const char *name)
{
    for (size_t i = 0; i < st::serve::kStageCount; ++i)
        if (std::string(st::serve::stageName(i)) == name)
            return i;
    throw std::logic_error(std::string("no latency stage ") + name);
}

uint64_t
jsonField(const std::string &json, const std::string &key)
{
    const size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

std::string
phaseLine(const PhaseResult &r)
{
    std::ostringstream os;
    os << "phase " << r.spec.name << " rate=" << r.spec.rate
       << "/s seconds=" << r.spec.seconds << " offered=" << r.offered
       << " delivered=" << r.delivered << " shed=" << r.shed
       << " deadline=" << r.deadline << " poisoned=" << r.poisoned
       << " refused_or_lost=" << r.lost << " late=" << r.late
       << " p50_ms=" << r.p50Ms << " p90_ms=" << r.p90Ms
       << " p99_ms=" << r.p99Ms
       << " lag_p99_ms=" << r.lagP99Ms << " steal_ms=" << r.stealMs
       << " backlog=";
    for (size_t k = 0; k < r.outstanding.size(); ++k)
        os << (k ? "," : "") << r.outstanding[k];
    os << " meets_limit="
       << (r.meetsLimit ? "yes" : "no");
    return os.str();
}

bool
sameSim(const st::grl::SimResult &a, const st::grl::SimResult &b)
{
    return a.fallTime == b.fallTime && a.outputs == b.outputs &&
           a.gateTransitions == b.gateTransitions &&
           a.ltOutputTransitions == b.ltOutputTransitions &&
           a.ltLatchTransitions == b.ltLatchTransitions &&
           a.flopDataTransitions == b.flopDataTransitions &&
           a.inputTransitions == b.inputTransitions &&
           a.cyclesSimulated == b.cyclesSimulated &&
           a.fallenLines == b.fallenLines &&
           a.flopZeroBits == b.flopZeroBits &&
           a.latchesCaptured == b.latchesCaptured;
}

/**
 * Every delivered payload against a second, copying load of the same
 * STMF file, evaluated outside the server.
 */
void
checkPayloads(const WorkloadConfig &cfg, const OpenLoopClient &client,
              PassResult &out)
{
    st::model::LoadedModel second;
    const st::Status status = st::model::loadModel(
        modelPath(cfg), st::model::LoadMode::Copy, second);
    if (!status.isOk()) {
        out.failures.push_back("oracle load: " + status.str());
        return;
    }
    struct Ref
    {
        size_t session;
        uint64_t seq;
    };
    std::vector<Ref> refs;
    for (size_t s = 0; s < client.sessions(); ++s)
        for (uint64_t q = 0; q < client.sent(s); ++q)
            if (client.outcome(s, q) == Outcome::Delivered)
                refs.push_back({s, q});
    constexpr size_t kPerTask = 512;
    const size_t tasks = (refs.size() + kPerTask - 1) / kPerTask;
    std::mutex mutex;
    uint64_t mismatches = 0;
    std::string first;
    st::ThreadPool::shared().parallelFor(0, tasks, 1, [&](size_t c) {
        std::unique_ptr<st::serve::ServeModel> oracle =
            st::serve::makeServeModel(second);
        std::vector<st::serve::BatchItem> items;
        const size_t lo = c * kPerTask;
        const size_t hi = std::min(refs.size(), lo + kPerTask);
        for (size_t i = lo; i < hi; ++i) {
            st::serve::BatchItem item;
            item.session = client.serverId(refs[i].session);
            item.seq = refs[i].seq;
            item.volley = client.volley(refs[i].session, refs[i].seq);
            items.push_back(std::move(item));
        }
        const std::vector<std::string> want =
            oracle->processBatch(items, 1);
        for (size_t i = lo; i < hi; ++i) {
            if (client.payloadHashOf(refs[i].session, refs[i].seq) !=
                payloadHash(want[i - lo])) {
                std::lock_guard<std::mutex> lock(mutex);
                if (mismatches++ == 0)
                    first = "session " + std::to_string(refs[i].session) +
                            " seq " + std::to_string(refs[i].seq) +
                            ": served payload != oracle '" +
                            want[i - lo] + "'";
            }
        }
    });
    if (mismatches > 0)
        out.failures.push_back(std::to_string(mismatches) +
                               " payload mismatches; first: " + first);
    out.log.push_back("check payloads: " + std::to_string(refs.size()) +
                      " delivered volleys vs a second (copy) load, " +
                      std::to_string(mismatches) + " mismatches");
}

/**
 * End every session of @p client and check its accounting: the
 * client's tallies against the server's own counters moved since
 * @p c0, then every delivered payload. A session the server closed on
 * an egress stall is a program failure the run reports (its volleys
 * count lost), not a benchmark fault; the volleys it took in but never
 * answered leave the in/out counts unmatched, so the server's
 * force-close count is checked then.
 */
void
closeOut(const WorkloadConfig &cfg, OpenLoopClient &client,
         const Counters &c0, const std::string &what, PassResult &out)
{
    std::string why;
    if (!client.finish(why))
        out.failures.push_back(what + " accounting: " + why);
    const Counters c1 = readCounters();
    const OpenLoopClient::Tally tally = client.tally();
    if (ST_OBS_ENABLED) {
        const uint64_t in = counterDelta(c0, c1, "serve.volleys.in");
        const uint64_t outv = counterDelta(c0, c1, "serve.volleys.out");
        const uint64_t shed = counterDelta(c0, c1, "serve.shed.volleys");
        const uint64_t dl =
            counterDelta(c0, c1, "serve.deadline_missed.volleys");
        const uint64_t forced =
            counterDelta(c0, c1, "serve.sessions.force_closed");
        const bool agree =
            tally.closed == 0
                ? outv == tally.delivered && shed == tally.shed &&
                      dl == tally.deadline && in + shed == tally.offered
                : forced == tally.egressStalled &&
                      outv >= tally.delivered;
        if (!agree)
            out.failures.push_back(
                what + ": server counters disagree with the client: in=" +
                std::to_string(in) + " out=" + std::to_string(outv) +
                " shed=" + std::to_string(shed) +
                " deadline=" + std::to_string(dl) +
                " force_closed=" + std::to_string(forced) +
                " vs offered=" + std::to_string(tally.offered) +
                " delivered=" + std::to_string(tally.delivered) +
                " sessions closed=" + std::to_string(tally.closed));
    }
    if (tally.closed != tally.egressStalled)
        out.failures.push_back(what + ": server error line: " +
                               client.firstError());
    if (tally.egressStalled > 0)
        out.log.push_back(
            "FAILED: " + what + ": the server closed " +
            std::to_string(tally.egressStalled) +
            " session(s) on an egress stall (" + client.firstError() +
            "); " + std::to_string(tally.lost) + " volleys lost");
    out.log.push_back(
        "accounting " + what + ": offered=" +
        std::to_string(tally.offered) +
        " delivered=" + std::to_string(tally.delivered) +
        " shed=" + std::to_string(tally.shed) +
        " deadline=" + std::to_string(tally.deadline) +
        " poisoned=" + std::to_string(tally.poisoned) +
        " lost=" + std::to_string(tally.lost) +
        " notes=" + std::to_string(tally.notes));
    checkPayloads(cfg, client, out);
}

/**
 * One climb of the rate ladder on @p client, one try per rung, until
 * the server is past its knee: two rungs in a row miss the limit, once
 * some rung has passed or the rate is at least the busy rate. A host
 * hiccup can fail any one try (a growing backlog included), far below
 * the knee too. Appends each try to @p rung_tries and returns the
 * volleys the climb did not deliver.
 */
uint64_t
climb(const WorkloadConfig &cfg, OpenLoopClient &client, size_t round,
      double seconds, std::vector<std::vector<PhaseResult>> &rung_tries,
      PassResult &out)
{
    const double try_s = seconds * kLadderShare /
                         static_cast<double>(cfg.ladder.size() * kRounds);
    // Whatever happens, a climb (drains included) ends within three
    // times its share of the pass.
    const uint64_t end_ns =
        nowNs() + static_cast<uint64_t>(3 * seconds * kLadderShare /
                                        kRounds * 1e9);
    uint64_t undelivered = 0;
    size_t misses = 0;
    bool passed = false;
    for (size_t i = 0; i < cfg.ladder.size(); ++i) {
        const double rate = cfg.ladder[i];
        PhaseResult r = client.run(
            {"ladder@" + std::to_string(static_cast<uint64_t>(rate)) + "#" +
                 std::to_string(round),
             rate, try_s},
            cfg.limitMs, kDrainSeconds);
        out.log.push_back(phaseLine(r));
        undelivered += r.shed + r.deadline + r.poisoned + r.lost;
        passed = passed || r.meetsLimit;
        misses = r.meetsLimit ? 0 : misses + 1;
        // A session the server closed stays closed: no later try of
        // this climb could pass.
        const bool end = r.lost > 0 || nowNs() > end_ns ||
                         (misses >= 2 && (passed || rate >= cfg.busyRate));
        rung_tries[i].push_back(std::move(r));
        if (end)
            break;
    }
    return undelivered;
}

/**
 * Judge each rung on its try with the lowest p99 over the climbs and
 * report goodput_vps. The climbs ran on different set-ups spread over
 * the serving window: on a shared host the knee of one set-up differs
 * from the next by up to 2x, and a loaded stretch of the host fails
 * the climbs inside it, not the rung.
 *
 * The ladder is not counted in attempted and failed: its rungs past
 * the knee are meant to overload the server, and a try that drops or
 * loses a volley misses the limit, which is what goodput_vps reports.
 */
void
judgeLadder(const WorkloadConfig &cfg,
            const std::vector<std::vector<PhaseResult>> &rung_tries,
            uint64_t undelivered, PassResult &out)
{
    std::vector<PhaseResult> rungs;
    for (size_t i = 0; i < cfg.ladder.size(); ++i) {
        if (rung_tries[i].empty())
            continue;
        rungs.push_back(leastDelayed(rung_tries[i], 1).front());
        rungs.back().spec.name =
            "ladder@" + std::to_string(static_cast<uint64_t>(cfg.ladder[i]));
        out.log.push_back(phaseLine(rungs.back()));
    }
    out.log.push_back("ladder: " + std::to_string(undelivered) +
                      " volleys not delivered over every climb");
    out.endToEnd.set("goodput_vps", ladderGoodput(rungs), "1/s");
    if (!rungs.empty() && rungs.back().meetsLimit)
        out.log.push_back("ladder: every rung met the limit; the knee "
                          "is above the ladder's top");
}

/** Serving part of a pass: setup reps, light, busy, ladder. */
void
runServing(const WorkloadConfig &cfg, double seconds, SpanLog &spans,
           PassResult &out, double &setup_s)
{
    // Set up several times and keep the last stack; the median of
    // the set-up times is the reported figure.
    std::vector<double> setups, loads, connects;
    std::unique_ptr<ServingStack> stack;
    for (size_t r = 0; r < kSetupReps; ++r) {
        stack.reset();
        SetupTimes t;
        stack = setUpServing(cfg, spans, t);
        setups.push_back(t.totalS);
        loads.push_back(t.loadMs);
        connects.insert(connects.end(), t.connectMs.begin(),
                        t.connectMs.end());
    }
    setup_s = median(setups);
    out.perLayer.set("model.load_ms", median(loads), "ms");
    out.perLayer.set("transport.connect_ms", median(connects), "ms");

    const size_t total = stageIndex("total");
    const size_t queue = stageIndex("queue");
    const size_t batch = stageIndex("batch");
    const size_t egress = stageIndex("egress");

    // Light and busy alternate in kSegments segments each, so both
    // sample the whole serving window instead of one stretch of it,
    // and a ladder climb ends each round, so the climbs are spread over
    // the window too. Each round after the first sets up a fresh stack.
    // The per-layer inputs are summed over every busy segment, and a
    // traced pass keeps spans of the busy segments and the engines.
    const auto modelStats = [&] {
        return stack->timing ? stack->timing->stats()
                             : TimingModel::Stats{};
    };
    std::vector<PhaseResult> lights, busies;
    st::serve::LatencySnapshot lightStages, busyStages;
    Counters moved;
    TimingModel::Stats m;
    uint64_t busy_ns = 0;
    uint64_t ingress_hwm = 0, egress_hwm = 0;
    std::vector<std::vector<PhaseResult>> rung_tries(cfg.ladder.size());
    uint64_t ladder_undelivered = 0;
    for (size_t round = 0; round < kRounds; ++round) {
        if (round > 0) {
            stack.reset();
            SetupTimes t;
            stack = setUpServing(cfg, spans, t);
        }
        st::serve::StreamServer &server = *stack->server;
        OpenLoopClient &client = *stack->client;
        const Counters c0 = readCounters();
        for (size_t k = round * kSegments / kRounds;
             k < (round + 1) * kSegments / kRounds; ++k) {
            const std::string seg = "#" + std::to_string(k);
            const auto l0 = server.latencySnapshot();
            spans.setRecording(false);
            lights.push_back(client.run(
                {"light" + seg, cfg.lightRate,
                 seconds * kLightShare / kSegments},
                cfg.limitMs, kDrainSeconds));
            spans.setRecording(true);
            const auto l1 = server.latencySnapshot();
            const Counters b0 = readCounters();
            const TimingModel::Stats m0 = modelStats();
            const uint64_t t0 = nowNs();
            busies.push_back(client.run(
                {"busy" + seg, cfg.busyRate,
                 seconds * kBusyShare / kSegments},
                cfg.limitMs, kDrainSeconds));
            busy_ns += nowNs() - t0;
            const auto l2 = server.latencySnapshot();
            const Counters b1 = readCounters();
            const TimingModel::Stats d = statsDelta(m0, modelStats());
            addStages(lightStages, l0, l1);
            addStages(busyStages, l1, l2);
            for (const auto &entry : b1)
                moved[entry.first] += counterDelta(b0, b1, entry.first);
            m.calls += d.calls;
            m.items += d.items;
            m.busyNs += d.busyNs;
            m.callUs.insert(m.callUs.end(), d.callUs.begin(),
                            d.callUs.end());
        }
        const std::string health = server.healthJson();
        ingress_hwm =
            std::max(ingress_hwm, jsonField(health, "ingress_highwater"));
        egress_hwm =
            std::max(egress_hwm, jsonField(health, "egress_highwater"));
        // Read before the first climb: overloaded rungs would make the
        // peak depend on how far the ladder climbed.
        if (round == 0)
            out.endToEnd.set("peak_rss_mb", peakRssMb(), "MB");
        spans.setRecording(false);
        ladder_undelivered +=
            climb(cfg, client, round, seconds, rung_tries, out);
        spans.setRecording(true);
        closeOut(cfg, client, c0, "round " + std::to_string(round), out);
    }
    // The end-to-end figures come from the kept segments; per-layer
    // ratios divide counters summed over every segment, so they use
    // every segment too.
    const PhaseResult lightAll = mergePhases(lights);
    const PhaseResult busyAll = mergePhases(busies);
    PhaseResult light = mergePhases(leastDelayed(lights, kKeptSegments));
    PhaseResult busy = mergePhases(leastDelayed(busies, kKeptSegments));
    const std::string kept = " (least delayed " +
                             std::to_string(kKeptSegments) + " of " +
                             std::to_string(kSegments) + ")";
    light.spec.name = "light" + kept;
    busy.spec.name = "busy" + kept;
    const auto busyCount = [&](const std::string &name) {
        const auto it = moved.find(name);
        return it == moved.end() ? 0.0 : static_cast<double>(it->second);
    };

    // Every light and busy segment counts toward attempted and failed;
    // the kept ones give the figures. Their rates sit below the knee,
    // so every volley there should be answered.
    uint64_t offered = 0, failed = 0;
    for (const auto *part : {&lights, &busies}) {
        for (const PhaseResult &r : *part) {
            out.log.push_back(phaseLine(r));
            offered += r.offered;
            failed += r.shed + r.deadline + r.poisoned + r.lost;
        }
    }
    out.attempted += offered;
    out.failed += failed;
    out.log.push_back(phaseLine(light));
    out.log.push_back(phaseLine(busy));
    out.log.push_back("light/busy failed_share=" +
                      std::to_string(ratio(static_cast<double>(failed),
                                           static_cast<double>(offered))));
    out.endToEnd.set("light_p50_ms", light.p50Ms, "ms");
    out.endToEnd.set("light_p99_ms", light.p99Ms, "ms");
    out.endToEnd.set("busy_p50_ms", busy.p50Ms, "ms");
    out.endToEnd.set("busy_p90_ms", busy.p90Ms, "ms");

    // Per-layer: server stages over the busy phase, the residual the
    // server's own stamps do not see, and the model layer. Residuals
    // use whole-phase client percentiles, like the server's own.
    out.perLayer.set("transport.residual_p50_us",
                     lightAll.p50Ms * 1000.0 -
                         lightStages.stages[total].percentile(0.50),
                     "us");
    out.perLayer.set("transport.residual_p99_us",
                     busyAll.p99Ms * 1000.0 -
                         busyStages.stages[total].percentile(0.99),
                     "us");
    out.perLayer.set("server.queue_p50_us",
                     busyStages.stages[queue].percentile(0.50), "us");
    out.perLayer.set("server.queue_p99_us",
                     busyStages.stages[queue].percentile(0.99), "us");
    out.perLayer.set("server.batch_p50_us",
                     busyStages.stages[batch].percentile(0.50), "us");
    out.perLayer.set("server.egress_p50_us",
                     busyStages.stages[egress].percentile(0.50), "us");
    out.perLayer.set("server.egress_p99_us",
                     busyStages.stages[egress].percentile(0.99), "us");
    out.perLayer.set("server.batch_items_mean",
                     ratio(busyCount("serve.volleys.out"),
                           busyCount("serve.batches")),
                     "count");
    out.perLayer.set("server.ingress_hwm",
                     static_cast<double>(ingress_hwm),
                     "count");
    out.perLayer.set("server.egress_hwm",
                     static_cast<double>(egress_hwm),
                     "count");
    out.perLayer.set("loadgen.lag_p99_ms", busyAll.lagP99Ms, "ms");

    std::vector<double> calls = m.callUs;
    const double busy_wall = static_cast<double>(busy_ns);
    const double model_ns = static_cast<double>(m.busyNs);
    out.perLayer.set("model.busy_frac", ratio(model_ns, busy_wall),
                     "ratio");
    out.perLayer.set("model.call_p50_us", quantile(calls, 0.50), "us");
    out.perLayer.set("model.call_p99_us", quantile(calls, 0.99), "us");
    out.perLayer.set("model.ns_per_volley",
                     ratio(model_ns, static_cast<double>(m.items)), "ns");
    out.perLayer.set("tnn.ns_per_spike",
                     ratio(model_ns, busyCount("tnn.spikes")), "ns");
    out.perLayer.set("core.ns_per_instr",
                     ratio(model_ns, busyCount("eval.run.instructions")),
                     "ns");
    const double pool_calls = static_cast<double>(m.calls);
    out.perLayer.set("pool.busy_frac",
                     ratio(busyCount("pool.busy_ns"),
                           busy_wall * static_cast<double>(cfg.lanes)),
                     "ratio");
    out.perLayer.set("pool.tasks_per_call",
                     ratio(busyCount("pool.tasks") +
                               busyCount("pool.graph.tasks"),
                           pool_calls),
                     "count");
    out.perLayer.set("pool.steals", busyCount("pool.steals"), "count");
    out.perLayer.set("pool.parks_per_call",
                     ratio(busyCount("pool.parks"), pool_calls), "count");
    out.perLayer.set(
        "serve.events_per_volley",
        ratio(busyCount(cfg.model == "plan" ? "eval.run.instructions"
                                            : "tnn.spikes"),
              static_cast<double>(busyAll.delivered)),
        "count");

    judgeLadder(cfg, rung_tries, ladder_undelivered, out);
}

/** One engine's job times and the obs counters its jobs moved. */
struct EngineLedger
{
    std::vector<double> jobNs;
    Counters moved;

    template <typename Job>
    void
    time(Job &&job)
    {
        const Counters before = readCounters();
        const uint64_t t0 = nowNs();
        job();
        const uint64_t t1 = nowNs();
        const Counters after = readCounters();
        jobNs.push_back(static_cast<double>(t1 - t0));
        for (const auto &entry : after)
            moved[entry.first] +=
                counterDelta(before, after, entry.first);
    }

    /**
     * The fastest-decile job time. Time stolen by the host or by the
     * other phases' threads only ever slows a job, so the fast tail is
     * the repeatable estimate of the engine's own speed; a slower
     * engine slows every job, this decile included.
     */
    double
    fastNs() const
    {
        std::vector<double> t = jobNs;
        return quantile(t, 0.10);
    }

    double
    count(const std::string &name) const
    {
        const auto it = moved.find(name);
        return it == moved.end() ? 0 : static_cast<double>(it->second);
    }
};

/**
 * Offline engine part of a pass: plan, GRL and STDP jobs, interleaved
 * round-robin so each engine samples the whole engine window.
 */
void
runEngines(const WorkloadConfig &cfg, double seconds, SpanLog &spans,
           PassResult &out, double &setup_s)
{
    const size_t lanes = cfg.lanes;
    st::grl::SheetParams sp;
    sp.rows = kSheetRows;
    sp.cols = kSheetCols;
    sp.neurons = kSheetNeurons;
    sp.synapses = 3;
    sp.interDelay = 4;
    sp.seed = 99;

    // Set-up: build + compile the SRM0 network, build the sheet and
    // the STDP network, several times; keep the last.
    std::vector<double> setups, compiles;
    Network net(0);
    std::optional<st::grl::Sheet> sheet;
    TnnNetwork stdpBase;
    for (size_t r = 0; r < kSetupReps; ++r) {
        const uint64_t t0 = nowNs();
        net = srm0Network(cfg.srm0Synapses);
        const uint64_t t1 = nowNs();
        // buildEvalPlan is the uncached compile; the network may have
        // compiled its own plan while being built.
        const st::EvalPlan plan = st::buildEvalPlan(net);
        const uint64_t t2 = nowNs();
        net.compile();
        sheet.emplace(st::grl::buildCorticalSheet(sp));
        stdpBase = wtaTnn(cfg.stdpLines, cfg.stdpNeurons);
        const uint64_t t3 = nowNs();
        setups.push_back(static_cast<double>(t3 - t0) / 1e9);
        compiles.push_back(msBetween(t1, t2));
        if (spans.enabled() && r + 1 == kSetupReps)
            spans.add({"core.compile", "core", t1, t2, {}});
    }
    setup_s = median(setups);
    out.perLayer.set("core.compile_ms", median(compiles), "ms");

    // Inputs, serial references and one untimed warm-up per engine.
    st::Rng rng(cfg.seed * 7919 + 17);
    std::vector<std::vector<st::Time>> batch(kPlanBatch);
    for (auto &v : batch) {
        v.resize(net.numInputs());
        for (st::Time &t : v)
            t = rng.chance(0.2) ? st::INF : st::Time(rng.below(10));
    }
    std::vector<std::vector<st::Time>> planOut =
        net.evaluateBatch(batch, lanes);

    const st::grl::Circuit &circuit = sheet->circuit;
    std::vector<std::vector<st::Time>> xs;
    std::vector<st::grl::SimResult> serial;
    for (size_t k = 0; k < kGrlVolleys; ++k) {
        xs.push_back(st::grl::sheetInputVolley(*sheet, cfg.seed * 1000 + k));
        serial.push_back(st::grl::simulateEvents(circuit, xs.back()));
    }
    st::grl::ParallelSimOptions opts;
    opts.partitions = lanes;
    opts.threads = lanes;
    std::vector<st::grl::SimResult> par(xs.size());
    for (size_t k = 0; k < xs.size(); ++k)
        par[k] = st::grl::simulateEventsParallel(circuit, xs[k], 0, opts);

    st::PatternSetParams dp;
    dp.numClasses = 8;
    dp.numLines = cfg.stdpLines;
    dp.seed = cfg.seed;
    st::PatternDataset data(dp);
    std::vector<Volley> samples;
    for (const auto &s : data.sampleMany(kStdpSamples))
        samples.push_back(s.volley);
    const st::SimplifiedStdp rule(0.06, 0.045);
    TnnNetwork reference = stdpBase;
    reference.trainLayerBatched(0, samples, rule, 1, 1);
    TnnNetwork trained = stdpBase;
    trained.trainLayerBatched(0, samples, rule, 1, lanes);

    // The timed window: plan, grl, stdp jobs in turn. GRL keeps one
    // ledger per volley and times each volley's fastest decile on its
    // own: a 16-volley job would be as slow as whichever of its volleys
    // a host burst hit, and the sum over volleys still covers all.
    EngineLedger plan, stdp;
    std::vector<EngineLedger> grl(xs.size());
    const uint64_t w0 = nowNs();
    const uint64_t end =
        w0 + static_cast<uint64_t>(seconds * 3 * kEngineShare * 1e9);
    do {
        plan.time([&] {
            const uint64_t t0 = nowNs();
            planOut = net.evaluateBatch(batch, lanes);
            if (spans.enabled())
                spans.add({"core.evaluate_batch", "core", t0, nowNs(), {}});
        });
        for (size_t k = 0; k < xs.size(); ++k) {
            grl[k].time([&] {
                const uint64_t t0 = nowNs();
                par[k] = st::grl::simulateEventsParallel(circuit, xs[k], 0,
                                                         opts);
                if (spans.enabled())
                    spans.add({"grl.simulate_parallel", "grl", t0, nowNs(),
                               {}});
            });
        }
        // The copy is outside the timed call; training mutates it.
        TnnNetwork job = stdpBase;
        stdp.time([&] {
            const uint64_t t0 = nowNs();
            job.trainLayerBatched(0, samples, rule, 1, lanes);
            if (spans.enabled())
                spans.add({"tnn.train_layer_batched", "tnn", t0, nowNs(),
                           {}});
        });
        trained = std::move(job);
    } while (nowNs() < end || plan.jobNs.size() < 10);
    const uint64_t w1 = nowNs();
    const double jobs = static_cast<double>(plan.jobNs.size());
    out.attempted += plan.jobNs.size() *
                     (batch.size() + xs.size() + samples.size());

    // --- plan: Network::evaluateBatch through the host's block body.
    const double plan_ns = plan.fastNs();
    const double volleys = static_cast<double>(batch.size());
    const double instrs = static_cast<double>(net.compile().live.size());
    out.perLayer.set("core.ns_per_volley", plan_ns / volleys, "ns");
    out.perLayer.set("core.block_ns_per_instr",
                     plan_ns / (instrs * volleys), "ns");
    const double simd = plan.count("eval.block.avx512") +
                        plan.count("eval.block.avx2") +
                        plan.count("eval.block.neon");
    const double blocks = simd + plan.count("eval.block.scalar") +
                          plan.count("eval.block.tail");
    out.perLayer.set("core.simd_block_frac", ratio(simd, blocks), "ratio");
    size_t plan_bad = 0;
    for (size_t k = 0; k < 256; ++k) {
        const size_t i = rng.below(batch.size());
        plan_bad += planOut[i] != net.evaluateInterpreted(batch[i]);
    }
    if (plan_bad > 0)
        out.failures.push_back("plan: " + std::to_string(plan_bad) +
                               "/256 sampled outputs differ from the "
                               "interpreter");
    out.log.push_back("phase plan: srm0 synapses=" +
                      std::to_string(cfg.srm0Synapses) + " nodes=" +
                      std::to_string(net.size()) + " live_instrs=" +
                      std::to_string(static_cast<uint64_t>(instrs)) +
                      " batch=" + std::to_string(batch.size()) +
                      " jobs=" + std::to_string(plan.jobNs.size()) +
                      " body=" + st::evalSimdBodyName() +
                      " interpreter_check=" +
                      std::to_string(256 - plan_bad) + "/256");

    // --- grl: simulateEventsParallel on the cortical sheet.
    double grl_ns = 0; // every volley once
    for (const EngineLedger &g : grl)
        grl_ns += g.fastNs();
    const auto grlCount = [&](const std::string &name) {
        double n = 0;
        for (const EngineLedger &g : grl)
            n += g.count(name);
        return n;
    };
    const double fired = grlCount("grl.events.fired");
    const double grl_volleys = jobs * static_cast<double>(xs.size());
    out.perLayer.set("grl.ns_per_event", ratio(grl_ns, fired / jobs), "ns");
    out.perLayer.set("grl.par.busy_frac",
                     ratio(grlCount("grl.par.busy_ns"),
                           grlCount("grl.par.wall_ns") *
                               static_cast<double>(lanes)),
                     "ratio");
    out.perLayer.set("grl.par.windows_per_volley",
                     ratio(grlCount("grl.par.windows"), grl_volleys),
                     "count");
    out.perLayer.set("grl.par.boundary_event_frac",
                     ratio(grlCount("grl.par.boundary_events"), fired),
                     "ratio");
    size_t grl_bad = 0;
    for (size_t k = 0; k < xs.size(); ++k)
        grl_bad += !sameSim(par[k], serial[k]);
    if (grl_bad > 0)
        out.failures.push_back("grl: " + std::to_string(grl_bad) +
                               " parallel results differ from serial "
                               "simulateEvents");
    out.grlEventsPerVolley = ratio(fired, grl_volleys);
    out.log.push_back("phase grl: sheet " + std::to_string(sp.rows) + "x" +
                      std::to_string(sp.cols) + "x" +
                      std::to_string(sp.neurons) + " gates=" +
                      std::to_string(circuit.size()) + " volleys/job=" +
                      std::to_string(xs.size()) + " jobs=" +
                      std::to_string(grl.front().jobNs.size()) + " events/volley=" +
                      std::to_string(ratio(fired, grl_volleys)) +
                      " serial_identical=" +
                      std::to_string(xs.size() - grl_bad) + "/" +
                      std::to_string(xs.size()));

    // --- stdp: TnnNetwork::trainLayerBatched, layer 0, one epoch.
    const double stdp_ns = stdp.fastNs();
    out.perLayer.set("tnn.stdp_ns_per_sample",
                     stdp_ns / static_cast<double>(samples.size()), "ns");
    out.perLayer.set("tnn.weight_updates_per_sample",
                     ratio(stdp.count("tnn.weight_updates"),
                           stdp.count("tnn.train_samples")),
                     "count");
    size_t stdp_bad = 0;
    for (size_t n = 0; n < cfg.stdpNeurons; ++n)
        stdp_bad += trained.layer(0).weights(n) !=
                    reference.layer(0).weights(n);
    if (stdp_bad > 0)
        out.failures.push_back("stdp: " + std::to_string(stdp_bad) +
                               " neurons' weights differ from a 1-thread "
                               "trainLayerBatched");
    out.log.push_back("phase stdp: layer " + std::to_string(cfg.stdpLines) +
                      "->" + std::to_string(cfg.stdpNeurons) + " samples=" +
                      std::to_string(samples.size()) + " jobs=" +
                      std::to_string(stdp.jobNs.size()) +
                      " weights_identical=" +
                      std::to_string(cfg.stdpNeurons - stdp_bad) + "/" +
                      std::to_string(cfg.stdpNeurons));

    // --- pool: the shared lanes across all three engines.
    const auto pool = [&](const std::string &name) {
        return plan.count(name) + grlCount(name) + stdp.count(name);
    };
    const double calls = jobs * static_cast<double>(2 + xs.size());
    out.perLayer.set("pool.engines.busy_frac",
                     ratio(pool("pool.busy_ns"),
                           static_cast<double>(w1 - w0) *
                               static_cast<double>(lanes)),
                     "ratio");
    out.perLayer.set(
        "pool.engines.tasks_per_call",
        ratio(pool("pool.tasks") + pool("pool.graph.tasks"), calls),
        "count");
    out.perLayer.set("pool.engines.steals", pool("pool.steals"), "count");
    out.perLayer.set("pool.engines.parks_per_call",
                     ratio(pool("pool.parks"), calls), "count");

    out.endToEnd.set("plan_vps", volleys / (plan_ns / 1e9), "1/s");
    out.endToEnd.set("grl_vps",
                     static_cast<double>(xs.size()) / (grl_ns / 1e9), "1/s");
    out.endToEnd.set("stdp_vps",
                     static_cast<double>(samples.size()) / (stdp_ns / 1e9),
                     "1/s");
}

} // namespace

WorkloadConfig
workloadConfig(const std::string &name)
{
    WorkloadConfig c;
    c.name = name;
    if (name == "serve_fanin") {
        c.model = "tnn";
        c.sessions = 4;
        c.lightRate = 10000;
        c.busyRate = 30000;
        c.ladder = {10000,  20000,  40000,  55000,  70000,
                    85000,  100000, 110000, 120000, 130000,
                    140000, 170000, 200000, 280000, 500000};
        c.limitMs = 10;
        c.srm0Synapses = 16;
        c.stdpLines = 16;
        c.stdpNeurons = 48;
    } else if (name == "serve_plan_single") {
        c.model = "plan";
        c.sessions = 1;
        c.lightRate = 1500;
        c.busyRate = 3500;
        c.ladder = {1000,  2000,  3000,  4000,  5000,  6000,
                    7000,  8000,  9000,  10000, 11000, 12000,
                    13000, 14000, 16000, 20000, 30000};
        c.limitMs = 25;
        c.planInputs = 64;
        c.planLevels = 800;
        c.srm0Synapses = 32;
        c.stdpLines = 48;
        c.stdpNeurons = 96;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return c;
}

void
packServingModel(const WorkloadConfig &cfg)
{
    const std::string path = modelPath(cfg);
    st::model::PackOptions opt;
    opt.id = cfg.name;
    opt.version = 1;
    st::Status status;
    if (cfg.model == "plan")
        status = st::model::packNetwork(
            deepNetwork(cfg.planInputs, cfg.planLevels), path, opt);
    else if (cfg.model == "tnn")
        status = st::model::packTnn(wtaTnn(16, 48), path, opt);
    else
        throw std::invalid_argument("unknown model '" + cfg.model + "'");
    if (!status.isOk())
        throw std::runtime_error("pack " + path + ": " + status.str());
}

PassResult
runPass(const WorkloadConfig &cfg, double seconds, SpanLog &spans)
{
    // Engines first, so the peak RSS read before the ladder covers
    // them too.
    PassResult out;
    double serve_setup = 0, engine_setup = 0;
    runEngines(cfg, seconds, spans, out, engine_setup);
    runServing(cfg, seconds, spans, out, serve_setup);
    out.endToEnd.set("setup_s", serve_setup + engine_setup, "s");
    out.correct = out.failures.empty();
    return out;
}

std::string
runHeader(const WorkloadConfig &cfg, const PassResult &result)
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
    struct utsname un = {};
    uname(&un);
    std::ostringstream ladder;
    for (size_t i = 0; i < cfg.ladder.size(); ++i)
        ladder << (i ? "," : "") << jsonNumber(cfg.ladder[i]);
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(cfg.name)
       << ", \"seed\": " << cfg.seed
       << ", \"seconds\": " << jsonNumber(cfg.seconds)
       << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonString(cpu)
       << ", \"kernel\": " << jsonString(un.release)
       << ", \"simd_body\": " << jsonString(st::evalSimdBodyName())
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"obs_enabled\": " << ST_OBS_ENABLED
       << ", \"version\": " << jsonString(ST_VERSION)
       << ", \"lanes\": " << cfg.lanes
       << ", \"model\": "
       << jsonString(cfg.model == "plan"
                         ? "plan " + std::to_string(cfg.planInputs) +
                               " inputs x " +
                               std::to_string(cfg.planLevels) + " levels"
                         : "tnn 16-48-16")
       << ", \"sessions\": " << cfg.sessions
       << ", \"window\": " << kWindow
       << ", \"deadline_ms\": " << kDeadlineMs
       << ", \"light_vps\": " << jsonNumber(cfg.lightRate)
       << ", \"busy_vps\": " << jsonNumber(cfg.busyRate)
       << ", \"ladder_vps\": [" << ladder.str() << "]"
       << ", \"limit_ms\": " << jsonNumber(cfg.limitMs)
       << ", \"srm0_synapses\": " << cfg.srm0Synapses
       << ", \"plan_batch\": " << kPlanBatch << ", \"sheet\": ["
       << kSheetRows << ", " << kSheetCols << ", " << kSheetNeurons << "]"
       << ", \"grl_volleys\": " << kGrlVolleys << ", \"stdp\": ["
       << cfg.stdpLines << ", " << cfg.stdpNeurons << ", " << kStdpSamples
       << "]"
       << ", \"setup_reps\": " << kSetupReps
       << ", \"segments\": " << kSegments
       << ", \"kept_segments\": " << kKeptSegments
       << ", \"rounds\": " << kRounds
       << ", \"serve_events_per_volley\": "
       << jsonNumber(result.perLayer.value("serve.events_per_volley"))
       << ", \"grl_events_per_volley\": "
       << jsonNumber(result.grlEventsPerVolley) << "}";
    return os.str();
}

} // namespace perfbench
