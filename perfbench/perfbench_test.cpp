/**
 * @file
 * The benchmark's own tests: its latency accounting must not suffer
 * from coordinated omission, and an overloaded ladder rung must not
 * count toward goodput.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "ledger.hpp"
#include "loadgen.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "tnn/tnn_network.hpp"

using namespace perfbench;

namespace {

constexpr size_t kWidth = 16;

st::TnnNetwork
smallTnn()
{
    st::TnnNetwork net;
    st::ColumnParams p;
    p.numInputs = kWidth;
    p.numNeurons = kWidth;
    p.seed = 3;
    net.addLayer(p);
    return net;
}

/** Stalls the first batch that starts after @p arm_ns for @p stall. */
class StallOnceModel : public st::serve::ServeModel
{
  public:
    StallOnceModel(std::unique_ptr<st::serve::ServeModel> inner,
                   std::chrono::milliseconds stall)
        : inner_(std::move(inner)), stall_(stall)
    {
    }

    void arm(uint64_t at_ns) { armNs_.store(at_ns); }
    uint64_t stallStartNs() const { return start_.load(); }
    uint64_t stallEndNs() const { return end_.load(); }

    size_t numInputs() const override { return inner_->numInputs(); }
    std::string name() const override { return inner_->name(); }
    bool transactional() const override { return true; }

    std::vector<std::string>
    processBatch(std::span<const st::serve::BatchItem> items,
                 size_t nthreads) override
    {
        const uint64_t armed = armNs_.load();
        if (armed != 0 && start_.load() == 0 && nowNs() >= armed) {
            start_.store(nowNs());
            std::this_thread::sleep_for(stall_);
            end_.store(nowNs());
        }
        return inner_->processBatch(items, nthreads);
    }

  private:
    std::unique_ptr<st::serve::ServeModel> inner_;
    std::chrono::milliseconds stall_;
    std::atomic<uint64_t> armNs_{0};
    std::atomic<uint64_t> start_{0};
    std::atomic<uint64_t> end_{0};
};

/** Sleeps @p per_item for every volley: a server of known capacity. */
class SlowModel : public st::serve::ServeModel
{
  public:
    SlowModel(std::unique_ptr<st::serve::ServeModel> inner,
              std::chrono::microseconds per_item)
        : inner_(std::move(inner)), perItem_(per_item)
    {
    }

    size_t numInputs() const override { return inner_->numInputs(); }
    std::string name() const override { return inner_->name(); }
    bool transactional() const override { return true; }

    std::vector<std::string>
    processBatch(std::span<const st::serve::BatchItem> items,
                 size_t nthreads) override
    {
        std::this_thread::sleep_for(perItem_ *
                                    static_cast<int64_t>(items.size()));
        return inner_->processBatch(items, nthreads);
    }

  private:
    std::unique_ptr<st::serve::ServeModel> inner_;
    std::chrono::microseconds perItem_;
};

/** A server on an ephemeral loopback port plus one client. */
struct Rig
{
    std::unique_ptr<st::serve::StreamServer> server;
    std::unique_ptr<st::serve::TcpTransport> tcp;
    std::unique_ptr<OpenLoopClient> client;

    explicit Rig(std::unique_ptr<st::serve::ServeModel> model)
    {
        st::serve::ServeConfig config;
        config.nthreads = 1;
        server = std::make_unique<st::serve::StreamServer>(
            std::move(model), config);
        server->start();
        tcp = std::make_unique<st::serve::TcpTransport>(
            *server, static_cast<uint16_t>(0));
        tcp->serveAsync();
        OpenLoopClient::Options opt;
        opt.port = tcp->port();
        opt.sessions = 1;
        opt.width = kWidth;
        opt.seed = 5;
        client = std::make_unique<OpenLoopClient>(opt);
        client->connect();
    }

    ~Rig()
    {
        std::string why;
        client->finish(why);
        client.reset();
        server->requestStop();
        tcp->stop();
        server->waitDrained(5000);
    }
};

} // namespace

TEST(JudgePhase, GrowingBacklogFailsTheRung)
{
    PhaseResult ok;
    ok.spec = {"ladder@1000", 1000, 1.0};
    ok.limitMs = 10;
    ok.offered = ok.delivered = 1000;
    ok.latencyMs.assign(1000, 1.0);
    ok.lagMs.assign(1000, 0.1);
    ok.outstanding = {2, 3, 2, 4, 3, 2, 3, 3};
    judgePhase(ok);
    EXPECT_TRUE(ok.meetsLimit);
    EXPECT_FALSE(ok.backlogGrowing);

    // Same latencies, but the unanswered count climbs through the
    // schedule, well past what the limit allows in flight (2000/s x
    // 10 ms = 20 volleys).
    PhaseResult grow = ok;
    grow.spec = {"ladder@2000", 2000, 1.0};
    grow.outstanding = {5, 40, 90, 140, 190, 250, 300, 360};
    judgePhase(grow);
    EXPECT_TRUE(grow.backlogGrowing);
    EXPECT_FALSE(grow.meetsLimit);

    EXPECT_DOUBLE_EQ(ladderGoodput({ok, grow}), ok.goodputVps);
    EXPECT_GT(ok.goodputVps, 0);
    // No rung met the limit: the lowest rung's in-limit rate, not the
    // best of the failed rungs.
    PhaseResult slow = grow;
    slow.spec = {"ladder@1000", 1000, 1.0};
    slow.latencyMs.assign(1000, 30.0);
    slow.latencyMs[0] = 1.0;
    judgePhase(slow);
    EXPECT_FALSE(slow.meetsLimit);
    EXPECT_DOUBLE_EQ(ladderGoodput({slow, grow}), slow.goodputVps);
    EXPECT_LT(ladderGoodput({slow, grow}), grow.goodputVps);

    // One hiccup late in the schedule is not a growing backlog.
    PhaseResult blip = ok;
    blip.outstanding = {2, 3, 2, 4, 3, 2, 3, 300};
    judgePhase(blip);
    EXPECT_FALSE(blip.backlogGrowing);
}

TEST(JudgePhase, LeastDelayedKeepsLowP99SegmentsInOrder)
{
    const auto segment = [](double p99, double p50, uint64_t lost) {
        PhaseResult r;
        r.p99Ms = p99;
        r.p50Ms = p50;
        r.lost = lost;
        return r;
    };
    // A segment that lost a volley ranks after every clean one, even
    // with the lowest p99; ties on p99 fall to p50.
    const std::vector<PhaseResult> segs = {
        segment(5.0, 0.3, 0), segment(1.0, 0.3, 7), segment(2.0, 0.4, 0),
        segment(9.0, 0.3, 0), segment(2.0, 0.2, 0)};
    const std::vector<PhaseResult> kept = leastDelayed(segs, 3);
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_DOUBLE_EQ(kept[0].p99Ms, 5.0);
    EXPECT_DOUBLE_EQ(kept[1].p50Ms, 0.4);
    EXPECT_DOUBLE_EQ(kept[2].p50Ms, 0.2);
    EXPECT_EQ(leastDelayed(segs, 9).size(), segs.size());
}

TEST(OpenLoop, StallIsChargedToEveryVolleyScheduledDuringIt)
{
    auto stall = std::make_unique<StallOnceModel>(
        std::make_unique<st::serve::TnnServeModel>(smallTnn()),
        std::chrono::milliseconds(30));
    StallOnceModel *probe = stall.get();
    Rig rig(std::move(stall));
    probe->arm(nowNs() + 400000000ULL); // 0.4 s in
    const PhaseResult r = rig.client->run({"stall", 2000, 1.0}, 10, 10);

    ASSERT_NE(probe->stallStartNs(), 0u);
    ASSERT_EQ(r.delivered, r.offered);
    ASSERT_EQ(r.dueNs.size(), r.latencyMs.size());
    const uint64_t s0 = probe->stallStartNs();
    const uint64_t s1 = probe->stallEndNs();
    size_t during = 0;
    for (size_t i = 0; i < r.dueNs.size(); ++i) {
        if (r.dueNs[i] < s0 || r.dueNs[i] >= s1)
            continue;
        ++during;
        // No answer can arrive before the stall ends, and the wait
        // counts from the intended send time, not the actual send.
        const double owed_ms =
            static_cast<double>(s1 - r.dueNs[i]) / 1e6;
        EXPECT_GE(r.latencyMs[i], owed_ms) << "volley " << i;
    }
    // ~60 volleys were due during a 30 ms stall at 2000/s.
    EXPECT_GE(during, 30u);
    EXPECT_GE(r.p99Ms, 15.0);
}

TEST(OpenLoop, OverloadedRungFailsGoodput)
{
    // 400 us per volley: about 2500 volleys/s of capacity.
    Rig rig(std::make_unique<SlowModel>(
        std::make_unique<st::serve::TnnServeModel>(smallTnn()),
        std::chrono::microseconds(400)));
    std::vector<PhaseResult> rungs;
    rungs.push_back(rig.client->run({"ladder@400", 400, 1.0}, 50, 10));
    rungs.push_back(rig.client->run({"ladder@10000", 10000, 0.5}, 50, 10));
    EXPECT_TRUE(rungs[0].meetsLimit) << "p99 " << rungs[0].p99Ms;
    EXPECT_TRUE(rungs[1].backlogGrowing);
    EXPECT_FALSE(rungs[1].meetsLimit);
    EXPECT_DOUBLE_EQ(ladderGoodput(rungs), rungs[0].goodputVps);
    // Every volley is still answered once the backlog drains.
    EXPECT_EQ(rungs[1].delivered, rungs[1].offered);
}
