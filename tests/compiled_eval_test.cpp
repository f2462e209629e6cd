/**
 * @file
 * Differential tests: the compiled evaluation plan must be
 * bit-identical to the reference interpreter on every network and
 * every volley — including inf-heavy volleys, config mutations between
 * calls, structural mutations that invalidate the plan, and batched
 * evaluation across thread counts.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/eval_plan.hpp"
#include "core/network.hpp"
#include "neuron/response.hpp"
#include "neuron/sorting.hpp"
#include "neuron/srm0_network.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace st {
namespace {

using testing::kNo;
using testing::randomVolley;
using testing::V;

/**
 * A random feedforward network over the full primitive set, richer
 * than testing::randomNetwork: it adds config nodes, n-ary min/max,
 * inc chains, and a random output set (so DCE has real work to do).
 */
Network
richRandomNetwork(Rng &rng, size_t num_inputs, size_t num_blocks,
                  bool huge_delays = false)
{
    Network net(num_inputs);
    auto randomNode = [&]() {
        return static_cast<NodeId>(rng.below(net.size()));
    };
    for (size_t b = 0; b < num_blocks; ++b) {
        switch (rng.below(6)) {
          case 0:
            net.config(rng.chance(0.3) ? INF : Time(rng.below(8)));
            break;
          case 1: {
            // Inc chains of depth 1..3 exercise fusion.
            NodeId id = randomNode();
            size_t depth = 1 + rng.below(3);
            // Huge hops fold to edge delays within 2^5 of 2^64 (or
            // saturate to inf), so saturating adds wrap on small times.
            for (size_t d = 0; d < depth; ++d)
                id = net.inc(id, huge_delays && rng.chance(0.5)
                                     ? ~Time::rep{0} - rng.below(32)
                                     : rng.below(5));
            break;
          }
          case 2:
          case 3: {
            std::vector<NodeId> srcs(2 + rng.below(3));
            for (NodeId &s : srcs)
                s = randomNode();
            if (rng.chance(0.5))
                net.min(srcs);
            else
                net.max(srcs);
            break;
          }
          default:
            net.lt(randomNode(), randomNode());
            break;
        }
    }
    // A random output set, biased to leave some of the graph dead.
    size_t num_outputs = 1 + rng.below(3);
    for (size_t k = 0; k < num_outputs; ++k)
        net.markOutput(static_cast<NodeId>(rng.below(net.size())));
    return net;
}

/** Compiled evaluate/evaluateAll must equal the interpreter exactly. */
void
expectCompiledMatches(const Network &net, const std::vector<Time> &volley)
{
    EXPECT_EQ(net.evaluate(volley), net.evaluateInterpreted(volley));
    EXPECT_EQ(net.evaluateAll(volley),
              net.evaluateAllInterpreted(volley));
}

TEST(CompiledEval, MatchesInterpreterExhaustivelyOnSmallNets)
{
    Rng rng(0xc0de);
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Rng net_rng(seed);
        Network net = richRandomNetwork(net_rng, 3, 12);
        testing::forAllVolleys(3, 3, [&](const std::vector<Time> &u) {
            expectCompiledMatches(net, u);
        });
    }
}

TEST(CompiledEval, MatchesInterpreterOnRandomDags)
{
    for (uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(0x9000 + seed);
        Network net = richRandomNetwork(rng, 1 + rng.below(6),
                                        5 + rng.below(40));
        for (size_t v = 0; v < 16; ++v) {
            // Half the volleys are inf-heavy to stress "no event"
            // propagation through fused edges.
            double p_inf = v % 2 == 0 ? 0.2 : 0.7;
            expectCompiledMatches(
                net, randomVolley(rng, net.numInputs(), 20, p_inf));
        }
    }
}

TEST(CompiledEval, ConfigMutationNeverStalesThePlan)
{
    Network net(2);
    NodeId c = net.config(Time(3));
    NodeId gated = net.lt(net.min(net.input(0), net.input(1)), c);
    net.markOutput(gated);
    net.markOutput(c);

    Rng rng(0xfeed);
    for (size_t round = 0; round < 20; ++round) {
        net.setConfig(c, rng.chance(0.3) ? INF : Time(rng.below(10)));
        // setConfig must not recompile: config values are read live.
        if (round > 0) {
            EXPECT_TRUE(net.isCompiled());
        }
        expectCompiledMatches(net, randomVolley(rng, 2, 10));
    }
}

TEST(CompiledEval, StructuralMutationInvalidatesThePlan)
{
    Rng rng(0xabcd);
    Network net = richRandomNetwork(rng, 3, 10);
    net.evaluate(randomVolley(rng, 3, 10));
    EXPECT_TRUE(net.isCompiled());

    net.inc(net.input(0), 2);
    EXPECT_FALSE(net.isCompiled());
    net.markOutput(static_cast<NodeId>(net.size() - 1));
    EXPECT_FALSE(net.isCompiled());
    expectCompiledMatches(net, randomVolley(rng, 3, 10));

    // append() splices foreign nodes in; the plan must follow suit.
    Network sub(1);
    sub.markOutput(sub.inc(sub.input(0), 5));
    net.evaluate(randomVolley(rng, 3, 10));
    EXPECT_TRUE(net.isCompiled());
    NodeId in0 = net.input(0);
    net.markOutput(net.append(sub, {&in0, 1})[0]);
    EXPECT_FALSE(net.isCompiled());
    expectCompiledMatches(net, randomVolley(rng, 3, 10));
}

TEST(CompiledEval, BatchMatchesSerialAcrossThreadCounts)
{
    // Batch sizes 0..70 cover every leftover — one volley runs scalar,
    // two to seven pad a block — beside up to eight full blocks; half
    // the volleys are inf-heavy.
    Rng rng(0xbead);
    Network net = richRandomNetwork(rng, 4, 30);

    std::vector<std::vector<Time>> volleys;
    std::vector<std::vector<Time>> expected;
    for (size_t i = 0; i < 70; ++i) {
        volleys.push_back(randomVolley(rng, 4, 15, i % 2 ? 0.8 : 0.2));
        expected.push_back(net.evaluate(volleys.back()));
        ASSERT_EQ(expected.back(), net.evaluateInterpreted(volleys.back()));
    }

    for (size_t n = 0; n <= volleys.size(); ++n) {
        const std::span<const std::vector<Time>> batch(volleys.data(), n);
        const std::vector<std::vector<Time>> want(expected.begin(),
                                                  expected.begin() + n);
        for (size_t nthreads : {1, 2, 4, 8})
            ASSERT_EQ(net.evaluateBatch(batch, nthreads), want)
                << "size=" << n << " nthreads=" << nthreads;
    }

    volleys[3].pop_back();
    EXPECT_THROW(net.evaluateBatch(volleys, 2), std::invalid_argument);
}

TEST(CompiledEval, EveryHostBodyMatchesScalarWalk)
{
    // runProgramBlock runs only the widest body; each narrower one the
    // host can run must match the single-volley walk on every lane and
    // every value slot too, on both the live and the full program.
    const std::span<const detail::BlockBody> bodies =
        detail::hostBlockBodies();
    ASSERT_FALSE(bodies.empty());
    EXPECT_STREQ(bodies.front().name, evalSimdBodyName());
    EXPECT_STREQ(bodies.back().name, "scalar");

    std::vector<Time> want, got;
    auto expectBlockMatches = [&](const EvalProgramView &prog,
                                  std::span<const Node> nodes,
                                  const std::vector<std::vector<Time>> &vs) {
        std::array<const Time *, kEvalBlockLanes> rows;
        for (size_t l = 0; l < kEvalBlockLanes; ++l)
            rows[l] = vs[l].data();
        for (const detail::BlockBody &body : bodies) {
            body.run(prog, nodes, rows, got);
            ASSERT_EQ(got.size(), prog.size() * kEvalBlockLanes);
            for (size_t l = 0; l < kEvalBlockLanes; ++l) {
                runProgram(prog, nodes, vs[l], want);
                for (size_t i = 0; i < prog.size(); ++i)
                    ASSERT_EQ(got[i * kEvalBlockLanes + l], want[i])
                        << body.name << " lane " << l << " slot " << i;
            }
        }
    };

    for (uint64_t seed = 0; seed < 48; ++seed) {
        Rng rng(0xb0d1e5 + seed);
        const size_t width = 1 + rng.below(6);
        Network net = richRandomNetwork(rng, width, 10 + rng.below(40),
                                        /*huge_delays=*/seed % 2 == 1);
        for (size_t round = 0; round < 3; ++round) {
            // Config values are read live: change them between rounds.
            for (uint32_t c : net.compile().configNodes)
                net.setConfig(c, rng.chance(0.3) ? INF
                                                 : Time(rng.below(20)));
            std::vector<std::vector<Time>> volleys;
            for (size_t l = 0; l < kEvalBlockLanes; ++l)
                volleys.push_back(
                    round == 2 ? std::vector<Time>(width, INF)
                               : randomVolley(rng, width, 20,
                                              l % 2 ? 0.8 : 0.2));
            const EvalPlan &plan = net.compile();
            expectBlockMatches(plan.live.view(), net.nodes(), volleys);
            expectBlockMatches(plan.full.view(), net.nodes(), volleys);
        }
    }
}

TEST(CompiledEval, DeadNodesAreEliminated)
{
    Network net(2);
    NodeId used = net.min(net.input(0), net.input(1));
    net.max(net.input(0), net.input(1)); // dead
    net.lt(net.input(0), net.input(1));  // dead
    net.markOutput(used);

    const EvalPlan &plan = net.compile();
    EXPECT_EQ(plan.numNodes, 5u);
    EXPECT_EQ(plan.deadNodes, 2u);
    EXPECT_EQ(plan.live.size(), 3u);
    EXPECT_EQ(plan.full.size(), 5u);
    expectCompiledMatches(net, V({4, 7}));
}

TEST(CompiledEval, IncChainsFuseIntoEdgeDelays)
{
    Network net(1);
    NodeId id = net.input(0);
    for (Time::rep d = 1; d <= 4; ++d)
        id = net.inc(id, d);
    NodeId out = net.min(id, net.input(0));
    net.markOutput(out);

    const EvalPlan &plan = net.compile();
    // All four inc nodes fold into one edge delay of 1+2+3+4.
    EXPECT_EQ(plan.fusedIncs, 4u);
    EXPECT_EQ(plan.deadNodes, 4u);
    EXPECT_EQ(plan.live.size(), 2u);
    EXPECT_EQ(net.evaluate(V({5}))[0], Time(5));
    expectCompiledMatches(net, V({0}));
    expectCompiledMatches(net, V({kNo}));
}

TEST(CompiledEval, IncFusionSaturatesExactlyLikeTheInterpreter)
{
    const Time::rep huge = ~uint64_t{0} - 3;
    Network net(1);
    NodeId id = net.inc(net.inc(net.input(0), huge), huge);
    net.markOutput(id);

    // Both the chained and the folded form must saturate to inf.
    std::vector<Time> big = {Time(huge)};
    expectCompiledMatches(net, big);
    EXPECT_EQ(net.evaluate(big)[0], INF);
    expectCompiledMatches(net, V({0}));
    expectCompiledMatches(net, V({3}));
    expectCompiledMatches(net, V({kNo}));
}

TEST(CompiledEval, OutputIncTapsStayLive)
{
    Network net(1);
    NodeId tap = net.inc(net.input(0), 7);
    net.markOutput(tap); // an inc that IS an output must survive DCE
    expectCompiledMatches(net, V({2}));
    expectCompiledMatches(net, V({kNo}));
    EXPECT_EQ(net.evaluate(V({2}))[0], Time(9));
}

TEST(CompiledEval, BuildersShipPrecompiledNetworks)
{
    Network sorter = bitonicSortNetwork(6);
    EXPECT_TRUE(sorter.isCompiled());

    std::vector<ResponseFunction> synapses(
        4, ResponseFunction::step(2));
    Network srm0 = buildSrm0Network(synapses, 3);
    EXPECT_TRUE(srm0.isCompiled());

    Rng rng(0x50f7);
    for (size_t v = 0; v < 8; ++v) {
        expectCompiledMatches(sorter, randomVolley(rng, 6, 12));
        expectCompiledMatches(srm0, randomVolley(rng, 4, 12));
    }
}

TEST(CompiledEval, CopiesAndMovesKeepPlansCoherent)
{
    Rng rng(0x7007);
    Network net = richRandomNetwork(rng, 3, 15);
    net.evaluate(randomVolley(rng, 3, 10));
    ASSERT_TRUE(net.isCompiled());

    Network copy = net; // copies start uncompiled
    EXPECT_FALSE(copy.isCompiled());
    expectCompiledMatches(copy, randomVolley(rng, 3, 10));

    Network moved = std::move(net); // moves steal the plan
    EXPECT_TRUE(moved.isCompiled());
    expectCompiledMatches(moved, randomVolley(rng, 3, 10));
}

} // namespace
} // namespace st
