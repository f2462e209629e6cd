/**
 * @file
 * Experiment F12 — paper Fig. 12: the SRM0 neuron from s-t primitives.
 *
 * Regenerates the construction-cost series (taps, comparators, lt rank
 * blocks, total nodes, depth) as synapse count grows, and runs the
 * reproduction's central agreement check: the Fig. 12 network vs the
 * numerical Fig. 1 reference on thousands of random volleys. Times both
 * implementations.
 */

#include "bench_common.hpp"

#include <array>

#include "core/eval_plan.hpp"
#include "neuron/srm0_network.hpp"
#include "neuron/srm0_reference.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace st;

namespace {

std::vector<ResponseFunction>
synapses(size_t q)
{
    std::vector<ResponseFunction> syn;
    for (size_t i = 0; i < q; ++i) {
        if (i % 4 == 3)
            syn.push_back(
                ResponseFunction::biexponential(2, 4.0, 1.0).negated());
        else
            syn.push_back(ResponseFunction::biexponential(3, 4.0, 1.0));
    }
    return syn;
}

void
printFigure()
{
    std::cout << "F12 | Fig. 12: SRM0 construction cost vs synapse "
                 "count (biexp responses, 1-in-4 inhibitory, theta = "
                 "synapses)\n";
    AsciiTable t({"synapses", "up taps", "down taps", "comparators",
                  "lt blocks", "total nodes", "depth"});
    for (size_t q : {2, 4, 8, 16, 32}) {
        auto stats = srm0NetworkStats(
            synapses(q), static_cast<ResponseFunction::Amp>(q));
        t.row(q, stats.upTaps, stats.downTaps, stats.comparators,
              stats.ltBlocks, stats.totalNodes, stats.depth);
    }
    t.writeTo(std::cout);
    std::cout << "shape check: the two sorters dominate "
                 "(O(T log^2 T) comparators for T taps).\n\n";

    std::cout << "Agreement: Fig. 12 network vs numerical reference "
                 "(Fig. 1):\n";
    AsciiTable agree({"synapses", "theta", "random volleys",
                      "agreements", "spikes produced"});
    Rng rng(12);
    for (size_t q : {3, 6, 10}) {
        auto syn = synapses(q);
        auto theta = static_cast<ResponseFunction::Amp>(q);
        Srm0Neuron ref(syn, theta);
        Network net = buildSrm0Network(syn, theta);
        size_t match = 0, fired = 0;
        const size_t probes = 2000;
        for (size_t s = 0; s < probes; ++s) {
            std::vector<Time> x(q);
            for (Time &v : x)
                v = rng.chance(0.2) ? INF : Time(rng.below(10));
            Time a = net.evaluate(x)[0];
            Time b = ref.fire(x);
            match += a == b;
            fired += b.isFinite();
        }
        agree.row(q, theta, probes, match, fired);
    }
    agree.writeTo(std::cout);
    std::cout << "shape check: agreements == volleys (exact cross-"
                 "domain equivalence).\n\n";

    std::cout << "Compiled lane-blocked plan vs graph interpreter "
                 "(both single-thread, identical outputs; one v/s "
                 "column per block body this host runs):\n";
    const std::span<const detail::BlockBody> bodies =
        detail::hostBlockBodies();
    std::vector<std::string> header = {"synapses", "volleys", "interp v/s",
                                       "compiled v/s", "speedup"};
    for (const detail::BlockBody &body : bodies)
        header.push_back(std::string(body.name) + " v/s");
    AsciiTable perf(header);
    Rng perf_rng(15);
    for (size_t q : {4, 16, 32}) {
        Network net = buildSrm0Network(
            synapses(q), static_cast<ResponseFunction::Amp>(q));
        const size_t probes = bench::scaled(4000, 25);
        std::vector<std::vector<Time>> volleys(probes);
        for (auto &x : volleys) {
            x.resize(q);
            for (Time &v : x)
                v = perf_rng.chance(0.2) ? INF
                                         : Time(perf_rng.below(10));
        }
        Stopwatch sw;
        for (const auto &x : volleys)
            benchmark::DoNotOptimize(net.evaluateInterpreted(x));
        double interp_secs = sw.seconds();
        sw.reset();
        // Same thread, same outputs: the compiled plan streams the
        // volleys through the lane-blocked batch engine.
        auto batched = net.evaluateBatch(volleys, 1);
        double compiled_secs = sw.seconds();
        benchmark::DoNotOptimize(batched);
        double vps = static_cast<double>(probes) / compiled_secs;
        double speedup = interp_secs / compiled_secs;
        std::vector<std::string> fields = {
            AsciiTable::format(q), AsciiTable::format(probes),
            AsciiTable::format(static_cast<double>(probes) / interp_secs),
            AsciiTable::format(vps), AsciiTable::format(speedup)};
        // Each body on the same volleys' full blocks, straight through
        // its entry point (the compiled column runs only the widest).
        const EvalProgramView prog = net.compile().live.view();
        const size_t blocks = probes / kEvalBlockLanes;
        std::vector<Time> values;
        for (const detail::BlockBody &body : bodies) {
            const auto runBlock = [&](size_t b) {
                std::array<const Time *, kEvalBlockLanes> rows;
                for (size_t l = 0; l < kEvalBlockLanes; ++l)
                    rows[l] = volleys[b * kEvalBlockLanes + l].data();
                body.run(prog, net.nodes(), rows, values);
                benchmark::DoNotOptimize(values.data());
            };
            runBlock(0); // warm the arena
            sw.reset();
            for (size_t b = 0; b < blocks; ++b)
                runBlock(b);
            fields.push_back(AsciiTable::format(
                static_cast<double>(blocks * kEvalBlockLanes) /
                sw.seconds()));
        }
        perf.addRow(fields);
        bench::record("fig12_srm0", "synapses=" + std::to_string(q),
                      vps, speedup);
    }
    perf.writeTo(std::cout);
    std::cout << "shape check: the compiled plan (DCE + inc fusion + "
                 "flat CSR operands) wins more as the network grows.\n";
}

void
BM_Srm0NetworkEvaluate(benchmark::State &state)
{
    const size_t q = static_cast<size_t>(state.range(0));
    Network net = buildSrm0Network(
        synapses(q), static_cast<ResponseFunction::Amp>(q));
    Rng rng(13);
    std::vector<Time> x(q);
    for (Time &v : x)
        v = Time(rng.below(8));
    for (auto _ : state) {
        auto out = net.evaluate(x);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Srm0NetworkEvaluate)->Arg(4)->Arg(16)->Arg(32);

void
BM_Srm0NetworkEvaluateInterpreted(benchmark::State &state)
{
    // The pre-compile baseline: walks the node graph as built.
    const size_t q = static_cast<size_t>(state.range(0));
    Network net = buildSrm0Network(
        synapses(q), static_cast<ResponseFunction::Amp>(q));
    Rng rng(13);
    std::vector<Time> x(q);
    for (Time &v : x)
        v = Time(rng.below(8));
    for (auto _ : state) {
        auto out = net.evaluateInterpreted(x);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Srm0NetworkEvaluateInterpreted)->Arg(4)->Arg(16)->Arg(32);

void
BM_Srm0ReferenceFire(benchmark::State &state)
{
    const size_t q = static_cast<size_t>(state.range(0));
    Srm0Neuron ref(synapses(q), static_cast<ResponseFunction::Amp>(q));
    Rng rng(14);
    std::vector<Time> x(q);
    for (Time &v : x)
        v = Time(rng.below(8));
    for (auto _ : state) {
        Time y = ref.fire(x);
        benchmark::DoNotOptimize(y);
    }
}
BENCHMARK(BM_Srm0ReferenceFire)->Arg(4)->Arg(16)->Arg(32);

void
BM_Srm0Build(benchmark::State &state)
{
    const size_t q = static_cast<size_t>(state.range(0));
    auto syn = synapses(q);
    for (auto _ : state) {
        Network net = buildSrm0Network(
            syn, static_cast<ResponseFunction::Amp>(q));
        benchmark::DoNotOptimize(net);
    }
}
BENCHMARK(BM_Srm0Build)->Arg(4)->Arg(16)->Arg(32);

} // namespace

ST_BENCH_MAIN(printFigure)
