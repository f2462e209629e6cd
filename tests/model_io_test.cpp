/**
 * @file
 * STMF container round-trips (model/stmf.hpp + model/serialize.hpp).
 *
 * The contract: pack -> load (through BOTH paths — mmap with pointer
 * fixup, and the copying fallback) must reproduce the original model
 * bit-for-bit under evaluation. "Bit-for-bit" is checked on Time reps
 * and raw double bit patterns, not printed approximations, because a
 * serving fleet mixing load paths must never disagree on an output.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "model/crc32c.hpp"
#include "model/serialize.hpp"
#include "model/stmf.hpp"
#include "tnn/lsm.hpp"
#include "tnn/tnn_network.hpp"
#include "tnn/volley.hpp"

namespace st::model {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "stmf_io_" + name;
}

/** Deterministic probe volleys with a mix of finite and inf lines. */
std::vector<Volley>
probes(size_t width, size_t count)
{
    std::vector<Volley> volleys;
    for (size_t j = 0; j < count; ++j) {
        Volley v(width, INF);
        for (size_t i = 0; i < width; ++i)
            if ((i + 3 * j) % 7 != 0)
                v[i] = Time((i * 37 + j * 101) % 64);
        volleys.push_back(std::move(v));
    }
    return volleys;
}

TnnNetwork
makeTnn(size_t inputs)
{
    TnnNetwork net;
    ColumnParams l1;
    l1.numInputs = inputs;
    l1.numNeurons = inputs * 2;
    l1.wtaK = 3;
    l1.seed = 7;
    net.addLayer(l1);
    ColumnParams l2;
    l2.numInputs = inputs * 2;
    l2.numNeurons = inputs;
    l2.wtaK = 1;
    l2.seed = 8;
    net.addLayer(l2);
    return net;
}

Network
makeNetwork(size_t inputs)
{
    Network net(inputs);
    std::vector<NodeId> ins;
    for (size_t i = 0; i < inputs; ++i)
        ins.push_back(net.input(i));
    const NodeId first = net.min(ins);
    const NodeId last = net.max(ins);
    const NodeId race = net.lt(first, last);
    const NodeId delayed = net.inc(first, 3);
    const NodeId gate = net.config(Time(2));
    net.markOutput(net.max(race, gate));
    net.markOutput(net.min(delayed, last));
    return net;
}

void
expectSameTimes(std::span<const Time> a, std::span<const Time> b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].value(), b[i].value())
            << what << " line " << i;
}

TEST(ModelIoTnn, RoundTripsBitIdenticalOnBothPaths)
{
    const TnnNetwork original = makeTnn(8);
    const std::string path = tempPath("tnn.stmf");
    PackOptions options;
    options.id = "rt-tnn";
    options.version = 3;
    ASSERT_TRUE(packTnn(original, path, options).isOk());

    for (const LoadMode mode : {LoadMode::Mmap, LoadMode::Copy}) {
        LoadedModel loaded;
        const Status status = loadModel(path, mode, loaded);
        ASSERT_TRUE(status.isOk()) << status.str();
        ASSERT_TRUE(loaded.tnn != nullptr);
        EXPECT_EQ(loaded.info.kind, "tnn");
        EXPECT_EQ(loaded.info.id, "rt-tnn");
        EXPECT_EQ(loaded.info.version, 3u);
        EXPECT_EQ(loaded.info.inputWidth, 8u);
        EXPECT_EQ(loaded.info.mode, mode);
        EXPECT_GT(loaded.info.fileBytes, 0u);

        ASSERT_EQ(loaded.tnn->numLayers(), original.numLayers());
        for (const Volley &v : probes(8, 8))
            expectSameTimes(original.process(v),
                            loaded.tnn->process(v), "tnn volley");
    }
}

TEST(ModelIoTnn, WeightsSurviveExactly)
{
    TnnNetwork original = makeTnn(4);
    const std::string path = tempPath("tnn_w.stmf");
    ASSERT_TRUE(packTnn(original, path, PackOptions{}).isOk());

    LoadedModel loaded;
    ASSERT_TRUE(loadModel(path, LoadMode::Copy, loaded).isOk());
    for (size_t l = 0; l < original.numLayers(); ++l) {
        const Column &a = original.layer(l);
        const Column &b = loaded.tnn->layer(l);
        ASSERT_EQ(a.params().numNeurons, b.params().numNeurons);
        for (size_t n = 0; n < a.params().numNeurons; ++n) {
            const std::vector<double> &wa = a.weights(n);
            const std::vector<double> &wb = b.weights(n);
            ASSERT_EQ(wa.size(), wb.size());
            // memcmp, not ==: the contract is the bit pattern.
            EXPECT_EQ(0, std::memcmp(wa.data(), wb.data(),
                                     wa.size() * sizeof(double)))
                << "layer " << l << " neuron " << n;
        }
    }
}

TEST(ModelIoPlan, MatchesCompiledNetworkOnBothPaths)
{
    const Network net = makeNetwork(6);
    const std::string path = tempPath("plan.stmf");
    PackOptions options;
    options.id = "rt-plan";
    ASSERT_TRUE(
        packNetwork(net, path, options, /*with_grl=*/true).isOk());

    // Batches of 0..70 cover every padded and scalar leftover beside
    // full blocks; probes() mixes in inf lines, and the all-inf
    // volleys exercise the saturating paths.
    std::vector<Volley> volleys = probes(6, 62);
    for (size_t j = 0; j < 8; ++j)
        volleys.insert(volleys.begin() + 9 * j, Volley(6, INF));
    for (const LoadMode mode : {LoadMode::Mmap, LoadMode::Copy}) {
        LoadedModel loaded;
        const Status status = loadModel(path, mode, loaded);
        ASSERT_TRUE(status.isOk()) << status.str();
        ASSERT_TRUE(loaded.plan != nullptr);
        EXPECT_EQ(loaded.info.kind, "plan");
        EXPECT_EQ(loaded.plan->numInputs(), net.numInputs());
        EXPECT_EQ(loaded.plan->numOutputs(), net.outputs().size());
        const PlanModel &plan = *loaded.plan;

        EvalScratch scratch;
        std::vector<std::vector<Time>> expected;
        for (const Volley &v : volleys) {
            std::vector<Time> out;
            plan.evaluate(v, scratch, out);
            expectSameTimes(net.evaluate(v), out, "plan volley");
            expected.push_back(std::move(out));
        }
        for (size_t n = 0; n <= volleys.size(); ++n) {
            const std::span<const Volley> batch(volleys.data(), n);
            const std::vector<std::vector<Time>> want(
                expected.begin(), expected.begin() + n);
            for (size_t nthreads : {1, 2, 4, 8})
                ASSERT_EQ(plan.evaluateBatch(batch, nthreads), want)
                    << "size=" << n << " nthreads=" << nthreads;
        }

        std::vector<Volley> narrow = volleys;
        narrow[10].pop_back();
        EXPECT_THROW(plan.evaluateBatch(narrow, 4),
                     std::invalid_argument);
    }
}

TEST(ModelIoPlan, WrongWidthVolleysThrowOnBothEntryPoints)
{
    // A short volley would make the Input instructions read past its
    // end; a long one would be silently truncated.
    const Network net = makeNetwork(6);
    const std::string path = tempPath("plan_width.stmf");
    PackOptions options;
    options.id = "rt-plan-width";
    ASSERT_TRUE(packNetwork(net, path, options).isOk());
    for (const LoadMode mode : {LoadMode::Mmap, LoadMode::Copy}) {
        LoadedModel loaded;
        const Status status = loadModel(path, mode, loaded);
        ASSERT_TRUE(status.isOk()) << status.str();
        const PlanModel &plan = *loaded.plan;
        EvalScratch scratch;
        std::vector<Time> out;
        for (const size_t width : {5, 7}) {
            const std::vector<Volley> batch(9, Volley(width, Time(1)));
            EXPECT_THROW(plan.evaluate(batch[0], scratch, out),
                         std::invalid_argument)
                << "width " << width;
            EXPECT_THROW(plan.evaluateBatch(batch, 1),
                         std::invalid_argument)
                << "width " << width;
        }
    }
}

TEST(ModelIoPlan, GrlSectionRoundTripsAndValidates)
{
    const Network net = makeNetwork(4);
    const std::string path = tempPath("plan_grl.stmf");
    ASSERT_TRUE(
        packNetwork(net, path, PackOptions{}, /*with_grl=*/true)
            .isOk());

    StmfFile file;
    ASSERT_TRUE(
        StmfFile::open(path, LoadMode::Mmap, file).isOk());
    ASSERT_TRUE(file.hasSection(SectionType::Grl));

    grl::Circuit circuit(0);
    const Status status = decodeGrl(file, circuit);
    ASSERT_TRUE(status.isOk()) << status.str();
    EXPECT_GT(circuit.gates().size(), net.numInputs());
    EXPECT_FALSE(circuit.outputs().empty());
    EXPECT_TRUE(circuit.validate().isOk());
}

TEST(ModelIoLsm, ConfigRoundTripsExactly)
{
    LsmModelConfig config;
    config.params.numInputs = 16;
    config.params.numNeurons = 48;
    config.params.connectProb = 0.2;
    config.params.leak = 0.75;
    config.params.seed = 0xfeed;
    config.stepsPerVolley = 12;
    config.emaAlpha = 0.35;

    const std::string path = tempPath("lsm.stmf");
    ASSERT_TRUE(packLsm(config, path, PackOptions{}).isOk());

    for (const LoadMode mode : {LoadMode::Mmap, LoadMode::Copy}) {
        LoadedModel loaded;
        const Status status = loadModel(path, mode, loaded);
        ASSERT_TRUE(status.isOk()) << status.str();
        ASSERT_TRUE(loaded.lsm != nullptr);
        EXPECT_EQ(loaded.lsm->params.numInputs, 16u);
        EXPECT_EQ(loaded.lsm->params.numNeurons, 48u);
        EXPECT_EQ(loaded.lsm->params.connectProb, 0.2);
        EXPECT_EQ(loaded.lsm->params.leak, 0.75);
        EXPECT_EQ(loaded.lsm->params.seed, 0xfeedu);
        EXPECT_EQ(loaded.lsm->stepsPerVolley, 12u);
        EXPECT_EQ(loaded.lsm->emaAlpha, 0.35);

        // Same params + seed => the same reservoir dynamics.
        Reservoir a(config.params);
        Reservoir b(loaded.lsm->params);
        const Volley v = probes(16, 1)[0];
        EXPECT_EQ(a.runVolley(v, 12), b.runVolley(v, 12));
        EXPECT_EQ(0, std::memcmp(a.traces().data(),
                                 b.traces().data(),
                                 a.traces().size() * sizeof(double)));
    }
}

TEST(ModelIoWriter, PublishIsAtomicAndRepacksOverwrite)
{
    const Network net = makeNetwork(4);
    const std::string path = tempPath("atomic.stmf");
    PackOptions v1;
    v1.version = 1;
    ASSERT_TRUE(packNetwork(net, path, v1).isOk());

    // No tmp residue next to the published file.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());

    LoadedModel first;
    ASSERT_TRUE(loadModel(path, LoadMode::Copy, first).isOk());
    EXPECT_EQ(first.info.version, 1u);

    // Republish over the same path with a new version: the reader
    // must see the new identity (rename replaced, not appended).
    PackOptions v2;
    v2.version = 2;
    ASSERT_TRUE(packNetwork(net, path, v2).isOk());
    LoadedModel second;
    ASSERT_TRUE(loadModel(path, LoadMode::Copy, second).isOk());
    EXPECT_EQ(second.info.version, 2u);
    EXPECT_EQ(second.info.fileBytes, first.info.fileBytes);
}

TEST(ModelIoWidth, SmokeProbeRejectsUnrunnableMeta)
{
    // A META input width that disagrees with the payload must be
    // caught at load (the canary's width leg), not at first volley.
    const TnnNetwork net = makeTnn(4);
    const std::string path = tempPath("width.stmf");

    StmfBuilder builder;
    ModelInfo info;
    info.kind = "tnn";
    info.id = "liar";
    info.version = 1;
    info.inputWidth = 9; // payload says 4
    builder.addSection(SectionType::Meta, encodeMeta(info));
    builder.addSection(SectionType::Tnn, encodeTnn(net));
    ASSERT_TRUE(builder.writeFile(path).isOk());

    LoadedModel loaded;
    const Status status = loadModel(path, LoadMode::Copy, loaded);
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(loaded.tnn, nullptr); // out untouched on failure
}

/**
 * CRC32C known-answer + incremental-extend checks: the slicing-by-8
 * fast path must agree with the published Castagnoli vectors and
 * with any chunking of the same message (the format relies on
 * crc32cExtend being chunk-invariant to seal sections).
 */
TEST(Crc32c, KnownVectorsAndChunkInvariance)
{
    // RFC 3720 appendix B.4 test vector.
    EXPECT_EQ(crc32c("123456789", 9), 0xe3069283u);
    const std::vector<uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8a9136aau);

    std::vector<uint8_t> msg(1037);
    for (size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<uint8_t>((i * 131 + 17) & 0xff);
    const uint32_t whole = crc32c(msg.data(), msg.size());
    for (size_t cut : {0ul, 1ul, 7ul, 8ul, 9ul, 512ul, 1036ul}) {
        uint32_t c = crc32cExtend(0, msg.data(), cut);
        c = crc32cExtend(c, msg.data() + cut, msg.size() - cut);
        EXPECT_EQ(c, whole) << "split at " << cut;
    }
}

} // namespace
} // namespace st::model
