/**
 * @file
 * STMF payload codecs + model load/pack (see serialize.hpp).
 *
 * Decoder discipline: read counts first, let SectionReader::array
 * bound every count against the section extent before anything is
 * allocated, then cross-validate the structural claims (CSR
 * monotonicity, topological operand order, arities, index ranges).
 * Only a stream that passes everything is assembled into a model.
 */

#include "model/serialize.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "grl/compile.hpp"

namespace st::model {

namespace {

constexpr uint64_t kInfRep = std::numeric_limits<uint64_t>::max();

/** Plausibility caps on decoded dimensions. The section extent already
 *  bounds array counts; these bound the *derived* allocations (probe
 *  volleys, layer weight matrices) a hostile-but-checksummed file
 *  could otherwise inflate. */
constexpr uint64_t kMaxInputWidth = 1ull << 24;
constexpr uint64_t kMaxLayers = 4096;
constexpr uint64_t kMaxLayerDim = 1ull << 20;
constexpr uint64_t kMaxLsmNeurons = 4096; //!< reservoir build is O(n^2)
constexpr uint64_t kMaxLsmSteps = 1ull << 20;

uint64_t
timeRep(Time t)
{
    return t.isInf() ? kInfRep : t.value();
}

Time
timeFromRep(uint64_t v)
{
    return v == kInfRep ? INF : Time(v);
}

Status
missingSection(SectionType type)
{
    return Status(StatusCode::NotFound,
                  "stmf: required section is absent",
                  "section " + sectionName(static_cast<uint32_t>(type)));
}

SectionReader
readerFor(const StmfFile &file, SectionType type)
{
    return SectionReader(file.section(type), file.sectionOffset(type),
                         sectionName(static_cast<uint32_t>(type)));
}

} // namespace

// --- meta -----------------------------------------------------------

std::vector<uint8_t>
encodeMeta(const ModelInfo &info)
{
    SectionWriter w;
    w.str(info.kind);
    w.str(info.id);
    w.u64(info.version);
    w.u64(info.inputWidth);
    return w.take();
}

Status
decodeMeta(const StmfFile &file, ModelInfo &out)
{
    if (!file.hasSection(SectionType::Meta))
        return missingSection(SectionType::Meta);
    SectionReader r = readerFor(file, SectionType::Meta);
    ModelInfo info;
    ST_RETURN_IF_ERROR(r.str(info.kind, 32));
    ST_RETURN_IF_ERROR(r.str(info.id, 256));
    ST_RETURN_IF_ERROR(r.u64(info.version));
    ST_RETURN_IF_ERROR(r.u64(info.inputWidth));
    ST_RETURN_IF_ERROR(r.expectEnd());
    if (info.kind != "tnn" && info.kind != "plan" && info.kind != "lsm")
        return r.fail(StatusCode::InvalidArgument,
                      "unknown model kind \"" + info.kind + "\"");
    if (info.inputWidth == 0 || info.inputWidth > kMaxInputWidth)
        return r.fail(StatusCode::OutOfRange,
                      "implausible input width " +
                          std::to_string(info.inputWidth));
    out.kind = std::move(info.kind);
    out.id = std::move(info.id);
    out.version = info.version;
    out.inputWidth = info.inputWidth;
    return Status::ok();
}

// --- tnn ------------------------------------------------------------

std::vector<uint8_t>
encodeTnn(const TnnNetwork &net)
{
    SectionWriter w;
    w.u64(net.numLayers());
    for (size_t l = 0; l < net.numLayers(); ++l) {
        const Column &col = net.layer(l);
        const ColumnParams &p = col.params();
        w.u64(p.numInputs);
        w.u64(p.numNeurons);
        w.u64(static_cast<uint64_t>(static_cast<int64_t>(p.threshold)));
        w.u64(p.maxWeight);
        w.u64(static_cast<uint64_t>(p.shape));
        w.f64(p.tauSlow);
        w.f64(p.tauFast);
        w.u64(p.rise);
        w.u64(p.fall);
        w.u64(p.wtaTau);
        w.u64(p.wtaK);
        w.f64(p.initWeight);
        w.f64(p.initJitter);
        w.u64(p.fatigue);
        w.u64(p.seed);
        // Row-major weight matrix; rows are contiguous because every
        // field above is 8 bytes, so the cursor is already aligned.
        for (size_t n = 0; n < p.numNeurons; ++n)
            w.array<double>(col.weights(n));
    }
    return w.take();
}

Status
decodeTnn(const StmfFile &file, TnnNetwork &out)
{
    if (!file.hasSection(SectionType::Tnn))
        return missingSection(SectionType::Tnn);
    SectionReader r = readerFor(file, SectionType::Tnn);

    uint64_t num_layers = 0;
    ST_RETURN_IF_ERROR(r.u64(num_layers));
    if (num_layers == 0 || num_layers > kMaxLayers)
        return r.fail(StatusCode::OutOfRange,
                      "implausible layer count " +
                          std::to_string(num_layers));

    TnnNetwork net;
    uint64_t prev_width = 0;
    for (uint64_t l = 0; l < num_layers; ++l) {
        uint64_t num_inputs = 0, num_neurons = 0, threshold = 0,
                 max_weight = 0, shape = 0, fatigue = 0, seed = 0;
        ColumnParams p;
        ST_RETURN_IF_ERROR(r.u64(num_inputs));
        ST_RETURN_IF_ERROR(r.u64(num_neurons));
        ST_RETURN_IF_ERROR(r.u64(threshold));
        ST_RETURN_IF_ERROR(r.u64(max_weight));
        ST_RETURN_IF_ERROR(r.u64(shape));
        ST_RETURN_IF_ERROR(r.f64(p.tauSlow));
        ST_RETURN_IF_ERROR(r.f64(p.tauFast));
        ST_RETURN_IF_ERROR(r.u64(p.rise));
        ST_RETURN_IF_ERROR(r.u64(p.fall));
        ST_RETURN_IF_ERROR(r.u64(p.wtaTau));
        uint64_t wta_k = 0;
        ST_RETURN_IF_ERROR(r.u64(wta_k));
        ST_RETURN_IF_ERROR(r.f64(p.initWeight));
        ST_RETURN_IF_ERROR(r.f64(p.initJitter));
        ST_RETURN_IF_ERROR(r.u64(fatigue));
        ST_RETURN_IF_ERROR(r.u64(seed));

        const std::string layer = "layer " + std::to_string(l);
        if (num_inputs == 0 || num_inputs > kMaxLayerDim ||
            num_neurons == 0 || num_neurons > kMaxLayerDim)
            return r.fail(StatusCode::OutOfRange,
                          layer + ": implausible dimensions " +
                              std::to_string(num_inputs) + "x" +
                              std::to_string(num_neurons));
        if (l > 0 && num_inputs != prev_width)
            return r.fail(StatusCode::FailedPrecondition,
                          layer + ": input width " +
                              std::to_string(num_inputs) +
                              " does not chain from previous layer's " +
                              std::to_string(prev_width) + " neurons");
        const int64_t thr = static_cast<int64_t>(threshold);
        if (thr < std::numeric_limits<int32_t>::min() ||
            thr > std::numeric_limits<int32_t>::max())
            return r.fail(StatusCode::OutOfRange,
                          layer + ": threshold out of range");
        if (shape > static_cast<uint64_t>(ResponseShape::PiecewiseLinear))
            return r.fail(StatusCode::InvalidArgument,
                          layer + ": unknown response shape " +
                              std::to_string(shape));
        if (!std::isfinite(p.tauSlow) || !std::isfinite(p.tauFast) ||
            !std::isfinite(p.initWeight) || !std::isfinite(p.initJitter))
            return r.fail(StatusCode::InvalidArgument,
                          layer + ": non-finite response parameter");
        p.numInputs = num_inputs;
        p.numNeurons = num_neurons;
        p.threshold = static_cast<ResponseFunction::Amp>(thr);
        p.maxWeight = max_weight;
        p.shape = static_cast<ResponseShape>(shape);
        p.wtaK = wta_k;
        p.fatigue = fatigue;
        p.seed = seed;

        std::span<const double> weights;
        ST_RETURN_IF_ERROR(r.array(num_inputs * num_neurons, weights));
        for (size_t i = 0; i < weights.size(); ++i)
            if (!std::isfinite(weights[i]) || weights[i] < 0.0 ||
                weights[i] > 1.0)
                return r.fail(StatusCode::InvalidArgument,
                              layer + ": weight " + std::to_string(i) +
                                  " outside [0, 1]");

        // addLayer / the Column ctor still own the deep parameter
        // checks; anything they reject is a malformed file, not a
        // crash. The direct-weights ctor skips the seeded random
        // init the stored weights would overwrite — on the demo TNN
        // that init is most of the decode cost.
        try {
            std::vector<std::vector<double>> rows(num_neurons);
            for (size_t n = 0; n < num_neurons; ++n)
                rows[n].assign(weights.begin() + n * num_inputs,
                               weights.begin() + (n + 1) * num_inputs);
            net.addLayer(Column(p, std::move(rows)));
        } catch (const std::exception &e) {
            return r.fail(StatusCode::InvalidArgument,
                          layer + ": rejected: " + e.what());
        }
        prev_width = num_neurons;
    }
    ST_RETURN_IF_ERROR(r.expectEnd());
    out = std::move(net);
    return Status::ok();
}

// --- plan -----------------------------------------------------------

std::vector<uint8_t>
encodePlan(const Network &net)
{
    const EvalPlan &plan = net.compile();
    const EvalProgram &prog = plan.live;

    SectionWriter w;
    w.u64(net.numInputs());
    w.u64(prog.outSlot.size());
    w.u64(net.size());
    w.u64(prog.size());
    w.u64(prog.argSlot.size());
    w.u64(prog.runEnd.size());
    w.u64(plan.configNodes.size());
    w.array<uint8_t>(prog.op);
    w.array<uint32_t>(prog.extra);
    w.array<uint32_t>(prog.argBeg);
    w.array<uint32_t>(prog.argSlot);
    w.array<Time::rep>(prog.argDelay);
    w.array<uint32_t>(prog.runEnd);
    w.array<uint32_t>(prog.outSlot);
    w.array<uint32_t>(plan.configNodes);
    std::vector<uint64_t> config_vals;
    config_vals.reserve(plan.configNodes.size());
    for (uint32_t id : plan.configNodes)
        config_vals.push_back(timeRep(net.getConfig(id)));
    w.array<uint64_t>(config_vals);
    return w.take();
}

Status
decodePlan(const StmfFile &file, PlanModel &out)
{
    if (!file.hasSection(SectionType::Plan))
        return missingSection(SectionType::Plan);
    SectionReader r = readerFor(file, SectionType::Plan);

    uint64_t num_inputs = 0, num_outputs = 0, num_nodes = 0,
             num_instrs = 0, num_edges = 0, num_runs = 0,
             num_configs = 0;
    ST_RETURN_IF_ERROR(r.u64(num_inputs));
    ST_RETURN_IF_ERROR(r.u64(num_outputs));
    ST_RETURN_IF_ERROR(r.u64(num_nodes));
    ST_RETURN_IF_ERROR(r.u64(num_instrs));
    ST_RETURN_IF_ERROR(r.u64(num_edges));
    ST_RETURN_IF_ERROR(r.u64(num_runs));
    ST_RETURN_IF_ERROR(r.u64(num_configs));

    if (num_inputs == 0 || num_inputs > kMaxInputWidth)
        return r.fail(StatusCode::OutOfRange,
                      "implausible input width " +
                          std::to_string(num_inputs));
    // Instruction/edge indices travel as u32 (argBeg, argSlot, runEnd).
    const uint64_t u32_max = std::numeric_limits<uint32_t>::max();
    if (num_instrs > u32_max || num_edges > u32_max)
        return r.fail(StatusCode::OutOfRange,
                      "instruction or edge count exceeds u32 range");
    if (num_configs > num_instrs)
        return r.fail(StatusCode::FailedPrecondition,
                      "config count " + std::to_string(num_configs) +
                          " exceeds instruction count " +
                          std::to_string(num_instrs));
    if (num_nodes < num_instrs)
        return r.fail(StatusCode::FailedPrecondition,
                      "node count below live instruction count");

    std::span<const uint8_t> op;
    std::span<const uint32_t> extra, arg_beg, arg_slot, run_end,
        out_slot, config_id;
    std::span<const Time::rep> arg_delay;
    std::span<const uint64_t> config_val;
    ST_RETURN_IF_ERROR(r.array(num_instrs, op));
    ST_RETURN_IF_ERROR(r.array(num_instrs, extra));
    ST_RETURN_IF_ERROR(r.array(num_instrs + 1, arg_beg));
    ST_RETURN_IF_ERROR(r.array(num_edges, arg_slot));
    ST_RETURN_IF_ERROR(r.array(num_edges, arg_delay));
    ST_RETURN_IF_ERROR(r.array(num_runs, run_end));
    ST_RETURN_IF_ERROR(r.array(num_outputs, out_slot));
    ST_RETURN_IF_ERROR(r.array(num_configs, config_id));
    ST_RETURN_IF_ERROR(r.array(num_configs, config_val));
    ST_RETURN_IF_ERROR(r.expectEnd());

    // CSR envelope.
    if (arg_beg[0] != 0)
        return r.fail(StatusCode::FailedPrecondition,
                      "argBeg[0] must be 0");
    for (uint64_t i = 0; i < num_instrs; ++i)
        if (arg_beg[i] > arg_beg[i + 1])
            return r.fail(StatusCode::FailedPrecondition,
                          "argBeg not monotone at instruction " +
                              std::to_string(i));
    if (arg_beg[num_instrs] != num_edges)
        return r.fail(StatusCode::FailedPrecondition,
                      "argBeg ends at " +
                          std::to_string(arg_beg[num_instrs]) +
                          ", expected edge count " +
                          std::to_string(num_edges));

    // Config node id -> dense table slot.
    std::unordered_map<uint32_t, uint32_t> config_slot;
    config_slot.reserve(num_configs);
    for (uint64_t k = 0; k < num_configs; ++k) {
        if (config_id[k] >= num_nodes)
            return r.fail(StatusCode::OutOfRange,
                          "config node id " +
                              std::to_string(config_id[k]) +
                              " outside node count " +
                              std::to_string(num_nodes));
        if (!config_slot
                 .emplace(config_id[k], static_cast<uint32_t>(k))
                 .second)
            return r.fail(StatusCode::FailedPrecondition,
                          "duplicate config node id " +
                              std::to_string(config_id[k]));
    }

    // Per-instruction structure: known opcode, per-op arity, operands
    // strictly before their consumer (the topological invariant every
    // executor assumes), fast binary forms delay-free.
    std::vector<uint32_t> extra_owned(extra.begin(), extra.end());
    for (uint64_t i = 0; i < num_instrs; ++i) {
        const std::string instr = "instruction " + std::to_string(i);
        if (op[i] > static_cast<uint8_t>(PlanOp::Lt2))
            return r.fail(StatusCode::InvalidArgument,
                          instr + ": unknown opcode " +
                              std::to_string(op[i]));
        const PlanOp o = static_cast<PlanOp>(op[i]);
        const uint64_t arity = arg_beg[i + 1] - arg_beg[i];
        switch (o) {
        case PlanOp::Input:
            if (arity != 0)
                return r.fail(StatusCode::FailedPrecondition,
                              instr + ": input with operands");
            if (extra[i] >= num_inputs)
                return r.fail(StatusCode::OutOfRange,
                              instr + ": input index " +
                                  std::to_string(extra[i]) +
                                  " outside width " +
                                  std::to_string(num_inputs));
            break;
        case PlanOp::Config: {
            if (arity != 0)
                return r.fail(StatusCode::FailedPrecondition,
                              instr + ": config with operands");
            auto it = config_slot.find(extra[i]);
            if (it == config_slot.end())
                return r.fail(StatusCode::FailedPrecondition,
                              instr + ": config node " +
                                  std::to_string(extra[i]) +
                                  " has no stored value");
            extra_owned[i] = it->second;
            break;
        }
        case PlanOp::Min:
        case PlanOp::Max:
            if (arity == 0)
                return r.fail(StatusCode::FailedPrecondition,
                              instr + ": nullary min/max");
            break;
        case PlanOp::Lt:
        case PlanOp::Min2:
        case PlanOp::Max2:
        case PlanOp::Lt2:
            if (arity != 2)
                return r.fail(StatusCode::FailedPrecondition,
                              instr + ": binary op with " +
                                  std::to_string(arity) + " operands");
            break;
        }
        for (uint64_t e = arg_beg[i]; e < arg_beg[i + 1]; ++e) {
            if (arg_slot[e] >= i)
                return r.fail(StatusCode::FailedPrecondition,
                              instr + ": operand slot " +
                                  std::to_string(arg_slot[e]) +
                                  " is not strictly earlier");
            if ((o == PlanOp::Min2 || o == PlanOp::Max2 ||
                 o == PlanOp::Lt2) &&
                arg_delay[e] != 0)
                return r.fail(StatusCode::FailedPrecondition,
                              instr +
                                  ": fast binary form with non-zero "
                                  "edge delay");
        }
    }

    // Run table: strictly increasing, op-uniform, covers the stream.
    if (num_instrs == 0) {
        if (num_runs != 0)
            return r.fail(StatusCode::FailedPrecondition,
                          "run table on an empty stream");
    } else {
        uint64_t prev = 0;
        for (uint64_t k = 0; k < num_runs; ++k) {
            if (run_end[k] <= prev || run_end[k] > num_instrs)
                return r.fail(StatusCode::FailedPrecondition,
                              "run table not strictly increasing at "
                              "entry " +
                                  std::to_string(k));
            for (uint64_t j = prev; j < run_end[k]; ++j)
                if (op[j] != op[prev])
                    return r.fail(StatusCode::FailedPrecondition,
                                  "mixed opcodes inside run " +
                                      std::to_string(k));
            prev = run_end[k];
        }
        if (prev != num_instrs)
            return r.fail(StatusCode::FailedPrecondition,
                          "run table ends at " + std::to_string(prev) +
                              ", expected " +
                              std::to_string(num_instrs));
    }

    for (uint64_t k = 0; k < num_outputs; ++k)
        if (out_slot[k] >= num_instrs)
            return r.fail(StatusCode::OutOfRange,
                          "output " + std::to_string(k) +
                              " gathers slot " +
                              std::to_string(out_slot[k]) +
                              " outside the stream");

    PlanModel model;
    model.numInputs_ = num_inputs;
    model.numNodes_ = num_nodes;
    model.extra_ = std::move(extra_owned);
    model.nodes_.resize(num_configs);
    for (uint64_t k = 0; k < num_configs; ++k) {
        model.nodes_[k].op = Op::Config;
        model.nodes_[k].configValue = timeFromRep(config_val[k]);
    }
    model.program_ = {op,      model.extra_, arg_beg, arg_slot,
                      arg_delay, out_slot,   run_end};
    model.backing_ = file.keepAlive();
    out = std::move(model);
    return Status::ok();
}

void
PlanModel::checkWidth(std::span<const Time> volley) const
{
    // A width mismatch would read out of the volley's bounds in the
    // Input instructions.
    if (volley.size() != numInputs_)
        throw std::invalid_argument(
            "plan model: volley width " + std::to_string(volley.size()) +
            " != " + std::to_string(numInputs_));
}

void
PlanModel::evaluate(std::span<const Time> inputs, EvalScratch &scratch,
                    std::vector<Time> &out) const
{
    checkWidth(inputs);
    runProgram(program_, nodes_, inputs, scratch.values);
    out.resize(program_.outSlot.size());
    for (size_t k = 0; k < program_.outSlot.size(); ++k)
        out[k] = scratch.values[program_.outSlot[k]];
}

std::vector<std::vector<Time>>
PlanModel::evaluateBatch(std::span<const std::vector<Time>> batch,
                         size_t nthreads) const
{
    std::vector<std::span<const Time>> volleys(batch.begin(), batch.end());
    for (std::span<const Time> v : volleys)
        checkWidth(v);
    std::vector<std::vector<Time>> out(batch.size());
    runProgramBatch(program_, nodes_, volleys, nthreads, out);
    return out;
}

// --- grl ------------------------------------------------------------

std::vector<uint8_t>
encodeGrl(const grl::Circuit &circuit)
{
    const auto &gates = circuit.gates();
    std::vector<uint8_t> kind;
    std::vector<uint32_t> stages;
    std::vector<uint64_t> const_time;
    std::vector<uint32_t> fanin_beg{0};
    std::vector<uint32_t> fanin;
    kind.reserve(gates.size());
    stages.reserve(gates.size());
    const_time.reserve(gates.size());
    fanin_beg.reserve(gates.size() + 1);
    for (const grl::Gate &g : gates) {
        kind.push_back(static_cast<uint8_t>(g.kind));
        stages.push_back(g.stages);
        const_time.push_back(timeRep(g.constTime));
        fanin.insert(fanin.end(), g.fanin.begin(), g.fanin.end());
        fanin_beg.push_back(static_cast<uint32_t>(fanin.size()));
    }

    SectionWriter w;
    w.u64(circuit.numInputs());
    w.u64(gates.size());
    w.u64(fanin.size());
    w.u64(circuit.outputs().size());
    w.array<uint8_t>(kind);
    w.array<uint32_t>(stages);
    w.array<uint64_t>(const_time);
    w.array<uint32_t>(fanin_beg);
    w.array<uint32_t>(fanin);
    w.array<uint32_t>(circuit.outputs());
    return w.take();
}

Status
decodeGrl(const StmfFile &file, grl::Circuit &out)
{
    if (!file.hasSection(SectionType::Grl))
        return missingSection(SectionType::Grl);
    SectionReader r = readerFor(file, SectionType::Grl);

    uint64_t num_inputs = 0, num_gates = 0, num_edges = 0,
             num_outputs = 0;
    ST_RETURN_IF_ERROR(r.u64(num_inputs));
    ST_RETURN_IF_ERROR(r.u64(num_gates));
    ST_RETURN_IF_ERROR(r.u64(num_edges));
    ST_RETURN_IF_ERROR(r.u64(num_outputs));
    if (num_inputs > num_gates)
        return r.fail(StatusCode::FailedPrecondition,
                      "input count " + std::to_string(num_inputs) +
                          " exceeds gate count " +
                          std::to_string(num_gates));
    if (num_gates > std::numeric_limits<uint32_t>::max() ||
        num_edges > std::numeric_limits<uint32_t>::max())
        return r.fail(StatusCode::OutOfRange,
                      "gate or edge count exceeds u32 range");

    std::span<const uint8_t> kind;
    std::span<const uint32_t> stages, fanin_beg, fanin, outputs;
    std::span<const uint64_t> const_time;
    ST_RETURN_IF_ERROR(r.array(num_gates, kind));
    ST_RETURN_IF_ERROR(r.array(num_gates, stages));
    ST_RETURN_IF_ERROR(r.array(num_gates, const_time));
    ST_RETURN_IF_ERROR(r.array(num_gates + 1, fanin_beg));
    ST_RETURN_IF_ERROR(r.array(num_edges, fanin));
    ST_RETURN_IF_ERROR(r.array(num_outputs, outputs));
    ST_RETURN_IF_ERROR(r.expectEnd());

    if (fanin_beg[0] != 0)
        return r.fail(StatusCode::FailedPrecondition,
                      "faninBeg[0] must be 0");
    for (uint64_t i = 0; i < num_gates; ++i) {
        if (fanin_beg[i] > fanin_beg[i + 1])
            return r.fail(StatusCode::FailedPrecondition,
                          "faninBeg not monotone at gate " +
                              std::to_string(i));
        if (kind[i] > static_cast<uint8_t>(grl::GateKind::Delay))
            return r.fail(StatusCode::InvalidArgument,
                          "gate " + std::to_string(i) +
                              ": unknown kind " +
                              std::to_string(kind[i]));
    }
    if (fanin_beg[num_gates] != num_edges)
        return r.fail(StatusCode::FailedPrecondition,
                      "faninBeg ends at " +
                          std::to_string(fanin_beg[num_gates]) +
                          ", expected edge count " +
                          std::to_string(num_edges));
    for (uint64_t i = 0; i < num_inputs; ++i) {
        if (kind[i] != static_cast<uint8_t>(grl::GateKind::Input))
            return r.fail(StatusCode::FailedPrecondition,
                          "gate " + std::to_string(i) +
                              " in the input prefix is not an input");
        if (fanin_beg[i + 1] != fanin_beg[i])
            return r.fail(StatusCode::FailedPrecondition,
                          "input gate " + std::to_string(i) +
                              " has fanin edges");
    }
    for (uint64_t k = 0; k < num_outputs; ++k)
        if (outputs[k] >= num_gates)
            return r.fail(StatusCode::OutOfRange,
                          "output " + std::to_string(k) +
                              " references gate " +
                              std::to_string(outputs[k]) +
                              " outside the netlist");

    // The constructor pre-seeds the input prefix; everything after it
    // goes in unchecked and is gated behind the structural validator
    // (fanin ranges, arities, delay-free cycles).
    grl::Circuit circuit(num_inputs);
    for (uint64_t i = num_inputs; i < num_gates; ++i) {
        grl::Gate g;
        g.kind = static_cast<grl::GateKind>(kind[i]);
        g.fanin.assign(fanin.begin() + fanin_beg[i],
                       fanin.begin() + fanin_beg[i + 1]);
        g.stages = stages[i];
        g.constTime = timeFromRep(const_time[i]);
        circuit.addGateUnchecked(std::move(g));
    }
    for (uint64_t k = 0; k < num_outputs; ++k)
        circuit.markOutput(outputs[k]);
    if (Status v = circuit.validate(); !v.isOk())
        return r.failAt(0, v.code(),
                        "circuit validation failed: " + v.message() +
                            (v.context().empty()
                                 ? ""
                                 : " (" + v.context() + ")"));
    out = std::move(circuit);
    return Status::ok();
}

// --- lsm ------------------------------------------------------------

std::vector<uint8_t>
encodeLsm(const LsmModelConfig &config)
{
    const ReservoirParams &p = config.params;
    SectionWriter w;
    w.u64(p.numInputs);
    w.u64(p.numNeurons);
    w.u64(p.refractory);
    w.u64(p.seed);
    w.u64(config.stepsPerVolley);
    w.f64(p.connectProb);
    w.f64(p.inputProb);
    w.f64(p.excitatoryFraction);
    w.f64(p.weightScale);
    w.f64(p.inputScale);
    w.f64(p.leak);
    w.f64(p.threshold);
    w.f64(p.traceLeak);
    w.f64(config.emaAlpha);
    return w.take();
}

Status
decodeLsm(const StmfFile &file, LsmModelConfig &out)
{
    if (!file.hasSection(SectionType::Lsm))
        return missingSection(SectionType::Lsm);
    SectionReader r = readerFor(file, SectionType::Lsm);

    LsmModelConfig cfg;
    ReservoirParams &p = cfg.params;
    uint64_t num_inputs = 0, num_neurons = 0, refractory = 0;
    ST_RETURN_IF_ERROR(r.u64(num_inputs));
    ST_RETURN_IF_ERROR(r.u64(num_neurons));
    ST_RETURN_IF_ERROR(r.u64(refractory));
    ST_RETURN_IF_ERROR(r.u64(p.seed));
    ST_RETURN_IF_ERROR(r.u64(cfg.stepsPerVolley));
    ST_RETURN_IF_ERROR(r.f64(p.connectProb));
    ST_RETURN_IF_ERROR(r.f64(p.inputProb));
    ST_RETURN_IF_ERROR(r.f64(p.excitatoryFraction));
    ST_RETURN_IF_ERROR(r.f64(p.weightScale));
    ST_RETURN_IF_ERROR(r.f64(p.inputScale));
    ST_RETURN_IF_ERROR(r.f64(p.leak));
    ST_RETURN_IF_ERROR(r.f64(p.threshold));
    ST_RETURN_IF_ERROR(r.f64(p.traceLeak));
    ST_RETURN_IF_ERROR(r.f64(cfg.emaAlpha));
    ST_RETURN_IF_ERROR(r.expectEnd());

    if (num_inputs == 0 || num_inputs > kMaxInputWidth)
        return r.fail(StatusCode::OutOfRange,
                      "implausible input count " +
                          std::to_string(num_inputs));
    if (num_neurons == 0 || num_neurons > kMaxLsmNeurons)
        return r.fail(StatusCode::OutOfRange,
                      "implausible reservoir size " +
                          std::to_string(num_neurons));
    if (refractory > std::numeric_limits<uint32_t>::max())
        return r.fail(StatusCode::OutOfRange,
                      "refractory exceeds u32 range");
    if (cfg.stepsPerVolley == 0 || cfg.stepsPerVolley > kMaxLsmSteps)
        return r.fail(StatusCode::OutOfRange,
                      "implausible steps-per-volley " +
                          std::to_string(cfg.stepsPerVolley));
    const auto probability = [](double v) {
        return std::isfinite(v) && v >= 0.0 && v <= 1.0;
    };
    if (!probability(p.connectProb) || !probability(p.inputProb) ||
        !probability(p.excitatoryFraction) || !probability(p.leak) ||
        !probability(p.traceLeak))
        return r.fail(StatusCode::InvalidArgument,
                      "probability parameter outside [0, 1]");
    if (!std::isfinite(p.weightScale) || !std::isfinite(p.inputScale) ||
        !std::isfinite(p.threshold))
        return r.fail(StatusCode::InvalidArgument,
                      "non-finite reservoir parameter");
    if (!std::isfinite(cfg.emaAlpha) || cfg.emaAlpha <= 0.0 ||
        cfg.emaAlpha > 1.0)
        return r.fail(StatusCode::InvalidArgument,
                      "ema alpha outside (0, 1]");
    p.numInputs = num_inputs;
    p.numNeurons = num_neurons;
    p.refractory = static_cast<uint32_t>(refractory);
    out = std::move(cfg);
    return Status::ok();
}

// --- pack / load ----------------------------------------------------

Status
packTnn(const TnnNetwork &net, const std::string &path,
        const PackOptions &options)
{
    if (net.numLayers() == 0)
        return Status(StatusCode::InvalidArgument,
                      "packTnn: network has no layers");
    ModelInfo info;
    info.kind = "tnn";
    info.id = options.id;
    info.version = options.version;
    info.inputWidth = net.layer(0).params().numInputs;
    StmfBuilder builder;
    builder.addSection(SectionType::Meta, encodeMeta(info));
    builder.addSection(SectionType::Tnn, encodeTnn(net));
    return builder.writeFile(path);
}

Status
packNetwork(const Network &net, const std::string &path,
            const PackOptions &options, bool with_grl)
{
    if (net.numInputs() == 0)
        return Status(StatusCode::InvalidArgument,
                      "packNetwork: network has no inputs");
    ModelInfo info;
    info.kind = "plan";
    info.id = options.id;
    info.version = options.version;
    info.inputWidth = net.numInputs();
    StmfBuilder builder;
    builder.addSection(SectionType::Meta, encodeMeta(info));
    builder.addSection(SectionType::Plan, encodePlan(net));
    if (with_grl) {
        try {
            builder.addSection(SectionType::Grl,
                               encodeGrl(grl::compileToGrl(net).circuit));
        } catch (const std::exception &e) {
            return Status(StatusCode::InvalidArgument,
                          std::string("packNetwork: ") + e.what());
        }
    }
    return builder.writeFile(path);
}

Status
packLsm(const LsmModelConfig &config, const std::string &path,
        const PackOptions &options)
{
    ModelInfo info;
    info.kind = "lsm";
    info.id = options.id;
    info.version = options.version;
    info.inputWidth = config.params.numInputs;
    StmfBuilder builder;
    builder.addSection(SectionType::Meta, encodeMeta(info));
    builder.addSection(SectionType::Lsm, encodeLsm(config));
    return builder.writeFile(path);
}

namespace {

Status
widthMismatch(uint64_t meta, uint64_t payload)
{
    return Status(StatusCode::FailedPrecondition,
                  "meta input width " + std::to_string(meta) +
                      " does not match payload width " +
                      std::to_string(payload),
                  "section meta");
}

Status
smokeFailed(const char *what)
{
    return Status(StatusCode::FailedPrecondition,
                  std::string("smoke evaluation failed: ") + what);
}

} // namespace

Status
loadModel(const std::string &path, LoadMode mode, LoadedModel &out)
{
    StmfFile file;
    ST_RETURN_IF_ERROR(StmfFile::open(path, mode, file));

    LoadedModel loaded;
    ST_RETURN_IF_ERROR(decodeMeta(file, loaded.info));
    loaded.info.fileCrc = file.fileCrc();
    loaded.info.fileBytes = file.fileBytes();
    loaded.info.mode = file.mode();
    loaded.info.path = path;
    const Volley probe(loaded.info.inputWidth, Time(0));

    if (loaded.info.kind == "tnn") {
        auto net = std::make_shared<TnnNetwork>();
        ST_RETURN_IF_ERROR(decodeTnn(file, *net));
        if (net->layer(0).params().numInputs != loaded.info.inputWidth)
            return widthMismatch(loaded.info.inputWidth,
                                 net->layer(0).params().numInputs);
        try {
            (void)net->process(probe);
        } catch (const std::exception &e) {
            return smokeFailed(e.what());
        }
        loaded.tnn = std::move(net);
    } else if (loaded.info.kind == "plan") {
        auto plan = std::make_shared<PlanModel>();
        ST_RETURN_IF_ERROR(decodePlan(file, *plan));
        if (plan->numInputs() != loaded.info.inputWidth)
            return widthMismatch(loaded.info.inputWidth,
                                 plan->numInputs());
        try {
            EvalScratch scratch;
            std::vector<Time> outputs;
            plan->evaluate(probe, scratch, outputs);
        } catch (const std::exception &e) {
            return smokeFailed(e.what());
        }
        // A GRL netlist riding along is part of the artifact: a model
        // is only publishable if every payload it carries validates.
        if (file.hasSection(SectionType::Grl)) {
            grl::Circuit circuit(0);
            ST_RETURN_IF_ERROR(decodeGrl(file, circuit));
        }
        loaded.plan = std::move(plan);
    } else { // "lsm" — decodeMeta admits no other kind
        auto config = std::make_shared<LsmModelConfig>();
        ST_RETURN_IF_ERROR(decodeLsm(file, *config));
        if (config->params.numInputs != loaded.info.inputWidth)
            return widthMismatch(loaded.info.inputWidth,
                                 config->params.numInputs);
        try {
            Reservoir reservoir(config->params);
            reservoir.runVolley(probe, config->stepsPerVolley);
        } catch (const std::exception &e) {
            return smokeFailed(e.what());
        }
        loaded.lsm = std::move(config);
    }
    out = std::move(loaded);
    return Status::ok();
}

} // namespace st::model
