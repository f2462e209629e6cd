/**
 * @file
 * STMF payload codecs + the high-level model load/pack API.
 *
 * Three model kinds ship in an STMF container (stmf.hpp):
 *
 *   - "tnn":  a TnnNetwork — per-layer ColumnParams + trained weights.
 *             Decoding rebuilds Columns (their lazy response-model
 *             caches are derived state), so both load paths copy the
 *             weight doubles; the win over tnn_io text is skipping the
 *             17-digit decimal round-trip, not the copy.
 *   - "plan": a compiled s-t network — the live EvalProgram of
 *             Network::compile() plus the config-node values and
 *             output slots it needs to run stand-alone. This is the
 *             mmap + pointer-fixup path: PlanModel executes spans
 *             that point straight into the file backing.
 *   - "lsm":  the LSM anomaly model's ReservoirParams + scoring knobs
 *             (reservoirs themselves are deterministically re-derived
 *             per session from the seed).
 *
 * A "plan" container may additionally carry a "grl" section (the
 * circuit CSR netlist compileToGrl produces) for hardware-path
 * consumers; decodeGrl rebuilds it through addGateUnchecked and gates
 * it behind Circuit::validate().
 *
 * Every decoder treats the payload as hostile: counts are checked
 * against the section extent before anything is allocated, indices
 * are range-checked (instruction operands must reference earlier
 * slots — the topological invariant the executors assume), and every
 * rejection is a contextual st::Status. loadModel() finishes with a
 * smoke evaluation so a file that parses but cannot run is rejected
 * before it is ever published.
 */

#ifndef ST_MODEL_SERIALIZE_HPP
#define ST_MODEL_SERIALIZE_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/eval_plan.hpp"
#include "core/network.hpp"
#include "grl/netlist.hpp"
#include "model/stmf.hpp"
#include "tnn/lsm.hpp"
#include "tnn/tnn_network.hpp"

namespace st::model {

/** Identity + provenance of one packed/loaded model. */
struct ModelInfo
{
    std::string kind;        //!< "tnn" | "plan" | "lsm"
    std::string id;          //!< operator-chosen model name
    uint64_t version = 0;    //!< monotone model version (not format)
    uint64_t inputWidth = 0; //!< expected volley width
    /** Filled by the loader (not stored in META). */
    uint32_t fileCrc = 0;
    uint64_t fileBytes = 0;
    LoadMode mode = LoadMode::Copy;
    std::string path;
};

/**
 * A compiled s-t network model executable without its Network: the
 * live instruction stream (viewed in place — in the file mapping on
 * the mmap path, in the shared read buffer on the copy path), a
 * minimal node table rebuilt for Config value reads, and the output
 * gather slots. Immutable after decode; evaluate() is const and
 * thread-safe with per-caller scratch.
 */
class PlanModel
{
  public:
    size_t numInputs() const { return numInputs_; }
    size_t numOutputs() const { return program_.outSlot.size(); }

    /** Original node count of the compiled network (diagnostics). */
    size_t numNodes() const { return numNodes_; }

    /** The validated instruction stream (views into the backing). */
    const EvalProgramView &program() const { return program_; }

    /**
     * Evaluate one volley into @p out (resized to numOutputs()).
     * Throws std::invalid_argument if its width is not numInputs().
     */
    void evaluate(std::span<const Time> inputs, EvalScratch &scratch,
                  std::vector<Time> &out) const;

    /**
     * Evaluate a batch of independent volleys on the shared batch
     * executor (runProgramBatch: lane-blocked SIMD blocks over up to
     * @p nthreads pool lanes, 0 = the default). out[i] ==
     * evaluate(batch[i]) bit-for-bit at every thread count. Throws
     * std::invalid_argument, before evaluating anything, if a volley's
     * width is not numInputs().
     */
    std::vector<std::vector<Time>>
    evaluateBatch(std::span<const std::vector<Time>> batch,
                  size_t nthreads = 0) const;

  private:
    friend Status decodePlan(const StmfFile &file, PlanModel &out);

    /** Throw std::invalid_argument unless @p volley has numInputs(). */
    void checkWidth(std::span<const Time> volley) const;

    EvalProgramView program_;
    /**
     * Owned copy of the extra array with Config operands remapped to
     * dense indices into nodes_. The on-disk stream stores original
     * network node ids, which may be sparse in a huge (mostly dead)
     * node space; remapping bounds the rebuilt table by the config
     * count instead of letting a hostile node-count claim drive the
     * allocation. All other program arrays view the file backing.
     */
    std::vector<uint32_t> extra_;
    std::vector<Node> nodes_; //!< dense Config value table
    uint64_t numInputs_ = 0;
    uint64_t numNodes_ = 0;
    std::shared_ptr<const void> backing_; //!< keeps the views alive
};

/** The LSM serve model's full configuration. */
struct LsmModelConfig
{
    ReservoirParams params;
    uint64_t stepsPerVolley = 8;
    double emaAlpha = 0.2;
};

// --- section codecs -------------------------------------------------

std::vector<uint8_t> encodeMeta(const ModelInfo &info);
Status decodeMeta(const StmfFile &file, ModelInfo &out);

std::vector<uint8_t> encodeTnn(const TnnNetwork &net);
Status decodeTnn(const StmfFile &file, TnnNetwork &out);

/** Compile (or fetch) @p net's plan and serialize the live program. */
std::vector<uint8_t> encodePlan(const Network &net);
Status decodePlan(const StmfFile &file, PlanModel &out);

std::vector<uint8_t> encodeGrl(const grl::Circuit &circuit);
Status decodeGrl(const StmfFile &file, grl::Circuit &out);

std::vector<uint8_t> encodeLsm(const LsmModelConfig &config);
Status decodeLsm(const StmfFile &file, LsmModelConfig &out);

// --- whole-file pack / load ----------------------------------------

/** Operator-chosen identity attached to a packed file. */
struct PackOptions
{
    std::string id = "model";
    uint64_t version = 1;
};

/** Pack a TNN into "<path>" (atomic publish; see StmfBuilder). */
Status packTnn(const TnnNetwork &net, const std::string &path,
               const PackOptions &options);

/**
 * Pack a compiled network as a "plan" model; @p with_grl additionally
 * compiles the network to a GRL netlist and embeds its CSR section.
 */
Status packNetwork(const Network &net, const std::string &path,
                   const PackOptions &options, bool with_grl = false);

/** Pack an LSM anomaly-model configuration. */
Status packLsm(const LsmModelConfig &config, const std::string &path,
               const PackOptions &options);

/**
 * One loaded model of any kind: info.kind names which pointer is set.
 * The pointers are shared so a serving layer can hand the payload to
 * a ServeModel while the registry keeps the info.
 */
struct LoadedModel
{
    ModelInfo info;
    std::shared_ptr<TnnNetwork> tnn;
    std::shared_ptr<PlanModel> plan;
    std::shared_ptr<LsmModelConfig> lsm;
};

/**
 * Open + validate @p path, decode META + the kind's payload section,
 * and run one smoke volley (all-zero inputs) through the decoded
 * model — the canary's "does it actually evaluate" leg. On any
 * failure @p out is untouched and the incumbent (if any) is the
 * caller's to keep serving.
 */
Status loadModel(const std::string &path, LoadMode mode,
                 LoadedModel &out);

} // namespace st::model

#endif // ST_MODEL_SERIALIZE_HPP
