/**
 * @file
 * ModelRegistry: hot-swappable model versions under live traffic.
 *
 * The registry owns the *published* model: an immutable ModelVersion
 * (engine + identity + swap epoch) behind a shared_ptr. The batcher
 * pins the current version for the duration of one batch, so a swap
 * never yanks an engine out from under in-flight work — the old
 * version lives until its last pinned batch releases it (refcounted
 * epochs), while every batch formed after the publish sees the new
 * one.
 *
 * swap() is gated by a canary: the candidate must match the incumbent
 * input width (live sessions already negotiated their volley width)
 * and must survive a probe volley through its own processBatch before
 * anything is published. A failed canary changes nothing — the
 * incumbent keeps serving, `model.swap_failed` ticks, and the failure
 * is logged with the loader's contextual Status. Rollback is therefore
 * not an action but the absence of a publish.
 *
 * Concurrency: publication is a mutex-guarded shared_ptr store and
 * current() a mutex-guarded load — the uncontended path is a few
 * nanoseconds per *batch* (not per volley), TSan-clean, and free of
 * the platform lottery around std::atomic<shared_ptr>.
 */

#ifndef ST_SERVE_REGISTRY_HPP
#define ST_SERVE_REGISTRY_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "model/serialize.hpp"
#include "serve/model.hpp"

namespace st::serve {

/** One published (or retired) model version. Immutable once built. */
struct ModelVersion
{
    std::shared_ptr<ServeModel> model;
    model::ModelInfo info;
    /** Monotone swap epoch: 1 for the boot model, +1 per publish. */
    uint64_t epoch = 0;
};

/** The swap-safe holder of the currently published model version. */
class ModelRegistry
{
  public:
    /** Seed with the boot model (epoch 1). @p model must be non-null. */
    ModelRegistry(std::shared_ptr<ServeModel> model,
                  model::ModelInfo info);

    /** Pin the published version (never null). */
    std::shared_ptr<const ModelVersion> current() const;

    /** Epoch of the published version. */
    uint64_t epoch() const;

    /** Successful swaps since boot (the boot publish not counted). */
    uint64_t swapCount() const;

    /** Canary-rejected swap attempts since boot. */
    uint64_t failedSwapCount() const;

    /**
     * Canary + publish: verify @p candidate against the incumbent
     * (input width) and probe one volley through it; on success
     * publish it as the next epoch, on failure leave the incumbent
     * untouched and return why. Thread-safe; concurrent swaps
     * serialize.
     */
    Status swap(std::shared_ptr<ServeModel> candidate,
                model::ModelInfo info);

  private:
    mutable std::mutex mutex_;
    std::shared_ptr<const ModelVersion> current_;
    std::atomic<uint64_t> swaps_{0};
    std::atomic<uint64_t> failed_{0};
};

/**
 * A stateless ServeModel over a loaded compiled-plan model. A batch
 * evaluates on the instruction stream viewed in the STMF backing (the
 * plan holds its keepalive) through PlanModel::evaluateBatch: SIMD
 * blocks of eight volleys spread over the shared pool's lanes.
 */
class PlanServeModel : public ServeModel
{
  public:
    explicit PlanServeModel(
        std::shared_ptr<const model::PlanModel> plan);

    size_t numInputs() const override { return plan_->numInputs(); }
    std::string name() const override { return "plan"; }
    bool transactional() const override { return true; } // stateless
    std::vector<std::string>
    processBatch(std::span<const BatchItem> items,
                 size_t nthreads) override;

  private:
    std::shared_ptr<const model::PlanModel> plan_;
};

/**
 * Wrap a loadModel() result in the matching ServeModel (TNN batch
 * engine, plan executor, or per-session LSM anomaly scorer). Never
 * null for a LoadedModel produced by a successful loadModel().
 */
std::unique_ptr<ServeModel>
makeServeModel(const model::LoadedModel &loaded);

/**
 * Pick the serving candidate from @p dir: the readable *.stmf with
 * the highest META model version (ties to the lexicographically last
 * path, so "v2b.stmf" beats "v2.stmf" at equal versions). Files that
 * fail container validation are skipped — a half-corrupt directory
 * still yields the best valid model — but the first skip's contextual
 * Status is reported through @p skipped (left ok when every file
 * validated), so an operator's reload reply can say *why* a file was
 * passed over. NotFound when no candidate validates.
 */
Status pickLatestModel(const std::string &dir, std::string &path_out,
                       Status *skipped = nullptr);

} // namespace st::serve

#endif // ST_SERVE_REGISTRY_HPP
