/**
 * @file
 * ModelRegistry + the ServeModel adapters over loaded STMF models.
 */

#include "serve/registry.hpp"

#include <dirent.h>

#include <stdexcept>
#include <utility>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace st::serve {

namespace {

/** Session id the canary probe runs under; never a real session (the
 *  server allocates ids from 1 upward), so a stateful candidate's
 *  canary state is scoped to this key and dropped right after. */
constexpr uint64_t kCanarySession = ~0ULL;

} // namespace

ModelRegistry::ModelRegistry(std::shared_ptr<ServeModel> model,
                             model::ModelInfo info)
{
    auto version = std::make_shared<ModelVersion>();
    version->model = std::move(model);
    version->info = std::move(info);
    version->epoch = 1;
    current_ = std::move(version);
}

std::shared_ptr<const ModelVersion>
ModelRegistry::current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

uint64_t
ModelRegistry::epoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_->epoch;
}

uint64_t
ModelRegistry::swapCount() const
{
    return swaps_.load(std::memory_order_relaxed);
}

uint64_t
ModelRegistry::failedSwapCount() const
{
    return failed_.load(std::memory_order_relaxed);
}

Status
ModelRegistry::swap(std::shared_ptr<ServeModel> candidate,
                    model::ModelInfo info)
{
    if (!candidate)
        return Status(StatusCode::InvalidArgument,
                      "swap: null candidate model");

    // One swap at a time; the canary runs under the lock so two racing
    // reloads cannot both probe against the same incumbent and publish
    // out of order.
    std::lock_guard<std::mutex> lock(mutex_);
    const std::shared_ptr<const ModelVersion> incumbent = current_;

    const Status verdict = [&]() -> Status {
        if (candidate->numInputs() != incumbent->model->numInputs())
            return Status(
                StatusCode::FailedPrecondition,
                "candidate input width " +
                    std::to_string(candidate->numInputs()) +
                    " does not match serving width " +
                    std::to_string(incumbent->model->numInputs()));
        BatchItem item;
        item.session = kCanarySession;
        item.seq = 0;
        item.volley = Volley(candidate->numInputs(), Time(0));
        try {
            std::vector<std::string> payloads = candidate->processBatch(
                std::span<const BatchItem>(&item, 1), 1);
            if (payloads.size() != 1)
                return Status(StatusCode::Internal,
                              "canary batch returned " +
                                  std::to_string(payloads.size()) +
                                  " payloads for 1 item");
        } catch (const std::exception &e) {
            return Status(StatusCode::FailedPrecondition,
                          std::string("canary volley failed: ") +
                              e.what());
        }
        candidate->endSession(kCanarySession);
        return Status::ok();
    }();

    if (!verdict.isOk()) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        ST_OBS_ADD("model.swap_failed", 1);
        ST_LOG_WARN("model.registry",
                    "swap to \"" + info.id + "\" v" +
                        std::to_string(info.version) +
                        " rejected; incumbent v" +
                        std::to_string(incumbent->info.version) +
                        " (epoch " +
                        std::to_string(incumbent->epoch) +
                        ") keeps serving: " + verdict.str());
        obs::FlightRecorder::instance().record(
            "model.swap_failed", info.version, incumbent->epoch,
            verdict.str());
        return verdict;
    }

    auto next = std::make_shared<ModelVersion>();
    next->model = std::move(candidate);
    next->info = std::move(info);
    next->epoch = incumbent->epoch + 1;
    current_ = next;
    swaps_.fetch_add(1, std::memory_order_relaxed);
    ST_OBS_ADD("model.swap.ok", 1);
    ST_LOG_INFO("model.registry",
                "published \"" + next->info.id + "\" v" +
                    std::to_string(next->info.version) + " at epoch " +
                    std::to_string(next->epoch) +
                    "; in-flight batches finish on epoch " +
                    std::to_string(incumbent->epoch));
    obs::FlightRecorder::instance().record("model.swap",
                                           next->info.version,
                                           next->epoch);
    return Status::ok();
}

// --- PlanServeModel -------------------------------------------------

PlanServeModel::PlanServeModel(
    std::shared_ptr<const model::PlanModel> plan)
    : plan_(std::move(plan))
{
}

std::vector<std::string>
PlanServeModel::processBatch(std::span<const BatchItem> items,
                             size_t nthreads)
{
    // evaluateBatch checks every width before it evaluates anything,
    // so a bad volley throws here and the server's item-by-item retry
    // poisons just that one.
    std::vector<std::vector<Time>> volleys;
    volleys.reserve(items.size());
    for (const BatchItem &item : items)
        volleys.push_back(item.volley);
    const std::vector<std::vector<Time>> outs =
        plan_->evaluateBatch(volleys, nthreads);
    std::vector<std::string> payloads;
    payloads.reserve(outs.size());
    for (const std::vector<Time> &out : outs)
        payloads.push_back(wireVolley(out));
    return payloads;
}

// --- loaded-model adapters ------------------------------------------

std::unique_ptr<ServeModel>
makeServeModel(const model::LoadedModel &loaded)
{
    if (loaded.tnn)
        return std::make_unique<TnnServeModel>(*loaded.tnn);
    if (loaded.plan)
        return std::make_unique<PlanServeModel>(loaded.plan);
    if (loaded.lsm)
        return std::make_unique<LsmAnomalyModel>(
            loaded.lsm->params, loaded.lsm->stepsPerVolley,
            loaded.lsm->emaAlpha);
    return nullptr;
}

Status
pickLatestModel(const std::string &dir, std::string &path_out,
                Status *skipped)
{
    if (skipped != nullptr)
        *skipped = Status::ok();
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return Status(StatusCode::NotFound,
                      "cannot open model directory " + dir);
    std::string best;
    uint64_t best_version = 0;
    bool found = false;
    const auto noteSkip = [&](const std::string &path,
                              const Status &why) {
        if (skipped != nullptr && skipped->isOk())
            *skipped = Status(why.code(),
                              path + ": " + why.message(),
                              why.context());
    };
    while (struct dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        constexpr std::string_view suffix = ".stmf";
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        const std::string path = dir + "/" + name;
        model::StmfFile file;
        if (Status open =
                model::StmfFile::open(path, model::LoadMode::Copy,
                                      file);
            !open.isOk()) {
            noteSkip(path, open); // a corrupt sibling never blocks
            continue;
        }
        model::ModelInfo info;
        if (Status meta = model::decodeMeta(file, info);
            !meta.isOk()) {
            noteSkip(path, meta);
            continue;
        }
        if (!found || info.version > best_version ||
            (info.version == best_version && path > best)) {
            found = true;
            best_version = info.version;
            best = path;
        }
    }
    ::closedir(d);
    if (!found)
        return Status(StatusCode::NotFound,
                      "no valid .stmf model in " + dir);
    path_out = best;
    return Status::ok();
}

} // namespace st::serve
