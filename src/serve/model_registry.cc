#include "serve/model_registry.hh"

#include <algorithm>

namespace concorde
{
namespace serve
{

ModelHandle
ModelRegistry::add(const std::string &name, ConcordePredictor predictor)
{
    auto shared = std::make_shared<const ConcordePredictor>(
        std::move(predictor));
    std::lock_guard<std::mutex> lock(mtx);
    ModelHandle &slot = models[name];
    slot.name = name;
    slot.id = nextId++;
    slot.predictor = std::move(shared);
    slot.provenance = nullptr;
    slot.calibration = nullptr;
    return slot;
}

ModelHandle
ModelRegistry::addArtifact(const std::string &name,
                           const ModelArtifact &artifact)
{
    // Build the snapshot outside the lock; only the table swap is
    // serialized.
    auto shared =
        std::make_shared<const ConcordePredictor>(artifact.predictor());
    auto provenance =
        std::make_shared<const ArtifactProvenance>(artifact.provenance);
    std::shared_ptr<const ConformalCalibration> calibration;
    if (artifact.calibrated()) {
        calibration = std::make_shared<const ConformalCalibration>(
            artifact.calibration);
    }
    std::lock_guard<std::mutex> lock(mtx);
    ModelHandle &slot = models[name];
    slot.name = name;
    slot.id = nextId++;
    slot.predictor = std::move(shared);
    slot.provenance = std::move(provenance);
    slot.calibration = std::move(calibration);
    return slot;
}

ModelHandle
ModelRegistry::addFromArtifactFile(const std::string &name,
                                   const std::string &path)
{
    return addArtifact(name, ModelArtifact::load(path));
}

ModelHandle
ModelRegistry::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    const auto it = models.find(name);
    return it == models.end() ? ModelHandle{} : it->second;
}

bool
ModelRegistry::remove(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    return models.erase(name) > 0;
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::vector<std::string> out;
    {
        std::lock_guard<std::mutex> lock(mtx);
        out.reserve(models.size());
        for (const auto &[name, handle] : models)
            out.push_back(name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

size_t
ModelRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return models.size();
}

} // namespace serve
} // namespace concorde
