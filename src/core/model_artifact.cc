#include "core/model_artifact.hh"

#include "common/logging.hh"

// Build-time git-describe stamp (regenerated every build by the
// concorde_git_describe custom target; see cmake/git_describe.cmake).
#ifdef CONCORDE_GIT_HEADER_AVAILABLE
#include "concorde_git_describe.hh"
#endif

namespace concorde
{

namespace
{

/** "CNCART01" little-endian. */
constexpr uint64_t kArtifactMagic = 0x3130545241434e43ULL;
/** v2 = v1 + optional conformal-calibration section. */
constexpr uint32_t kArtifactVersion = 2;
constexpr uint32_t kMinArtifactVersion = 1;

} // anonymous namespace

void
ModelArtifact::save(const std::string &path) const
{
    panic_if(!model.valid(), "save() on an empty artifact");
    const std::string tmp = uniqueTmpName(path);
    {
        BinaryWriter out(tmp);
        out.put<uint64_t>(kArtifactMagic);
        out.put<uint32_t>(kArtifactVersion);
        saveFeatureConfig(out, features);
        model.save(out);
        out.put<uint64_t>(provenance.datasetManifestHash);
        out.putString(provenance.datasetPath);
        out.putString(provenance.gitDescribe);
        saveTrainConfig(out, provenance.trainConfig);
        out.put<uint64_t>(provenance.trainedEpochs);
        out.put<double>(provenance.heldOutRelErr);
        out.put<uint8_t>(calibration.valid() ? 1 : 0);
        if (calibration.valid())
            calibration.save(out);
    }
    publishFile(tmp, path);
}

ModelArtifact
ModelArtifact::load(const std::string &path)
{
    BinaryReader in(path);
    fatal_if(in.get<uint64_t>() != kArtifactMagic,
             "'%s' is not a Concorde model artifact", path.c_str());
    const uint32_t version = in.get<uint32_t>();
    fatal_if(version < kMinArtifactVersion || version > kArtifactVersion,
             "'%s': unsupported artifact version %u", path.c_str(),
             version);
    ModelArtifact artifact;
    artifact.features = loadFeatureConfig(in);
    artifact.model = TrainedModel::load(in);
    artifact.provenance.datasetManifestHash = in.get<uint64_t>();
    artifact.provenance.datasetPath = in.getString();
    artifact.provenance.gitDescribe = in.getString();
    artifact.provenance.trainConfig = loadTrainConfig(in);
    artifact.provenance.trainedEpochs = in.get<uint64_t>();
    artifact.provenance.heldOutRelErr = in.get<double>();
    // v1 predates calibration: such artifacts load fine and simply
    // report uncalibrated (point-only serving).
    if (version >= 2 && in.get<uint8_t>() != 0)
        artifact.calibration = ConformalCalibration::load(in);
    return artifact;
}

std::string
buildGitDescribe()
{
#ifdef CONCORDE_GIT_DESCRIBE_STR
    return CONCORDE_GIT_DESCRIBE_STR;
#else
    return "unknown";
#endif
}

} // namespace concorde
