/**
 * @file
 * The workload corpus: 29 synthetic programs mirroring Table 2 of the paper
 * (13 proprietary, 2 cloud, 4 open, 10 SPEC2017). Each entry pairs a
 * WorkloadProfile tuned to echo its namesake's qualitative character with
 * trace-count / trace-length metadata used for region sampling.
 */

#ifndef CONCORDE_TRACE_WORKLOADS_HH
#define CONCORDE_TRACE_WORKLOADS_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/program_model.hh"

namespace concorde
{

/** Corpus entry: a program, its traces, and its generator seed. */
struct ProgramInfo
{
    WorkloadProfile profile;
    int numTraces = 2;
    uint64_t chunksPerTrace = 256;  ///< trace length in kChunkLen units
    uint64_t seed = 0;

    /** Short code used in the paper's plots, e.g. "S1". */
    std::string code() const;
};

/** The 29-program corpus (stable order; index = program id). */
const std::vector<ProgramInfo> &workloadCorpus();

/** Cached ProgramModel for a corpus entry. */
const ProgramModel &programModel(int program_id);

/** Materialize the instructions of a region. */
TraceColumns generateRegion(const RegionSpec &spec);

/**
 * Sample a random region of the given length: program uniform over traces
 * weighted by trace length (paper Section 4), then a uniform chunk-aligned
 * offset within the trace.
 */
RegionSpec sampleRegion(Rng &rng, uint32_t num_chunks);

/** Sample a region from a specific program. */
RegionSpec sampleRegionFromProgram(Rng &rng, int program_id,
                                   uint32_t num_chunks);

/** Program id for a short code like "S1" or "P9"; -1 if unknown. */
int programIdByCode(const std::string &code);

} // namespace concorde

#endif // CONCORDE_TRACE_WORKLOADS_HH
