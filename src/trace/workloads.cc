#include "trace/workloads.hh"

#include <map>
#include <memory>
#include <mutex>

#include "common/logging.hh"

namespace concorde
{

std::string
ProgramInfo::code() const
{
    const auto dot = profile.name.find('.');
    return dot == std::string::npos ? profile.name
                                    : profile.name.substr(0, dot);
}

namespace
{

PhaseProfile
phase(double seq, double stride, double chase, uint64_t ws_bytes,
      double zipf = 0.6, int stride_bytes = 256, double fwd = 0.05,
      double store_seq = 0.5)
{
    PhaseProfile p;
    p.seqFrac = seq;
    p.strideFrac = stride;
    p.chaseFrac = chase;
    p.forwardFrac = fwd;
    p.wsBytes = ws_bytes;
    p.wsZipf = zipf;
    p.strideBytes = stride_bytes;
    p.storeSeqFrac = store_seq;
    return p;
}

constexpr uint64_t KB = 1024;
constexpr uint64_t MB = 1024 * 1024;

std::vector<ProgramInfo>
buildCorpus()
{
    std::vector<ProgramInfo> corpus;
    uint64_t next_seed = 0xC0C0'0001ULL;

    auto add = [&](WorkloadProfile p, int traces, uint64_t chunks) {
        ProgramInfo info;
        info.profile = std::move(p);
        info.numTraces = traces;
        info.chunksPerTrace = chunks;
        info.seed = next_seed;
        next_seed += 0x9e3779b9ULL;
        corpus.push_back(std::move(info));
    };

    // ---------------- Proprietary ----------------
    {
        // P1 Compression: streaming reads/writes, predictable branches,
        // match-loop locality.
        WorkloadProfile p;
        p.name = "P1.Compression";
        p.group = "Proprietary";
        p.fracLoad = 0.28; p.fracStore = 0.14; p.fracFp = 0.02;
        p.depMeanDist = 4.0; p.branchEvery = 10.0;
        p.loopFrac = 0.7; p.meanTrip = 24.0; p.condBias = 0.97;
        p.condRandomFrac = 0.01; p.numBlocks = 96;
        p.phases = {phase(0.55, 0.05, 0.0, 256 * KB, 1.2, 256, 0.1, 0.8)};
        add(p, 2, 3840);
    }
    {
        // P2 Search1: hash-table probes over a large heap; branchy.
        WorkloadProfile p;
        p.name = "P2.Search1";
        p.group = "Proprietary";
        p.fracLoad = 0.32; p.fracStore = 0.08; p.fracFp = 0.02;
        p.depMeanDist = 5.0; p.branchEvery = 6.0;
        p.condBias = 0.94; p.condRandomFrac = 0.04; p.meanTrip = 6.0;
        p.numBlocks = 768; p.hotGroupFrac = 0.15; p.coldJumpProb = 0.05;
        p.phases = {phase(0.1, 0.0, 0.1, 8 * MB, 1.1)};
        add(p, 4, 6144);
    }
    {
        // P3 Search4: as P2, hotter working set and heavier scoring loops.
        WorkloadProfile p;
        p.name = "P3.Search4";
        p.group = "Proprietary";
        p.fracLoad = 0.30; p.fracStore = 0.08; p.fracFp = 0.10;
        p.depMeanDist = 6.0; p.branchEvery = 7.0;
        p.condBias = 0.94; p.condRandomFrac = 0.04;
        p.numBlocks = 512; p.hotGroupFrac = 0.2;
        p.phases = {phase(0.15, 0.05, 0.08, 4 * MB, 1.15)};
        add(p, 4, 6144);
    }
    {
        // P4 Disk: block copies and checksum loops with barriers.
        WorkloadProfile p;
        p.name = "P4.Disk";
        p.group = "Proprietary";
        p.fracLoad = 0.30; p.fracStore = 0.18; p.fracFp = 0.0;
        p.isbPer1k = 0.6; p.depMeanDist = 5.0; p.branchEvery = 12.0;
        p.loopFrac = 0.75; p.meanTrip = 32.0; p.condBias = 0.97;
        p.condRandomFrac = 0.01;
        p.numBlocks = 128;
        p.phases = {phase(0.6, 0.1, 0.0, 512 * KB, 1.1, 512, 0.08, 0.9)};
        add(p, 3, 6144);
    }
    {
        // P5 Video: FP-heavy strided kernels, prefetch friendly, high ILP.
        WorkloadProfile p;
        p.name = "P5.Video";
        p.group = "Proprietary";
        p.fracLoad = 0.30; p.fracStore = 0.12; p.fracFp = 0.45;
        p.fracDivOfFp = 0.03; p.depMeanDist = 10.0; p.secondSrcProb = 0.5;
        p.branchEvery = 14.0; p.loopFrac = 0.8; p.meanTrip = 40.0;
        p.condBias = 0.985; p.condRandomFrac = 0.005; p.numBlocks = 160;
        p.phases = {phase(0.35, 0.35, 0.0, 1 * MB, 1.0, 128, 0.02, 0.9)};
        add(p, 4, 6144);
    }
    {
        // P6 NoSQL Database1: pointer-rich index walks, forwarding-heavy.
        WorkloadProfile p;
        p.name = "P6.NoSQLDatabase1";
        p.group = "Proprietary";
        p.fracLoad = 0.33; p.fracStore = 0.12; p.fracFp = 0.01;
        p.depMeanDist = 4.5; p.branchEvery = 6.5;
        p.condBias = 0.93; p.condRandomFrac = 0.05;
        p.numBlocks = 1024; p.hotGroupFrac = 0.12; p.coldJumpProb = 0.06;
        p.phases = {phase(0.08, 0.0, 0.12, 16 * MB, 1.05, 256, 0.1)};
        add(p, 4, 6144);
    }
    {
        // P7 Search2: mid-size working set, scoring FP sprinkled in.
        WorkloadProfile p;
        p.name = "P7.Search2";
        p.group = "Proprietary";
        p.fracLoad = 0.31; p.fracStore = 0.09; p.fracFp = 0.08;
        p.depMeanDist = 5.5; p.branchEvery = 6.0;
        p.condBias = 0.94; p.condRandomFrac = 0.04;
        p.numBlocks = 640; p.hotGroupFrac = 0.18;
        p.phases = {phase(0.12, 0.04, 0.1, 6 * MB, 1.1)};
        add(p, 3, 7680);
    }
    {
        // P8 MapReduce1: streaming aggregation, small hot dictionary.
        WorkloadProfile p;
        p.name = "P8.MapReduce1";
        p.group = "Proprietary";
        p.fracLoad = 0.29; p.fracStore = 0.13; p.fracFp = 0.04;
        p.depMeanDist = 6.0; p.branchEvery = 9.0;
        p.loopFrac = 0.7; p.meanTrip = 20.0; p.condBias = 0.965;
        p.condRandomFrac = 0.015;
        p.numBlocks = 192;
        p.phases = {phase(0.5, 0.08, 0.0, 2 * MB, 1.2, 256, 0.06, 0.85)};
        add(p, 3, 7680);
    }
    {
        // P9 Search3: mostly compute-hot phases with a ~10% slice of
        // cache-hostile scatter phases (Figure 17's phase behavior).
        WorkloadProfile p;
        p.name = "P9.Search3";
        p.group = "Proprietary";
        p.fracLoad = 0.31; p.fracStore = 0.09; p.fracFp = 0.05;
        p.depMeanDist = 5.0; p.branchEvery = 6.5;
        p.condBias = 0.94; p.condRandomFrac = 0.04;
        p.numBlocks = 512; p.hotGroupFrac = 0.2;
        PhaseProfile hot = phase(0.2, 0.05, 0.04, 192 * KB, 1.2);
        PhaseProfile scatter = phase(0.05, 0.0, 0.3, 24 * MB, 0.9);
        p.phases = {hot, hot, hot, hot, hot, hot, hot, hot, hot, scatter};
        p.chunksPerPhase = 8;
        add(p, 6, 9216);
    }
    {
        // P10 Logs: string scanning, branch dense, large code footprint.
        WorkloadProfile p;
        p.name = "P10.Logs";
        p.group = "Proprietary";
        p.fracLoad = 0.30; p.fracStore = 0.10; p.fracFp = 0.0;
        p.depMeanDist = 3.5; p.branchEvery = 5.0;
        p.condBias = 0.9; p.condRandomFrac = 0.08; p.meanTrip = 8.0;
        p.numBlocks = 2048; p.hotGroupFrac = 0.08; p.coldJumpProb = 0.08;
        p.indirectFrac = 0.04; p.indirectTargets = 8;
        p.phases = {phase(0.3, 0.0, 0.02, 1 * MB, 1.2)};
        add(p, 3, 7680);
    }
    {
        // P11 NoSQL Database2: RAM-resident store, the most memory-bound
        // proprietary workload.
        WorkloadProfile p;
        p.name = "P11.NoSQLDatabase2";
        p.group = "Proprietary";
        p.fracLoad = 0.35; p.fracStore = 0.12; p.fracFp = 0.0;
        p.depMeanDist = 4.0; p.branchEvery = 7.0;
        p.condBias = 0.93; p.condRandomFrac = 0.04;
        p.numBlocks = 1024; p.hotGroupFrac = 0.1; p.coldJumpProb = 0.05;
        p.phases = {phase(0.05, 0.0, 0.22, 32 * MB, 0.95, 256, 0.08)};
        add(p, 3, 7680);
    }
    {
        // P12 MapReduce2: shuffle-heavy variant, more stores and streams.
        WorkloadProfile p;
        p.name = "P12.MapReduce2";
        p.group = "Proprietary";
        p.fracLoad = 0.28; p.fracStore = 0.16; p.fracFp = 0.03;
        p.depMeanDist = 7.0; p.branchEvery = 10.0;
        p.loopFrac = 0.72; p.meanTrip = 24.0; p.condBias = 0.97;
        p.condRandomFrac = 0.01;
        p.numBlocks = 224;
        p.phases = {phase(0.55, 0.1, 0.0, 3 * MB, 1.2, 512, 0.05, 0.9)};
        add(p, 3, 9216);
    }
    {
        // P13 Query Engine & Database: alternating scan / join phases over
        // a big footprint; the corpus's largest program.
        WorkloadProfile p;
        p.name = "P13.QueryEngineDB";
        p.group = "Proprietary";
        p.fracLoad = 0.32; p.fracStore = 0.11; p.fracFp = 0.06;
        p.depMeanDist = 5.5; p.branchEvery = 7.0;
        p.condBias = 0.94; p.condRandomFrac = 0.04;
        p.numBlocks = 1536; p.hotGroupFrac = 0.1; p.coldJumpProb = 0.05;
        p.indirectFrac = 0.03; p.indirectTargets = 12;
        PhaseProfile scan = phase(0.55, 0.1, 0.0, 1 * MB, 1.1, 256, 0.04,
                                  0.9);
        PhaseProfile join = phase(0.08, 0.0, 0.15, 12 * MB, 1.0);
        p.phases = {scan, join, scan, join};
        p.chunksPerPhase = 24;
        add(p, 8, 12288);
    }

    // ---------------- Cloud benchmarks ----------------
    {
        // C1 Memcached: GET-dominated hash lookups in a huge slab heap.
        WorkloadProfile p;
        p.name = "C1.Memcached";
        p.group = "Cloud";
        p.fracLoad = 0.33; p.fracStore = 0.10; p.fracFp = 0.0;
        p.depMeanDist = 4.5; p.branchEvery = 6.0;
        p.condBias = 0.94; p.condRandomFrac = 0.03;
        p.numBlocks = 384; p.hotGroupFrac = 0.2;
        p.phases = {phase(0.1, 0.0, 0.12, 16 * MB, 1.05, 256, 0.1)};
        add(p, 2, 4608);
    }
    {
        // C2 MySQL: B-tree descent plus row materialization; big code.
        WorkloadProfile p;
        p.name = "C2.MySQL";
        p.group = "Cloud";
        p.fracLoad = 0.31; p.fracStore = 0.12; p.fracFp = 0.02;
        p.depMeanDist = 4.5; p.branchEvery = 6.0;
        p.condBias = 0.93; p.condRandomFrac = 0.05;
        p.numBlocks = 2560; p.hotGroupFrac = 0.06; p.coldJumpProb = 0.08;
        p.indirectFrac = 0.05; p.indirectTargets = 10;
        p.phases = {phase(0.12, 0.0, 0.08, 8 * MB, 1.1, 256, 0.1)};
        add(p, 3, 6144);
    }

    // ---------------- Open benchmarks ----------------
    {
        // O1 Dhrystone: tiny footprint, highly predictable, high IPC.
        WorkloadProfile p;
        p.name = "O1.Dhrystone";
        p.group = "Open";
        p.fracLoad = 0.22; p.fracStore = 0.10; p.fracFp = 0.0;
        p.depMeanDist = 5.0; p.branchEvery = 8.0;
        p.loopFrac = 0.8; p.meanTrip = 50.0; p.condBias = 0.99;
        p.condRandomFrac = 0.002; p.numBlocks = 24;
        p.phases = {phase(0.2, 0.0, 0.0, 16 * KB, 1.0, 256, 0.15, 0.5)};
        add(p, 1, 2304);
    }
    {
        // O2 CoreMark: list/matrix/state-machine mix, small data.
        WorkloadProfile p;
        p.name = "O2.CoreMark";
        p.group = "Open";
        p.fracLoad = 0.25; p.fracStore = 0.10; p.fracFp = 0.0;
        p.fracMulDiv = 0.12; p.depMeanDist = 4.0; p.branchEvery = 6.0;
        p.loopFrac = 0.65; p.meanTrip = 16.0; p.condBias = 0.96;
        p.condRandomFrac = 0.02; p.numBlocks = 64;
        p.phases = {phase(0.25, 0.05, 0.03, 64 * KB, 1.0)};
        add(p, 1, 3072);
    }
    {
        // O3 MMU: synthetic memory stress -- dependent scatter reads over a
        // RAM-sized set; by far the highest CPI in the corpus (the paper's
        // hardest OOD case).
        WorkloadProfile p;
        p.name = "O3.MMU";
        p.group = "Open";
        p.fracLoad = 0.45; p.fracStore = 0.08; p.fracFp = 0.0;
        p.depMeanDist = 2.5; p.branchEvery = 16.0;
        p.loopFrac = 0.8; p.meanTrip = 64.0; p.condBias = 0.99;
        p.condRandomFrac = 0.002; p.numBlocks = 16;
        p.isbPer1k = 0.3;
        p.phases = {phase(0.0, 0.0, 0.55, 64 * MB, 0.2, 4096, 0.0)};
        add(p, 2, 4608);
    }
    {
        // O4 CPUtest: serial dependency chains testing execution latency;
        // regular and synthetic.
        WorkloadProfile p;
        p.name = "O4.CPUtest";
        p.group = "Open";
        p.fracLoad = 0.12; p.fracStore = 0.05; p.fracFp = 0.2;
        p.fracDivOfFp = 0.25; p.fracMulDiv = 0.2;
        p.depMeanDist = 1.3; p.secondSrcProb = 0.2;
        p.branchEvery = 24.0; p.loopFrac = 0.9; p.meanTrip = 100.0;
        p.condBias = 0.995; p.condRandomFrac = 0.0; p.numBlocks = 12;
        p.phases = {phase(0.3, 0.0, 0.0, 32 * KB, 1.0)};
        add(p, 2, 4608);
    }

    // ---------------- SPEC2017 ----------------
    {
        // S1 505.mcf_r: pointer-chasing over a many-MB network; the
        // corpus's most cache-size-sensitive program.
        WorkloadProfile p;
        p.name = "S1.505.mcf_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.36; p.fracStore = 0.09; p.fracFp = 0.0;
        p.depMeanDist = 3.5; p.branchEvery = 7.0;
        p.condBias = 0.93; p.condRandomFrac = 0.05;
        p.numBlocks = 96;
        p.phases = {phase(0.05, 0.0, 0.32, 24 * MB, 0.95, 256, 0.03)};
        add(p, 2, 9216);
    }
    {
        // S2 520.omnetpp_r: discrete-event simulation; heap walks plus
        // virtual dispatch.
        WorkloadProfile p;
        p.name = "S2.520.omnetpp_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.31; p.fracStore = 0.12; p.fracFp = 0.01;
        p.depMeanDist = 4.0; p.branchEvery = 5.5;
        p.condBias = 0.93; p.condRandomFrac = 0.06;
        p.numBlocks = 1280; p.hotGroupFrac = 0.1; p.coldJumpProb = 0.06;
        p.indirectFrac = 0.06; p.indirectTargets = 12;
        p.phases = {phase(0.08, 0.0, 0.12, 10 * MB, 1.05)};
        add(p, 2, 9216);
    }
    {
        // S3 523.xalancbmk_r: XML transform; instruction-cache hostile.
        WorkloadProfile p;
        p.name = "S3.523.xalancbmk_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.30; p.fracStore = 0.10; p.fracFp = 0.0;
        p.depMeanDist = 4.0; p.branchEvery = 5.0;
        p.condBias = 0.94; p.condRandomFrac = 0.04;
        p.numBlocks = 4096; p.hotGroupFrac = 0.05; p.coldJumpProb = 0.1;
        p.indirectFrac = 0.05; p.indirectTargets = 16;
        p.phases = {phase(0.15, 0.0, 0.05, 2 * MB, 1.15)};
        add(p, 2, 9216);
    }
    {
        // S4 541.leela_r: MCTS chess(go) engine; mispredict bound.
        WorkloadProfile p;
        p.name = "S4.541.leela_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.26; p.fracStore = 0.08; p.fracFp = 0.05;
        p.depMeanDist = 4.5; p.branchEvery = 5.0;
        p.loopFrac = 0.3; p.meanTrip = 5.0;
        p.condBias = 0.88; p.condRandomFrac = 0.15;
        p.numBlocks = 256; p.hotGroupFrac = 0.3;
        p.phases = {phase(0.1, 0.0, 0.05, 512 * KB, 1.2)};
        add(p, 2, 9216);
    }
    {
        // S5 548.exchange2_r: integer puzzle solver; tiny data footprint,
        // deep loop nests.
        WorkloadProfile p;
        p.name = "S5.548.exchange2_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.18; p.fracStore = 0.09; p.fracFp = 0.0;
        p.depMeanDist = 5.0; p.branchEvery = 6.5;
        p.loopFrac = 0.7; p.meanTrip = 9.0; p.condBias = 0.95;
        p.condRandomFrac = 0.04; p.numBlocks = 80;
        p.phases = {phase(0.1, 0.0, 0.0, 96 * KB, 1.0, 256, 0.12)};
        add(p, 2, 9216);
    }
    {
        // S6 531.deepsjeng_r: alpha-beta chess; hash probes + mispredicts.
        WorkloadProfile p;
        p.name = "S6.531.deepsjeng_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.27; p.fracStore = 0.09; p.fracFp = 0.0;
        p.fracMulDiv = 0.08; p.depMeanDist = 4.5; p.branchEvery = 5.5;
        p.condBias = 0.9; p.condRandomFrac = 0.1;
        p.numBlocks = 320; p.hotGroupFrac = 0.25;
        p.phases = {phase(0.08, 0.0, 0.07, 4 * MB, 1.1)};
        add(p, 2, 9216);
    }
    {
        // S7 557.xz_r: LZMA; mixed streaming and match-finder scatter.
        WorkloadProfile p;
        p.name = "S7.557.xz_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.29; p.fracStore = 0.12; p.fracFp = 0.0;
        p.depMeanDist = 3.8; p.branchEvery = 7.5;
        p.loopFrac = 0.6; p.meanTrip = 14.0; p.condBias = 0.94;
        p.condRandomFrac = 0.05; p.numBlocks = 112;
        p.phases = {phase(0.35, 0.05, 0.06, 8 * MB, 1.1, 256, 0.08, 0.8)};
        add(p, 3, 9216);
    }
    {
        // S8 500.perlbench_r: interpreter; indirect-branch and icache heavy.
        WorkloadProfile p;
        p.name = "S8.500.perlbench_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.29; p.fracStore = 0.13; p.fracFp = 0.0;
        p.depMeanDist = 4.0; p.branchEvery = 5.5;
        p.condBias = 0.94; p.condRandomFrac = 0.03;
        p.numBlocks = 3072; p.hotGroupFrac = 0.06; p.coldJumpProb = 0.07;
        p.indirectFrac = 0.09; p.indirectTargets = 24; p.indirectZipf = 0.7;
        p.phases = {phase(0.15, 0.0, 0.06, 1 * MB, 1.2, 256, 0.12)};
        add(p, 3, 9216);
    }
    {
        // S9 525.x264_r: video encode; strided FP/SIMD kernels, very
        // prefetch friendly, high ILP.
        WorkloadProfile p;
        p.name = "S9.525.x264_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.29; p.fracStore = 0.11; p.fracFp = 0.4;
        p.fracDivOfFp = 0.02; p.depMeanDist = 12.0; p.secondSrcProb = 0.55;
        p.branchEvery = 16.0; p.loopFrac = 0.85; p.meanTrip = 32.0;
        p.condBias = 0.985; p.condRandomFrac = 0.005; p.numBlocks = 192;
        p.phases = {phase(0.3, 0.4, 0.0, 2 * MB, 1.0, 192, 0.02, 0.9)};
        add(p, 3, 9216);
    }
    {
        // S10 502.gcc_r: compiler; large code, mid-size data, branchy.
        WorkloadProfile p;
        p.name = "S10.502.gcc_r";
        p.group = "SPEC2017";
        p.fracLoad = 0.30; p.fracStore = 0.12; p.fracFp = 0.0;
        p.depMeanDist = 4.2; p.branchEvery = 5.5;
        p.condBias = 0.93; p.condRandomFrac = 0.06;
        p.numBlocks = 3584; p.hotGroupFrac = 0.05; p.coldJumpProb = 0.09;
        p.indirectFrac = 0.04; p.indirectTargets = 12;
        p.phases = {phase(0.12, 0.0, 0.08, 6 * MB, 1.05)};
        add(p, 4, 12288);
    }

    return corpus;
}

std::vector<std::unique_ptr<ProgramModel>> &
modelCache()
{
    static std::vector<std::unique_ptr<ProgramModel>> cache(
        workloadCorpus().size());
    return cache;
}

std::mutex &
modelMutex()
{
    static std::mutex m;
    return m;
}

} // anonymous namespace

const std::vector<ProgramInfo> &
workloadCorpus()
{
    static const std::vector<ProgramInfo> corpus = buildCorpus();
    return corpus;
}

const ProgramModel &
programModel(int program_id)
{
    const auto &corpus = workloadCorpus();
    panic_if(program_id < 0
             || static_cast<size_t>(program_id) >= corpus.size(),
             "bad program id %d", program_id);
    std::lock_guard<std::mutex> lock(modelMutex());
    auto &slot = modelCache()[program_id];
    if (!slot) {
        slot = std::make_unique<ProgramModel>(corpus[program_id].profile,
                                              corpus[program_id].seed);
    }
    return *slot;
}

TraceColumns
generateRegion(const RegionSpec &spec)
{
    return programModel(spec.programId).generateRegion(spec);
}

RegionSpec
sampleRegion(Rng &rng, uint32_t num_chunks)
{
    const auto &corpus = workloadCorpus();
    // Weight programs by total trace length, like the paper's
    // length-proportional trace sampling.
    uint64_t total = 0;
    for (const auto &info : corpus)
        total += info.numTraces * info.chunksPerTrace;
    uint64_t pick = rng.nextBounded(total);
    int program_id = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
        const uint64_t w = corpus[i].numTraces * corpus[i].chunksPerTrace;
        if (pick < w) {
            program_id = static_cast<int>(i);
            break;
        }
        pick -= w;
    }
    return sampleRegionFromProgram(rng, program_id, num_chunks);
}

RegionSpec
sampleRegionFromProgram(Rng &rng, int program_id, uint32_t num_chunks)
{
    const auto &info = workloadCorpus()[program_id];
    RegionSpec spec;
    spec.programId = program_id;
    spec.traceId = static_cast<int>(rng.nextBounded(info.numTraces));
    spec.numChunks = num_chunks;
    const uint64_t max_start =
        info.chunksPerTrace > num_chunks
        ? info.chunksPerTrace - num_chunks : 0;
    spec.startChunk = max_start > 0 ? rng.nextBounded(max_start + 1) : 0;
    return spec;
}

int
programIdByCode(const std::string &code)
{
    const auto &corpus = workloadCorpus();
    for (size_t i = 0; i < corpus.size(); ++i) {
        if (corpus[i].code() == code)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace concorde
