/**
 * @file
 * Run-time CPU feature probe shared by the kernels that pick an
 * instruction-set variant when they are called: the batched MLP GEMM
 * (src/ml/mlp_gemm.hh) and the lockstep ROB model
 * (src/analytical/rob_kernels.hh). There is no option to force either
 * variant; each kernel family reports the one it runs.
 */

#ifndef CONCORDE_COMMON_CPU_HH
#define CONCORDE_COMMON_CPU_HH

namespace concorde
{

/** True when the CPU and OS support AVX-512F (probed once). */
bool avx512fSupported();

} // namespace concorde

#endif // CONCORDE_COMMON_CPU_HH
