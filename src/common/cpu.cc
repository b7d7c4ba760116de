#include "common/cpu.hh"

namespace concorde
{

bool
avx512fSupported()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0;
    }();
    return supported;
#else
    return false;
#endif
}

} // namespace concorde
