#include "src/common/word.hh"

#include <cstdlib>
#include <string>
#include <string_view>

#include "src/common/assert.hh"

namespace traq {

WordBackend
resolveWordBackend(WordBackend requested)
{
    if (requested != WordBackend::Auto)
        return requested;
    const char *env = std::getenv("TRAQ_WORD_BACKEND");
    const std::string_view v(env ? env : "");
    if (v.empty() || v == "512" || v == "wide512")
        return WordBackend::Wide512;
    if (v == "64" || v == "scalar" || v == "scalar64")
        return WordBackend::Scalar64;
    TRAQ_FATAL("unknown TRAQ_WORD_BACKEND value '" + std::string(v) +
               "' (known: 64/scalar/scalar64, 512/wide512)");
}

unsigned
wordBackendLanes(WordBackend backend)
{
    return resolveWordBackend(backend) == WordBackend::Scalar64
               ? 1
               : kWide512WordLanes;
}

const char *
wordBackendName(WordBackend backend)
{
    return resolveWordBackend(backend) == WordBackend::Scalar64
               ? "scalar64"
               : "wide512";
}

bool
cpuDispatchSupported(CpuDispatch level)
{
    switch (level) {
      case CpuDispatch::Auto:
      case CpuDispatch::Baseline:
        return true;
      case CpuDispatch::Avx2:
#if defined(TRAQ_DISPATCH_NO_AVX2) ||                               \
    !(defined(__x86_64__) || defined(__i386__))
        return false;
#else
        return __builtin_cpu_supports("avx2") != 0;
#endif
      case CpuDispatch::Avx512:
#if defined(TRAQ_DISPATCH_NO_AVX512) ||                             \
    !(defined(__x86_64__) || defined(__i386__))
        return false;
#else
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0;
#endif
    }
    return false;
}

namespace {

/** Best level this build + CPU can run (never below Baseline). */
CpuDispatch
bestSupportedDispatch()
{
    if (cpuDispatchSupported(CpuDispatch::Avx512))
        return CpuDispatch::Avx512;
    if (cpuDispatchSupported(CpuDispatch::Avx2))
        return CpuDispatch::Avx2;
    return CpuDispatch::Baseline;
}

/** Fatal unless the concrete level can actually run here. */
CpuDispatch
requireSupported(CpuDispatch level)
{
    if (!cpuDispatchSupported(level))
        TRAQ_FATAL(std::string("CPU dispatch level '") +
                   cpuDispatchName(level) +
                   "' is not supported by this build/CPU "
                   "(refusing to silently degrade; use "
                   "TRAQ_CPU_DISPATCH=baseline or =auto)");
    return level;
}

} // namespace

CpuDispatch
resolveCpuDispatch(CpuDispatch requested)
{
    if (requested != CpuDispatch::Auto)
        return requireSupported(requested);
    if (const char *env = std::getenv("TRAQ_CPU_DISPATCH")) {
        const std::string_view v(env);
        if (v.empty() || v == "auto")
            return bestSupportedDispatch();
        if (v == "baseline")
            return CpuDispatch::Baseline;
        if (v == "avx2")
            return requireSupported(CpuDispatch::Avx2);
        if (v == "avx512" || v == "avx512f")
            return requireSupported(CpuDispatch::Avx512);
        TRAQ_FATAL("unknown TRAQ_CPU_DISPATCH value '" +
                   std::string(v) +
                   "' (known: auto, baseline, avx2, "
                   "avx512/avx512f)");
    }
    return bestSupportedDispatch();
}

const char *
cpuDispatchName(CpuDispatch level)
{
    switch (level) {
      case CpuDispatch::Auto:
        return "auto";
      case CpuDispatch::Baseline:
        return "baseline";
      case CpuDispatch::Avx2:
        return "avx2";
      case CpuDispatch::Avx512:
        return "avx512";
    }
    return "baseline";
}

} // namespace traq
