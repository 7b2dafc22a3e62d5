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

} // namespace traq
