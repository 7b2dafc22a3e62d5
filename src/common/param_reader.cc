#include "src/common/param_reader.hh"

#include <algorithm>

#include "src/common/assert.hh"
#include "src/common/serialize.hh"

namespace traq {

const double *
ParamReader::take(std::string_view name)
{
    noteKnown(name);
    // Maps hold a handful of entries, and std::map::find would build
    // a std::string per name.
    for (const auto &[key, value] : params_) {
        if (key == name) {
            ++used_;
            return &value;
        }
    }
    return nullptr;
}

void
ParamReader::noteKnown(std::string_view name)
{
    TRAQ_REQUIRE(numKnown_ < kMaxNames,
                 "ParamReader: too many names for " +
                     std::string(owner_));
    known_[numKnown_++] = name;
}

std::string
ParamReader::label(std::string_view name) const
{
    if (instance_.empty())
        return std::string(owner_) + " parameter '" +
               std::string(name) + "'";
    return "parameter '" + std::string(name) + "' for " +
           std::string(owner_) + " '" + std::string(instance_) + "'";
}

bool
ParamReader::real(std::string_view name, double &field)
{
    const double *v = take(name);
    if (v != nullptr)
        field = *v;
    return v != nullptr;
}

bool
ParamReader::flag(std::string_view name, bool &field)
{
    const double *v = take(name);
    if (v == nullptr)
        return false;
    TRAQ_REQUIRE(*v == 0.0 || *v == 1.0,
                 label(name) + " = " + fmtRoundTrip(*v) +
                     " must be 0 or 1");
    field = *v == 1.0;
    return true;
}

void
ParamReader::badInteger(std::string_view name, double v,
                        const std::string &lo,
                        const std::string &hi) const
{
    TRAQ_FATAL(label(name) + " = " + fmtRoundTrip(v) +
               " is not an integer in [" + lo + ", " + hi + "]");
}

void
ParamReader::finish() const
{
    if (used_ == params_.size())
        return;
    const auto known = known_.begin() + numKnown_;
    for (const auto &[key, value] : params_) {
        (void)value;
        if ((!prefix_.empty() && key.starts_with(prefix_)) ||
            std::find(known_.begin(), known, key) != known)
            continue;
        std::string msg = "unknown " + label(key) + " (known:";
        for (auto it = known_.begin(); it != known; ++it) {
            msg += ' ';
            msg += *it;
        }
        TRAQ_FATAL(msg + ")");
    }
}

} // namespace traq
