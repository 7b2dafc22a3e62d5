/**
 * @file
 * The one reader of named scalar parameters, shared by the estimator
 * kinds (src/estimator) and the noise sources (src/noise).
 *
 * A kind or source applies a parameter map through one read
 * function: one typed getter per accepted name, each writing its
 * field when the name is present (a later getter wins over an
 * earlier one writing the same field), then finish().  finish()
 * rejects the first name, in sorted order, that no getter asked for
 * and lists the ones that were asked for, so the list an error
 * prints is exactly what the code accepts.  Getters validate as they
 * read and allocate nothing; only the error path builds strings.
 */

#ifndef TRAQ_COMMON_PARAM_READER_HH
#define TRAQ_COMMON_PARAM_READER_HH

#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

namespace traq {

/** Typed getters over one parameter map; see the file comment. */
class ParamReader
{
  public:
    using Map = std::map<std::string, double>;

    /**
     * An unknown name fails as "unknown <owner> parameter '<name>'
     * (known: ...)", or, given an @p instance, as "unknown parameter
     * '<name>' for <owner> '<instance>' (known: ...)".
     */
    ParamReader(const Map &params, std::string_view owner,
                std::string_view instance = {})
        : params_(params), owner_(owner), instance_(instance)
    {}

    /** Real value into @p field; true when present. */
    bool real(std::string_view name, double &field);

    /**
     * Integer value, rounded half away from zero, into @p field;
     * true when present.  Throws FatalError unless it is finite and
     * rounds into [lo, hi] (by default, the field type's range).
     */
    template <class Int>
    bool
    integer(std::string_view name, Int &field,
            std::type_identity_t<Int> lo =
                std::numeric_limits<Int>::lowest(),
            std::type_identity_t<Int> hi =
                std::numeric_limits<Int>::max())
    {
        const double *v = take(name);
        if (v == nullptr)
            return false;
        // hi + 1.0 is exact or rounds up to a power of two, so the
        // cast stays inside Int's range.
        const double r = std::round(*v);
        if (!(r >= static_cast<double>(lo) &&
              r < static_cast<double>(hi) + 1.0))
            badInteger(name, *v, std::to_string(lo),
                       std::to_string(hi));
        field = static_cast<Int>(r);
        return true;
    }

    /** Positive integer count. */
    template <class Int>
    bool
    count(std::string_view name, Int &field)
    {
        return integer(name, field, 1);
    }

    /** 0/1 flag; any other value throws FatalError. */
    bool flag(std::string_view name, bool &field);

    /**
     * Hand every parameter named "<prefix>..." to
     * @p apply(name, value), in sorted order; @p form stands for the
     * family in the known-name list.  At most one family per reader.
     */
    template <class Apply>
    void
    prefixed(std::string_view prefix, std::string_view form,
             Apply &&apply)
    {
        noteKnown(form);
        prefix_ = prefix;
        for (auto it = params_.lower_bound(std::string(prefix));
             it != params_.end() && it->first.starts_with(prefix);
             ++it, ++used_)
            apply(it->first, it->second);
    }

    /** Throw FatalError on the first name no getter asked for. */
    void finish() const;

  private:
    /** Most names one reader knows; more fail loudly in every test
     *  that reads the kind. */
    static constexpr std::size_t kMaxNames = 32;

    const double *take(std::string_view name);
    void noteKnown(std::string_view name);
    std::string label(std::string_view name) const;
    [[noreturn]] void badInteger(std::string_view name, double v,
                                 const std::string &lo,
                                 const std::string &hi) const;

    const Map &params_;
    std::string_view owner_;
    std::string_view instance_;
    std::string_view prefix_;
    std::size_t used_ = 0; //!< parameters some getter consumed
    std::array<std::string_view, kMaxNames> known_{};
    std::size_t numKnown_ = 0;
};

/**
 * Apply @p params to a copy of @p spec through @p read (a kind's one
 * read function), then reject unknown names for @p owner.
 */
template <class Spec, class Read>
Spec
readParams(const ParamReader::Map &params, std::string_view owner,
           Spec spec, Read &&read)
{
    ParamReader r(params, owner);
    read(r, spec);
    r.finish();
    return spec;
}

} // namespace traq

#endif // TRAQ_COMMON_PARAM_READER_HH
