#include "src/sim/gates.hh"

#include <array>

#include "src/common/assert.hh"

namespace traq::sim {
namespace {

constexpr std::array<GateInfo, 27> kGateTable = {{
    // gate, name, two, unitary, noise, meas, reset, annotation
    {Gate::I,          "I",          false, true,  false, false, false, false},
    {Gate::X,          "X",          false, true,  false, false, false, false},
    {Gate::Y,          "Y",          false, true,  false, false, false, false},
    {Gate::Z,          "Z",          false, true,  false, false, false, false},
    {Gate::H,          "H",          false, true,  false, false, false, false},
    {Gate::S,          "S",          false, true,  false, false, false, false},
    {Gate::S_DAG,      "S_DAG",      false, true,  false, false, false, false},
    {Gate::SQRT_X,     "SQRT_X",     false, true,  false, false, false, false},
    {Gate::SQRT_X_DAG, "SQRT_X_DAG", false, true,  false, false, false, false},
    {Gate::CX,         "CX",         true,  true,  false, false, false, false},
    {Gate::CZ,         "CZ",         true,  true,  false, false, false, false},
    {Gate::SWAP,       "SWAP",       true,  true,  false, false, false, false},
    {Gate::R,          "R",          false, false, false, false, true,  false},
    {Gate::RX,         "RX",         false, false, false, false, true,  false},
    {Gate::M,          "M",          false, false, false, true,  false, false},
    {Gate::MX,         "MX",         false, false, false, true,  false, false},
    {Gate::MR,         "MR",         false, false, false, true,  true,  false},
    {Gate::X_ERROR,    "X_ERROR",    false, false, true,  false, false, false},
    {Gate::Y_ERROR,    "Y_ERROR",    false, false, true,  false, false, false},
    {Gate::Z_ERROR,    "Z_ERROR",    false, false, true,  false, false, false},
    {Gate::DEPOLARIZE1, "DEPOLARIZE1",
                       false, false, true,  false, false, false},
    {Gate::DEPOLARIZE2, "DEPOLARIZE2",
                       true,  false, true,  false, false, false},
    {Gate::HERALDED_ERASE, "HERALDED_ERASE",
                       false, false, true,  false, false, false},
    {Gate::CORRELATED_PAULI2, "CORRELATED_PAULI2",
                       true,  false, true,  false, false, false},
    {Gate::TICK,       "TICK",       false, false, false, false, false, true},
    {Gate::DETECTOR,   "DETECTOR",   false, false, false, false, false, true},
    {Gate::OBSERVABLE_INCLUDE, "OBSERVABLE_INCLUDE",
                       false, false, false, false, false, true},
}};

constexpr bool
tableInEnumOrder()
{
    for (std::size_t i = 0; i < kGateTable.size(); ++i)
        if (static_cast<std::size_t>(kGateTable[i].gate) != i)
            return false;
    return true;
}
static_assert(tableInEnumOrder(),
              "kGateTable rows must follow the Gate enum order");

} // namespace

const GateInfo &
gateInfo(Gate g)
{
    const auto i = static_cast<std::size_t>(g);
    if (i >= kGateTable.size())
        TRAQ_PANIC("unknown gate kind");
    return kGateTable[i];
}

std::optional<Gate>
gateFromName(std::string_view name)
{
    for (const auto &info : kGateTable)
        if (name == info.name)
            return info.gate;
    return std::nullopt;
}

std::string_view
gateName(Gate g)
{
    return gateInfo(g).name;
}

} // namespace traq::sim
