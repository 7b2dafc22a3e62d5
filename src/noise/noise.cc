#include "src/noise/noise.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/assert.hh"
#include "src/common/param_reader.hh"
#include "src/common/serialize.hh"
#include "src/platform/movement.hh"

namespace traq::noise {
namespace {

void
requireProb(double p, const char *what)
{
    TRAQ_REQUIRE(p >= 0.0 && p <= 1.0,
                 std::string(what) + " must be in [0, 1]");
}

bool
isTwoQubitGate(sim::Gate g)
{
    return g == sim::Gate::CX || g == sim::Gate::CZ ||
           g == sim::Gate::SWAP;
}

/**
 * Emit one loss-style channel on `qs`: the heralded fraction eta as
 * HERALDED_ERASE(p * eta), the undetected remainder as its exact
 * Pauli-twirl DEPOLARIZE1(3 p (1 - eta) / 4) (an unflagged erasure
 * is I/X/Y/Z at p/4 each; the I component is a no-op, leaving the
 * three Pauli components at p/4 = DEPOLARIZE1 components at
 * (3p/4) / 3).
 */
void
emitLoss(double p, double eta, const std::vector<std::uint32_t> &qs,
         sim::Circuit &out)
{
    if (p <= 0.0 || qs.empty())
        return;
    if (eta > 0.0)
        out.heraldedErase(p * eta, qs);
    const double residue = 3.0 * p * (1.0 - eta) / 4.0;
    if (residue > 0.0)
        out.depolarize1(residue, qs);
}

/** Atom loss after every two-qubit gate, herald-flagged. */
class AtomLossSource final : public NoiseSource
{
  public:
    explicit AtomLossSource(
        const std::map<std::string, double> &params)
    {
        ParamReader r(params, "noise source", name());
        r.real("p", p_);
        r.real("heraldEff", eta_);
        r.finish();
        requireProb(p_, "atom-loss p");
        requireProb(eta_, "atom-loss heraldEff");
    }

    const char *name() const override { return "atom-loss"; }

    void
    after(const sim::Instruction &inst, const CompileInfo &info,
          sim::Circuit &out) override
    {
        (void)info;
        if (isTwoQubitGate(inst.gate))
            emitLoss(p_, eta_, inst.targets, out);
    }

  private:
    double p_ = 1e-3;
    double eta_ = 1.0;
};

/** Leakage out of the qubit subspace after every unitary. */
class LeakageSource final : public NoiseSource
{
  public:
    explicit LeakageSource(
        const std::map<std::string, double> &params)
    {
        ParamReader r(params, "noise source", name());
        r.real("p", p_);
        r.real("heraldEff", eta_);
        r.finish();
        requireProb(p_, "leakage p");
        requireProb(eta_, "leakage heraldEff");
    }

    const char *name() const override { return "leakage"; }

    void
    after(const sim::Instruction &inst, const CompileInfo &info,
          sim::Circuit &out) override
    {
        (void)info;
        const sim::GateInfo &gi = sim::gateInfo(inst.gate);
        if (gi.unitary && inst.gate != sim::Gate::I)
            emitLoss(p_, eta_, inst.targets, out);
    }

  private:
    double p_ = 1e-4;
    double eta_ = 0.5;
};

/**
 * Dephasing of spectator qubits while a measurement is pipelined
 * with a block move (Sec. IV.2): every qubit NOT being measured
 * waits out max(measure, move) and dephases with
 * p = (1 - exp(-t / T2)) / 2.
 */
class IdleDephasingSource final : public NoiseSource
{
  public:
    explicit IdleDephasingSource(
        const std::map<std::string, double> &params)
    {
        ParamReader r(params, "noise source", name());
        r.real("t2", t2_);
        r.real("moveSites", moveSites_);
        r.finish();
        TRAQ_REQUIRE(t2_ > 0.0, "idle-dephasing t2 must be > 0");
        TRAQ_REQUIRE(moveSites_ >= 0.0,
                     "idle-dephasing moveSites must be >= 0");
    }

    const char *name() const override { return "idle-dephasing"; }

    void
    before(const sim::Instruction &inst, const CompileInfo &info,
           sim::Circuit &out) override
    {
        if (!sim::gateInfo(inst.gate).measurement)
            return;
        platform::MoveSchedule sched(info.platform);
        sched.addPipelinedMeasureMove(moveSites_);
        const double t = sched.totalTime();
        const double p = 0.5 * (1.0 - std::exp(-t / t2_));
        if (p <= 0.0)
            return;
        idle_.clear();
        for (std::uint32_t q = 0; q < info.numQubits; ++q)
            if (std::find(inst.targets.begin(), inst.targets.end(),
                          q) == inst.targets.end())
                idle_.push_back(q);
        if (!idle_.empty())
            out.zError(p, idle_);
    }

  private:
    double t2_ = 1.0;
    double moveSites_ = 2.0;
    std::vector<std::uint32_t> idle_;
};

/** Perfectly correlated two-qubit Pauli noise after entanglers. */
class CorrelatedPauliSource final : public NoiseSource
{
  public:
    explicit CorrelatedPauliSource(
        const std::map<std::string, double> &params)
    {
        ParamReader r(params, "noise source", name());
        r.real("p", p_);
        r.finish();
        requireProb(p_, "correlated-pauli p");
    }

    const char *name() const override { return "correlated-pauli"; }

    void
    after(const sim::Instruction &inst, const CompileInfo &info,
          sim::Circuit &out) override
    {
        (void)info;
        if (isTwoQubitGate(inst.gate) && p_ > 0.0)
            out.correlatedPauli2(p_, inst.targets);
    }

  private:
    double p_ = 1e-4;
};

/**
 * Readout bias: the physical flip before a measurement is stronger
 * for one outcome (bright/dark asymmetry), modeled as
 * p (1 + bias) in the measured basis's flip direction.
 */
class BiasedMeasurementSource final : public NoiseSource
{
  public:
    explicit BiasedMeasurementSource(
        const std::map<std::string, double> &params)
    {
        ParamReader r(params, "noise source", name());
        r.real("p", p_);
        r.real("bias", bias_);
        r.finish();
        requireProb(p_, "biased-measurement p");
        TRAQ_REQUIRE(bias_ >= -1.0 && bias_ <= 1.0,
                     "biased-measurement bias must be in [-1, 1]");
    }

    const char *name() const override
    {
        return "biased-measurement";
    }

    void
    before(const sim::Instruction &inst, const CompileInfo &info,
           sim::Circuit &out) override
    {
        (void)info;
        const double pUp =
            std::clamp(p_ * (1.0 + bias_), 0.0, 1.0);
        const double pDown =
            std::clamp(p_ * (1.0 - bias_), 0.0, 1.0);
        if (inst.gate == sim::Gate::M ||
            inst.gate == sim::Gate::MR) {
            if (pUp > 0.0)
                out.xError(pUp, inst.targets);
        } else if (inst.gate == sim::Gate::MX) {
            if (pDown > 0.0)
                out.zError(pDown, inst.targets);
        }
    }

  private:
    double p_ = 1e-3;
    double bias_ = 0.0;
};

/** Build source S from its parameters. */
template <class S>
std::unique_ptr<NoiseSource>
make(const std::map<std::string, double> &params)
{
    return std::make_unique<S>(params);
}

/** The sources, sorted by name: the one table makeNoiseSource()
 *  scans and registeredNoiseSources() lists. */
constexpr struct
{
    const char *name;
    std::unique_ptr<NoiseSource> (*make)(
        const std::map<std::string, double> &);
} kSources[] = {
    {"atom-loss", make<AtomLossSource>},
    {"biased-measurement", make<BiasedMeasurementSource>},
    {"correlated-pauli", make<CorrelatedPauliSource>},
    {"idle-dephasing", make<IdleDephasingSource>},
    {"leakage", make<LeakageSource>},
};

} // namespace

std::string
NoiseSpec::canonical() const
{
    std::ostringstream oss;
    bool firstSource = true;
    for (const auto &src : sources) {
        if (!firstSource)
            oss << "|";
        firstSource = false;
        oss << src.name << "(";
        bool firstParam = true;
        for (const auto &[k, v] : src.params) {
            if (!firstParam)
                oss << ",";
            firstParam = false;
            oss << k << "=" << fmtRoundTrip(v);
        }
        oss << ")";
    }
    return oss.str();
}

void
NoiseSpec::setFlat(std::string_view key, double value)
{
    constexpr std::string_view prefix = "noise.";
    TRAQ_REQUIRE(key.substr(0, prefix.size()) == prefix,
                 "flat noise key must start with 'noise.'");
    const std::string_view rest = key.substr(prefix.size());
    const std::size_t dot = rest.find('.');
    TRAQ_REQUIRE(dot != std::string_view::npos && dot > 0 &&
                     dot + 1 < rest.size(),
                 "flat noise key must be noise.<source>.<param>");
    const std::string source(rest.substr(0, dot));
    const std::string param(rest.substr(dot + 1));
    for (auto &src : sources) {
        if (src.name == source) {
            src.params[param] = value;
            return;
        }
    }
    sources.push_back({source, {{param, value}}});
}

std::map<std::string, double>
NoiseSpec::flat() const
{
    std::map<std::string, double> out;
    for (const auto &src : sources)
        for (const auto &[k, v] : src.params)
            out["noise." + src.name + "." + k] = v;
    return out;
}

std::unique_ptr<NoiseSource>
makeNoiseSource(const NoiseSourceSpec &spec)
{
    std::string known;
    for (const auto &source : kSources) {
        if (spec.name == source.name)
            return source.make(spec.params);
        known += std::string(" ") + source.name;
    }
    TRAQ_FATAL("unknown noise source '" + spec.name +
               "' (registered:" + known + ")");
}

std::vector<std::string>
registeredNoiseSources()
{
    std::vector<std::string> names;
    for (const auto &source : kSources)
        names.push_back(source.name);
    return names;
}

NoiseModel
NoiseModel::fromSpec(const NoiseSpec &spec)
{
    NoiseModel model;
    model.sources_.reserve(spec.sources.size());
    for (const auto &src : spec.sources)
        model.sources_.push_back(makeNoiseSource(src));
    return model;
}

sim::Circuit
NoiseModel::compile(const sim::Circuit &circuit,
                    const platform::AtomArrayParams &params) const
{
    if (sources_.empty())
        return circuit;
    CompileInfo info;
    info.numQubits = circuit.numQubits();
    info.platform = params;
    sim::Circuit out;
    for (const sim::Instruction &inst : circuit.instructions()) {
        for (const auto &src : sources_)
            src->before(inst, info, out);
        out.append(inst);
        for (const auto &src : sources_)
            src->after(inst, info, out);
    }
    return out;
}

} // namespace traq::noise
