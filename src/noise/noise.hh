/**
 * @file
 * Composable atom-array noise subsystem.
 *
 * The experiment builders (src/codes/experiments.hh) bake one
 * circuit-level depolarizing model into their circuits; everything
 * the paper's platform actually suffers beyond that — atom loss with
 * heralded detection, leakage, dephasing while blocks move, motional
 * correlated errors, biased readout — previously had no home.  This
 * subsystem gives each physical effect its own NoiseSource, selected
 * and parameterized by name from a fixed table of built-in sources,
 * and a NoiseModel that compiles an ordered stack of sources over a
 * clean (or already-noisy) circuit by interleaving extra noise
 * instructions around the existing ones.
 *
 * Compilation only ever *adds* noise instructions, never reorders or
 * drops anything, so measurement lookbacks, DETECTOR / OBSERVABLE
 * annotations, and detector ids of the input circuit stay valid; the
 * compiled circuit runs through the same frame sampler and DEM
 * builder as any other.
 *
 * Heralded erasure closes the loop with the decoders: sources with a
 * herald efficiency emit HERALDED_ERASE instructions, whose per-shot
 * herald flags the sampler exposes and whose mechanism provenance
 * the DEM / DecodeGraph track (see sim/gates.hh).  The Monte-Carlo
 * engine turns fired heralds into per-shot DecodeContext weight
 * overrides — erasure-aware decoding.
 *
 * Specs are plain name + scalar-parameter data, round-trippable
 * through the flat "noise.<source>.<param>" keys the estimator
 * request layer uses, so a noise stack travels through the JSON
 * service unchanged.
 */

#ifndef TRAQ_NOISE_NOISE_HH
#define TRAQ_NOISE_NOISE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/platform/params.hh"
#include "src/sim/circuit.hh"

namespace traq::noise {

/** One configured noise source: source name + named parameters. */
struct NoiseSourceSpec
{
    std::string name;
    std::map<std::string, double> params;
};

/**
 * An ordered stack of noise sources.  Order is application order
 * during compilation (later sources see only the original circuit's
 * instructions, not noise added by earlier sources).
 */
struct NoiseSpec
{
    std::vector<NoiseSourceSpec> sources;

    bool empty() const { return sources.empty(); }

    /**
     * Stable textual encoding — two specs are equivalent exactly
     * when their canonical strings match (parameters sorted,
     * fmtRoundTrip values).  Engine-level caches key on this.
     */
    std::string canonical() const;

    /**
     * Apply one flat parameter "noise.<source>.<param>" = value
     * (the estimator request encoding).  The source is appended on
     * first mention, so a sorted flat map reconstructs a spec with
     * alphabetical source order — deterministic, and order only
     * matters for sources touching the same instruction anyway.
     * Throws FatalError on a malformed key.
     */
    void setFlat(std::string_view key, double value);

    /** Flatten back to "noise.<source>.<param>" keys. */
    std::map<std::string, double> flat() const;
};

/** Static context sources may consult while compiling. */
struct CompileInfo
{
    std::uint32_t numQubits = 0;
    platform::AtomArrayParams platform =
        platform::AtomArrayParams::paperDefaults();
};

/**
 * One physical noise effect.  Sources are stateless between
 * circuits; before()/after() are called once per input instruction
 * and append noise instructions to the output circuit.
 */
class NoiseSource
{
  public:
    virtual ~NoiseSource() = default;

    /** Source name, e.g. "atom-loss". */
    virtual const char *name() const = 0;

    /** Emit noise preceding `inst` (e.g. pre-measurement flips). */
    virtual void before(const sim::Instruction &inst,
                        const CompileInfo &info, sim::Circuit &out)
    {
        (void)inst;
        (void)info;
        (void)out;
    }

    /** Emit noise following `inst` (e.g. post-gate loss). */
    virtual void after(const sim::Instruction &inst,
                       const CompileInfo &info, sim::Circuit &out)
    {
        (void)inst;
        (void)info;
        (void)out;
    }
};

/**
 * Instantiate one source ("atom-loss", "biased-measurement",
 * "correlated-pauli", "idle-dephasing" or "leakage") from its spec.
 * Throws FatalError on an unknown source name (listing the known
 * ones) or an unknown parameter name — a sweep over a misspelled
 * axis must not silently no-op (same loudness contract as the
 * estimator registry).
 */
std::unique_ptr<NoiseSource>
makeNoiseSource(const NoiseSourceSpec &spec);

/** Sorted list of the source names makeNoiseSource() knows. */
std::vector<std::string> registeredNoiseSources();

/**
 * A compiled stack of noise sources.  Move-only (owns the source
 * instances); build one from a spec and reuse it across circuits.
 */
class NoiseModel
{
  public:
    NoiseModel() = default;

    /** Instantiate every source of the spec (validates it fully). */
    static NoiseModel fromSpec(const NoiseSpec &spec);

    bool empty() const { return sources_.empty(); }

    /**
     * Compile: for each instruction of `circuit`, every source's
     * before() noise, then the instruction, then every source's
     * after() noise.  Annotations and measurement lookbacks survive
     * unchanged (only noise instructions are inserted).
     */
    sim::Circuit compile(const sim::Circuit &circuit,
                         const platform::AtomArrayParams &params =
                             platform::AtomArrayParams::
                                 paperDefaults()) const;

  private:
    std::vector<std::unique_ptr<NoiseSource>> sources_;
};

} // namespace traq::noise

#endif // TRAQ_NOISE_NOISE_HH
