#include "src/sim/frame.hh"

#include <bit>

#include "src/common/assert.hh"

namespace traq::sim {

void
extractSyndromeBlockScalar(const FrameBatch &batch,
                           std::span<const std::uint64_t> liveMask,
                           SyndromeBlock &out)
{
    const unsigned lanes = batch.lanes;
    TRAQ_REQUIRE(lanes >= 1, "batch has no lanes");
    TRAQ_REQUIRE(liveMask.size() == lanes,
                 "liveMask needs one word per lane");
    const std::uint64_t shots = batch.shots();
    const std::size_t numDet = batch.numDetectors();
    const std::size_t numObs = batch.numObservables();
    TRAQ_REQUIRE(numObs <= 32,
                 "SyndromeBlock packs observables into 32-bit masks");

    out.lanes = lanes;
    out.offsets.assign(shots + 1, 0);
    out.observables.assign(shots, 0);

    // Counting pass: offsets[s + 1] accumulates shot s's defect
    // count.  Only set bits are visited; zero words — the common
    // case below threshold — cost one compare.
    for (std::size_t d = 0; d < numDet; ++d) {
        for (unsigned l = 0; l < lanes; ++l) {
            std::uint64_t word =
                batch.detectors[d * lanes + l] & liveMask[l];
            const std::size_t base = 64u * l;
            while (word) {
                const int s = std::countr_zero(word);
                word &= word - 1;
                ++out.offsets[base + s + 1];
            }
        }
    }
    for (std::uint64_t s = 0; s < shots; ++s)
        out.offsets[s + 1] += out.offsets[s];
    out.defects.resize(out.offsets[shots]);

    // Fill pass: repeat the walk with per-shot cursors.  Detector
    // ids ascend with d, so each shot's syndrome comes out sorted.
    out.cursor_.assign(out.offsets.begin(), out.offsets.end() - 1);
    for (std::size_t d = 0; d < numDet; ++d) {
        for (unsigned l = 0; l < lanes; ++l) {
            std::uint64_t word =
                batch.detectors[d * lanes + l] & liveMask[l];
            const std::size_t base = 64u * l;
            while (word) {
                const int s = std::countr_zero(word);
                word &= word - 1;
                out.defects[out.cursor_[base + s]++] =
                    static_cast<std::uint32_t>(d);
            }
        }
    }

    // Observable planes scatter into the per-shot flip masks the
    // same way (set bits only — no per-shot transpose loop).
    for (std::size_t k = 0; k < numObs; ++k) {
        const std::uint32_t bit = 1u << k;
        for (unsigned l = 0; l < lanes; ++l) {
            std::uint64_t word =
                batch.observables[k * lanes + l] & liveMask[l];
            const std::size_t base = 64u * l;
            while (word) {
                const int s = std::countr_zero(word);
                word &= word - 1;
                out.observables[base + s] |= bit;
            }
        }
    }

    // Herald planes get the same two-pass CSR treatment; channel ids
    // ascend with the plane index, so each shot's list comes out
    // sorted.  Circuits without heralded channels pay two assigns
    // and skip both loops.
    const std::size_t numHer = batch.numHeraldChannels();
    out.heraldOffsets.assign(shots + 1, 0);
    for (std::size_t c = 0; c < numHer; ++c) {
        for (unsigned l = 0; l < lanes; ++l) {
            std::uint64_t word =
                batch.heralds[c * lanes + l] & liveMask[l];
            const std::size_t base = 64u * l;
            while (word) {
                const int s = std::countr_zero(word);
                word &= word - 1;
                ++out.heraldOffsets[base + s + 1];
            }
        }
    }
    for (std::uint64_t s = 0; s < shots; ++s)
        out.heraldOffsets[s + 1] += out.heraldOffsets[s];
    out.heraldIds.resize(out.heraldOffsets[shots]);
    if (numHer) {
        out.cursor_.assign(out.heraldOffsets.begin(),
                           out.heraldOffsets.end() - 1);
        for (std::size_t c = 0; c < numHer; ++c) {
            for (unsigned l = 0; l < lanes; ++l) {
                std::uint64_t word =
                    batch.heralds[c * lanes + l] & liveMask[l];
                const std::size_t base = 64u * l;
                while (word) {
                    const int s = std::countr_zero(word);
                    word &= word - 1;
                    out.heraldIds[out.cursor_[base + s]++] =
                        static_cast<std::uint32_t>(c);
                }
            }
        }
    }
}

FrameSimulator::FrameSimulator(std::uint64_t seed, unsigned lanes,
                               CpuDispatch)
    : st_(seed), lanes_(lanes)
{
    TRAQ_REQUIRE(lanes_ >= 1, "frame sim needs at least one lane");
}

FrameBatch
FrameSimulator::sample(const Circuit &circuit)
{
    FrameBatch out;
    sampleInto(circuit, out);
    return out;
}

std::vector<std::uint64_t>
FrameSimulator::countObservableFlips(const Circuit &circuit,
                                     std::uint64_t minShots,
                                     std::uint64_t *shotsOut)
{
    std::vector<std::uint64_t> counts(circuit.numObservables(), 0);
    std::uint64_t shots = 0;
    FrameBatch batch;
    while (shots < minShots) {
        sampleInto(circuit, batch);
        for (std::size_t k = 0; k < counts.size(); ++k)
            for (unsigned l = 0; l < lanes_; ++l)
                counts[k] += static_cast<std::uint64_t>(
                    std::popcount(batch.observables[k * lanes_ + l]));
        shots += batch.shots();
    }
    if (shotsOut)
        *shotsOut = shots;
    return counts;
}

} // namespace traq::sim
