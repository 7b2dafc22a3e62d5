/**
 * @file
 * Frame-sampler kernel bodies, compiled once per dispatch level.
 *
 * This header is included by exactly three translation units
 * (frame_kernels_{baseline,avx2,avx512}.cc), each defining
 * TRAQ_KERNEL_NS to its level name and compiled with the matching
 * arch flags.  Everything here is plain 64-bit integer code — the
 * levels differ only in how the compiler vectorizes the lane loops,
 * so all three copies are bit-identical by construction.
 *
 * Two kernels live here:
 *  - sampleInto: the lane-templated Pauli-frame sampler moved out of
 *    frame.cc (per-gate XOR loops, fused noise channels, heralded
 *    erasure planes);
 *  - extractBlock: CSR syndrome extraction via a blocked 64x64
 *    bit-matrix transpose of the detector/herald planes (lane-major
 *    in, shot-major out) instead of per-bit countr_zero walks over
 *    the planes.  Each shot's defects then stream out of its own
 *    contiguous row words — sequential, vector-friendly, and
 *    bit-identical to extractSyndromeBlockScalar.
 */

#ifndef TRAQ_KERNEL_NS
#error "frame_kernels_impl.hh requires TRAQ_KERNEL_NS"
#endif

#include <algorithm>
#include <bit>

#include "src/common/assert.hh"
#include "src/common/math.hh"
#include "src/sim/frame_kernels.hh"

namespace traq::sim::kernels {
namespace TRAQ_KERNEL_NS {
namespace {

/** Single-qubit channels fusable into one plane draw. */
bool
fusableNoise(Gate g)
{
    return g == Gate::X_ERROR || g == Gate::Z_ERROR ||
           g == Gate::Y_ERROR || g == Gate::DEPOLARIZE1;
}

/** Probability of the fused channel for two back-to-back copies. */
double
fuseProb(Gate g, double p1, double p2)
{
    if (g == Gate::DEPOLARIZE1)
        // Composition of depolarizing channels is depolarizing:
        // the Pauli-invariant factor (1 - 4p/3) multiplies.
        return p1 + p2 - 4.0 * p1 * p2 / 3.0;
    // Independent flips combine by XOR.
    return pXor(p1, p2);
}

template <unsigned L>
void
applyNoise(FrameSimState &st, const Instruction &inst, double p,
           unsigned lanes, FrameBatch &out)
{
    const unsigned nl = L ? L : lanes;
    std::uint64_t *e = st.plane.data();
    std::uint64_t *xf = st.xf.data();
    std::uint64_t *zf = st.zf.data();
    switch (inst.gate) {
      case Gate::X_ERROR:
        for (std::uint32_t q : inst.targets) {
            st.rng.bernoulliPlane(p, e, nl);
            for (unsigned l = 0; l < nl; ++l)
                xf[q * nl + l] ^= e[l];
        }
        break;
      case Gate::Z_ERROR:
        for (std::uint32_t q : inst.targets) {
            st.rng.bernoulliPlane(p, e, nl);
            for (unsigned l = 0; l < nl; ++l)
                zf[q * nl + l] ^= e[l];
        }
        break;
      case Gate::Y_ERROR:
        for (std::uint32_t q : inst.targets) {
            st.rng.bernoulliPlane(p, e, nl);
            for (unsigned l = 0; l < nl; ++l) {
                xf[q * nl + l] ^= e[l];
                zf[q * nl + l] ^= e[l];
            }
        }
        break;
      case Gate::DEPOLARIZE1:
        for (std::uint32_t q : inst.targets) {
            st.rng.bernoulliPlane(p, e, nl);
            for (unsigned l = 0; l < nl; ++l) {
                std::uint64_t rest = e[l];
                if (!rest)
                    continue;
                // For each erred shot pick X, Y or Z uniformly.
                while (rest) {
                    const int s = std::countr_zero(rest);
                    rest &= rest - 1;
                    const std::uint64_t bit = 1ULL << s;
                    switch (st.rng.below(3)) {
                      case 0:
                        xf[q * nl + l] ^= bit;
                        break;
                      case 1:
                        xf[q * nl + l] ^= bit;
                        zf[q * nl + l] ^= bit;
                        break;
                      default:
                        zf[q * nl + l] ^= bit;
                        break;
                    }
                }
            }
        }
        break;
      case Gate::HERALDED_ERASE:
        // One herald plane per target, appended in instruction /
        // target order so plane c is channel c of the circuit's
        // numbering (the same order the DEM assigns channel tags).
        // The erased qubit is replaced by the maximally mixed state:
        // I, X, Y or Z with probability 1/4 each, herald set either
        // way.
        for (std::uint32_t q : inst.targets) {
            st.rng.bernoulliPlane(p, e, nl);
            const std::size_t base = out.heralds.size();
            out.heralds.insert(out.heralds.end(), e, e + nl);
            for (unsigned l = 0; l < nl; ++l) {
                std::uint64_t rest = out.heralds[base + l];
                while (rest) {
                    const int s = std::countr_zero(rest);
                    rest &= rest - 1;
                    const std::uint64_t bit = 1ULL << s;
                    switch (st.rng.below(4)) {
                      case 0:
                        break;  // I: erased but frame unchanged
                      case 1:
                        xf[q * nl + l] ^= bit;
                        break;
                      case 2:
                        xf[q * nl + l] ^= bit;
                        zf[q * nl + l] ^= bit;
                        break;
                      default:
                        zf[q * nl + l] ^= bit;
                        break;
                    }
                }
            }
        }
        break;
      case Gate::CORRELATED_PAULI2:
        for (std::size_t i = 0; i + 1 < inst.targets.size(); i += 2) {
            const std::uint32_t a = inst.targets[i];
            const std::uint32_t b = inst.targets[i + 1];
            st.rng.bernoulliPlane(p, e, nl);
            for (unsigned l = 0; l < nl; ++l) {
                std::uint64_t rest = e[l];
                while (rest) {
                    const int s = std::countr_zero(rest);
                    rest &= rest - 1;
                    const std::uint64_t bit = 1ULL << s;
                    // XX, YY or ZZ uniformly — both qubits get the
                    // same Pauli (the correlation is the point).
                    switch (st.rng.below(3)) {
                      case 0:
                        xf[a * nl + l] ^= bit;
                        xf[b * nl + l] ^= bit;
                        break;
                      case 1:
                        xf[a * nl + l] ^= bit;
                        zf[a * nl + l] ^= bit;
                        xf[b * nl + l] ^= bit;
                        zf[b * nl + l] ^= bit;
                        break;
                      default:
                        zf[a * nl + l] ^= bit;
                        zf[b * nl + l] ^= bit;
                        break;
                    }
                }
            }
        }
        break;
      case Gate::DEPOLARIZE2:
        for (std::size_t i = 0; i + 1 < inst.targets.size(); i += 2) {
            const std::uint32_t a = inst.targets[i];
            const std::uint32_t b = inst.targets[i + 1];
            st.rng.bernoulliPlane(p, e, nl);
            for (unsigned l = 0; l < nl; ++l) {
                std::uint64_t rest = e[l];
                while (rest) {
                    const int s = std::countr_zero(rest);
                    rest &= rest - 1;
                    const std::uint64_t bit = 1ULL << s;
                    const std::uint64_t k = st.rng.below(15) + 1;
                    const std::size_t pa = k / 4, pb = k % 4;
                    if (pa == 1 || pa == 2)
                        xf[a * nl + l] ^= bit;
                    if (pa == 2 || pa == 3)
                        zf[a * nl + l] ^= bit;
                    if (pb == 1 || pb == 2)
                        xf[b * nl + l] ^= bit;
                    if (pb == 2 || pb == 3)
                        zf[b * nl + l] ^= bit;
                }
            }
        }
        break;
      default:
        TRAQ_PANIC("applyNoise: not a noise instruction");
    }
}

template <unsigned L>
void
sampleIntoBody(FrameSimState &st, const Circuit &circuit,
               unsigned lanes, FrameBatch &out)
{
    const unsigned nl = L ? L : lanes;
    const std::size_t n = circuit.numQubits();
    st.xf.assign(n * nl, 0);
    st.zf.assign(n * nl, 0);
    st.mrec.clear();
    st.mrec.reserve(circuit.numMeasurements() * nl);
    st.numRec = 0;
    st.plane.resize(nl);
    std::uint64_t *xf = st.xf.data();
    std::uint64_t *zf = st.zf.data();

    out.lanes = nl;
    out.detectors.clear();
    out.detectors.reserve(circuit.numDetectors() * nl);
    out.observables.assign(circuit.numObservables() * nl, 0);
    out.heralds.clear();
    out.heralds.reserve(circuit.numHeraldChannels() * nl);

    const auto &insts = circuit.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        const GateInfo &info = gateInfo(inst.gate);
        if (info.unitary) {
            switch (inst.gate) {
              case Gate::I:
              case Gate::X:
              case Gate::Y:
              case Gate::Z:
                // Deterministic Paulis commute into the reference.
                break;
              case Gate::H:
                for (std::uint32_t q : inst.targets)
                    for (unsigned l = 0; l < nl; ++l)
                        std::swap(xf[q * nl + l], zf[q * nl + l]);
                break;
              case Gate::S:
              case Gate::S_DAG:
                // S X S^-1 = Y: an X frame gains a Z component; Z
                // frames are unchanged.  Same frame action for S_DAG.
                for (std::uint32_t q : inst.targets)
                    for (unsigned l = 0; l < nl; ++l)
                        zf[q * nl + l] ^= xf[q * nl + l];
                break;
              case Gate::SQRT_X:
              case Gate::SQRT_X_DAG:
                // Z frame gains an X component.
                for (std::uint32_t q : inst.targets)
                    for (unsigned l = 0; l < nl; ++l)
                        xf[q * nl + l] ^= zf[q * nl + l];
                break;
              case Gate::CX:
                for (std::size_t t = 0; t + 1 < inst.targets.size();
                     t += 2) {
                    const std::uint32_t a = inst.targets[t];
                    const std::uint32_t b = inst.targets[t + 1];
                    for (unsigned l = 0; l < nl; ++l) {
                        xf[b * nl + l] ^= xf[a * nl + l];
                        zf[a * nl + l] ^= zf[b * nl + l];
                    }
                }
                break;
              case Gate::CZ:
                for (std::size_t t = 0; t + 1 < inst.targets.size();
                     t += 2) {
                    const std::uint32_t a = inst.targets[t];
                    const std::uint32_t b = inst.targets[t + 1];
                    for (unsigned l = 0; l < nl; ++l) {
                        zf[a * nl + l] ^= xf[b * nl + l];
                        zf[b * nl + l] ^= xf[a * nl + l];
                    }
                }
                break;
              case Gate::SWAP:
                for (std::size_t t = 0; t + 1 < inst.targets.size();
                     t += 2) {
                    const std::uint32_t a = inst.targets[t];
                    const std::uint32_t b = inst.targets[t + 1];
                    for (unsigned l = 0; l < nl; ++l) {
                        std::swap(xf[a * nl + l], xf[b * nl + l]);
                        std::swap(zf[a * nl + l], zf[b * nl + l]);
                    }
                }
                break;
              default:
                TRAQ_PANIC("frame sim: unhandled unitary");
            }
        } else if (info.noise) {
            // Fuse runs of the same single-qubit channel on the same
            // target list into one plane draw.
            double p = inst.arg;
            while (fusableNoise(inst.gate) &&
                   i + 1 < insts.size() &&
                   insts[i + 1].gate == inst.gate &&
                   insts[i + 1].targets == inst.targets) {
                p = fuseProb(inst.gate, p, insts[i + 1].arg);
                ++i;
            }
            applyNoise<L>(st, inst, p, nl, out);
        } else if (info.measurement || info.reset) {
            for (std::uint32_t q : inst.targets) {
                switch (inst.gate) {
                  case Gate::M:
                    for (unsigned l = 0; l < nl; ++l)
                        st.mrec.push_back(xf[q * nl + l]);
                    ++st.numRec;
                    break;
                  case Gate::MX:
                    for (unsigned l = 0; l < nl; ++l)
                        st.mrec.push_back(zf[q * nl + l]);
                    ++st.numRec;
                    break;
                  case Gate::MR:
                    for (unsigned l = 0; l < nl; ++l) {
                        st.mrec.push_back(xf[q * nl + l]);
                        xf[q * nl + l] = 0;
                    }
                    ++st.numRec;
                    break;
                  case Gate::R:
                    for (unsigned l = 0; l < nl; ++l) {
                        xf[q * nl + l] = 0;
                        // Z frames on freshly reset qubits are
                        // irrelevant; clear for determinism.
                        zf[q * nl + l] = 0;
                    }
                    break;
                  case Gate::RX:
                    for (unsigned l = 0; l < nl; ++l) {
                        zf[q * nl + l] = 0;
                        xf[q * nl + l] = 0;
                    }
                    break;
                  default:
                    TRAQ_PANIC("frame sim: unhandled meas/reset");
                }
            }
        } else if (inst.gate == Gate::DETECTOR) {
            const std::size_t base = out.detectors.size();
            out.detectors.resize(base + nl, 0);
            for (std::uint32_t lb : inst.targets) {
                const std::size_t rec = (st.numRec - lb) * nl;
                for (unsigned l = 0; l < nl; ++l)
                    out.detectors[base + l] ^= st.mrec[rec + l];
            }
        } else if (inst.gate == Gate::OBSERVABLE_INCLUDE) {
            const auto idx = static_cast<std::size_t>(inst.arg);
            for (std::uint32_t lb : inst.targets) {
                const std::size_t rec = (st.numRec - lb) * nl;
                for (unsigned l = 0; l < nl; ++l)
                    out.observables[idx * nl + l] ^= st.mrec[rec + l];
            }
        }
        // TICK: no-op.
    }
}

void
sampleIntoKernel(FrameSimState &st, const Circuit &circuit,
                 unsigned lanes, FrameBatch &out)
{
    // Dispatch once per batch to a lane-count-specialized body so
    // the per-lane inner loops unroll (and vectorize — one 512-bit
    // op per 8-lane plane at the avx512 level) for the two backend
    // widths; other widths take the generic runtime-lane path.
    switch (lanes) {
      case 1:
        sampleIntoBody<1>(st, circuit, lanes, out);
        break;
      case kWide512WordLanes:
        sampleIntoBody<kWide512WordLanes>(st, circuit, lanes, out);
        break;
      default:
        sampleIntoBody<0>(st, circuit, lanes, out);
        break;
    }
}

/** In-place 64x64 bit-matrix transpose (recursive block swap, the
 *  Hacker's Delight scheme oriented for LSB-first bit numbering):
 *  output word j bit i == input word i bit j.  Each level swaps the
 *  high-bit half of the low rows with the low-bit half of the high
 *  rows — the main-diagonal transpose. */
inline void
transpose64(std::uint64_t a[64])
{
    std::uint64_t m = 0x00000000FFFFFFFFULL;
    for (unsigned j = 32; j; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

/**
 * Transpose lane-major bit planes into shot-major rows.  Plane p of
 * `planes` (words [p * lanes, (p + 1) * lanes)) lands in bit p of
 * the rows: row s (words [s * rowWords, (s + 1) * rowWords)) holds
 * plane p's shot-s bit at word p / 64, bit p % 64.  Shots whose
 * liveMask bit is clear come out all-zero.
 */
void
transposePlanes(const std::uint64_t *planes, std::size_t numPlanes,
                unsigned lanes,
                std::span<const std::uint64_t> liveMask,
                std::vector<std::uint64_t> &rows)
{
    const std::size_t rowWords = (numPlanes + 63) / 64;
    rows.resize(64ULL * lanes * rowWords);
    std::uint64_t tile[64];
    for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t mask = liveMask[l];
        for (std::size_t pw = 0; pw < rowWords; ++pw) {
            const std::size_t pBase = pw * 64;
            const std::size_t pEnd =
                std::min<std::size_t>(numPlanes, pBase + 64);
            std::uint64_t any = 0;
            for (std::size_t p = pBase; p < pEnd; ++p) {
                const std::uint64_t w =
                    planes[p * lanes + l] & mask;
                tile[p - pBase] = w;
                any |= w;
            }
            // Column pw of the 64 rows belonging to lane l.
            std::uint64_t *col =
                rows.data() + 64ULL * l * rowWords + pw;
            if (!any) {
                // Sparse fast path: an all-zero tile transposes to
                // an all-zero column, no shuffling needed.
                for (unsigned s = 0; s < 64; ++s)
                    col[s * rowWords] = 0;
                continue;
            }
            for (std::size_t p = pEnd; p < pBase + 64; ++p)
                tile[p - pBase] = 0;
            transpose64(tile);
            for (unsigned s = 0; s < 64; ++s)
                col[s * rowWords] = tile[s];
        }
    }
}

/** Stream a shot-major bit-row matrix into a CSR id list: row s's
 *  set bits (ascending) append to ids, offsets[s + 1] = total. */
void
rowsToCsr(const std::vector<std::uint64_t> &rows,
          std::size_t rowWords, std::uint64_t shots,
          std::vector<std::uint32_t> &offsets,
          std::vector<std::uint32_t> &ids)
{
    offsets.resize(shots + 1);
    offsets[0] = 0;
    ids.clear();
    const std::uint64_t *row = rows.data();
    for (std::uint64_t s = 0; s < shots; ++s, row += rowWords) {
        for (std::size_t w = 0; w < rowWords; ++w) {
            std::uint64_t word = row[w];
            const std::uint32_t base =
                static_cast<std::uint32_t>(w * 64);
            while (word) {
                ids.push_back(
                    base + static_cast<std::uint32_t>(
                               std::countr_zero(word)));
                word &= word - 1;
            }
        }
        offsets[s + 1] = static_cast<std::uint32_t>(ids.size());
    }
}

void
extractBlockKernel(const FrameBatch &batch,
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
    auto &rows = BlockScratchAccess::rowBits(out);

    // Detector planes: transpose to shot-major rows, then stream
    // each shot's row words into the CSR lists.  Ids ascend within a
    // shot by construction — the same order the scalar walk emits.
    transposePlanes(batch.detectors.data(), numDet, lanes, liveMask,
                    rows);
    rowsToCsr(rows, (numDet + 63) / 64, shots, out.offsets,
              out.defects);

    // Observable planes scatter into the per-shot flip masks with
    // the set-bit walk: there are at most 32 of them, so a transpose
    // buys nothing.
    out.observables.assign(shots, 0);
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

    // Herald planes get the same transpose treatment; circuits
    // without heralded channels skip the transpose and emit all-zero
    // offset rows.
    const std::size_t numHer = batch.numHeraldChannels();
    if (numHer == 0) {
        out.heraldOffsets.assign(shots + 1, 0);
        out.heraldIds.clear();
        return;
    }
    transposePlanes(batch.heralds.data(), numHer, lanes, liveMask,
                    rows);
    rowsToCsr(rows, (numHer + 63) / 64, shots, out.heraldOffsets,
              out.heraldIds);
}

} // namespace

const FrameKernels &
table()
{
    static const FrameKernels t{&sampleIntoKernel, &extractBlockKernel};
    return t;
}

} // namespace TRAQ_KERNEL_NS
} // namespace traq::sim::kernels
