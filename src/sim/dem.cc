#include "src/sim/dem.hh"

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>

#include "src/common/assert.hh"
#include "src/common/math.hh"

namespace traq::sim {
namespace {

/** What one flip toggles: a sorted detector XOR-set plus an
 *  observable mask. */
struct Symptoms
{
    std::vector<std::uint32_t> dets;
    std::uint32_t obs = 0;

    bool empty() const { return dets.empty() && obs == 0; }

    void
    clear()
    {
        dets.clear();
        obs = 0;
    }
};

/** a ^= b (a and b may alias); scratch is a reusable merge buffer. */
void
xorInto(Symptoms &a, const Symptoms &b, std::vector<std::uint32_t> &scratch)
{
    a.obs ^= b.obs;
    if (b.dets.empty())
        return;
    scratch.clear();
    std::set_symmetric_difference(a.dets.begin(), a.dets.end(),
                                  b.dets.begin(), b.dets.end(),
                                  std::back_inserter(scratch));
    a.dets.swap(scratch);
}

/**
 * Record bookkeeping both builders share: the measurement count
 * before each instruction, and each measurement's symptoms (the
 * detectors and observables that include it, XOR-reduced).
 */
struct Records
{
    std::vector<std::uint64_t> measBefore;
    std::vector<Symptoms> meas;
};

Records
indexRecords(const Circuit &circuit)
{
    const auto &insts = circuit.instructions();
    Records r;
    r.measBefore.resize(insts.size() + 1, 0);
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        r.measBefore[i] = m;
        if (gateInfo(insts[i].gate).measurement)
            m += insts[i].targets.size();
    }
    r.measBefore[insts.size()] = m;

    r.meas.resize(circuit.numMeasurements());
    std::uint32_t detId = 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        if (inst.gate == Gate::DETECTOR) {
            // Detector ids rise, so each list stays sorted and a
            // lookback listed twice cancels against its neighbour.
            for (std::uint32_t lb : inst.targets) {
                auto &dets = r.meas[r.measBefore[i] - lb].dets;
                if (!dets.empty() && dets.back() == detId)
                    dets.pop_back();
                else
                    dets.push_back(detId);
            }
            ++detId;
        } else if (inst.gate == Gate::OBSERVABLE_INCLUDE) {
            auto idx = static_cast<std::uint32_t>(inst.arg);
            TRAQ_REQUIRE(idx < 32,
                         "at most 32 observables supported");
            for (std::uint32_t lb : inst.targets)
                r.meas[r.measBefore[i] - lb].obs ^= 1u << idx;
        }
    }
    return r;
}

/**
 * One Pauli error component: Pauli pa on qubit a times pb on qubit b
 * (codes 1 = X, 2 = Y, 3 = Z, 0 = I), with its probability and the
 * herald channel of a HERALDED_ERASE target (-1 otherwise).
 */
struct Component
{
    std::uint32_t a = 0;
    int pa = 0;
    std::uint32_t b = 0;
    int pb = 0;
    double p = 0.0;
    std::int64_t channel = -1;
};

/**
 * Call fn(component) for every error component of noise instruction
 * inst, target by target: the order probabilities are XOR-combined
 * in.  heraldChannel is the next herald channel id (one per
 * HERALDED_ERASE target in instruction order, the numbering the
 * frame sampler emits herald planes in) and is advanced past inst's.
 */
template <class Fn>
void
forEachComponent(const Instruction &inst, std::uint32_t &heraldChannel,
                 Fn &&fn)
{
    const double p = inst.arg;
    const auto &t = inst.targets;
    switch (inst.gate) {
      case Gate::X_ERROR:
      case Gate::Y_ERROR:
      case Gate::Z_ERROR: {
        const int pauli = inst.gate == Gate::X_ERROR
                              ? 1
                              : (inst.gate == Gate::Y_ERROR ? 2 : 3);
        for (std::uint32_t q : t)
            fn(Component{q, pauli, q, 0, p, -1});
        break;
      }
      case Gate::DEPOLARIZE1:
        for (std::uint32_t q : t)
            for (int pauli = 1; pauli <= 3; ++pauli)
                fn(Component{q, pauli, q, 0, p / 3.0, -1});
        break;
      case Gate::DEPOLARIZE2:
        for (std::size_t j = 0; j + 1 < t.size(); j += 2)
            for (int k = 1; k < 16; ++k)
                fn(Component{t[j], k / 4, t[j + 1], k % 4, p / 15.0,
                             -1});
        break;
      case Gate::HERALDED_ERASE:
        // Erasure = maximally mixed replacement: I/X/Y/Z at p/4
        // each.  The I component is invisible; the Pauli components
        // carry the target's herald channel id so the decode graph
        // knows which edges a flagged erasure can explain.
        for (std::uint32_t q : t) {
            const std::int64_t channel = heraldChannel++;
            for (int pauli = 1; pauli <= 3; ++pauli)
                fn(Component{q, pauli, q, 0, p / 4.0, channel});
        }
        break;
      case Gate::CORRELATED_PAULI2:
        // Perfectly correlated pair channel: XX / YY / ZZ at p/3
        // each, no single-sided components.
        for (std::size_t j = 0; j + 1 < t.size(); j += 2)
            for (int pauli = 1; pauli <= 3; ++pauli)
                fn(Component{t[j], pauli, t[j + 1], pauli, p / 3.0,
                             -1});
        break;
      default:
        TRAQ_PANIC("buildDem: unhandled noise channel");
    }
}

/** Add channel c to a sorted channel set. */
void
addChannel(std::vector<std::uint32_t> &channels, std::uint32_t c)
{
    auto pos = std::lower_bound(channels.begin(), channels.end(), c);
    if (pos == channels.end() || *pos != c)
        channels.insert(pos, c);
}

/** A DEM with the circuit's counts and no mechanisms yet. */
DetectorErrorModel
emptyDem(const Circuit &circuit)
{
    DetectorErrorModel dem;
    dem.numDetectors = static_cast<std::uint32_t>(
        circuit.numDetectors());
    dem.numObservables = circuit.numObservables();
    dem.numHeraldChannels = circuit.numHeraldChannels();
    return dem;
}

/**
 * Interns symptom sets as mechanisms, in first-seen order: a new set
 * appends a mechanism, whose index is its id.  Open addressing over
 * the ids.  The mechanisms live in a deque, so no allocation exceeds
 * the finished DEM's exact-size mechanism array.  (A doubling vector
 * briefly holds twice that; once glibc frees such a mapping it serves
 * later buffers up to that size from its heaps, which raised the
 * Monte-Carlo benchmark's peak resident memory by ~10%.)
 */
class MechanismIndex
{
  public:
    std::deque<ErrorMechanism> mechanisms;

    std::uint32_t
    intern(const Symptoms &s)
    {
        if (2 * (mechanisms.size() + 1) > slots_.size())
            rehash(std::max<std::size_t>(64, 2 * slots_.size()));
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hashOf(s.dets, s.obs) & mask;;
             i = (i + 1) & mask) {
            std::uint32_t &slot = slots_[i];
            if (slot == kEmpty) {
                slot = static_cast<std::uint32_t>(mechanisms.size());
                ErrorMechanism &e = mechanisms.emplace_back();
                e.detectors = s.dets;
                e.observables = s.obs;
                return slot;
            }
            const ErrorMechanism &e = mechanisms[slot];
            if (e.observables == s.obs && e.detectors == s.dets)
                return slot;
        }
    }

  private:
    static constexpr std::uint32_t kEmpty = ~0u;

    std::vector<std::uint32_t> slots_; //!< ids, or kEmpty

    static std::uint64_t
    hashOf(const std::vector<std::uint32_t> &dets, std::uint32_t obs)
    {
        std::uint64_t h = 0xcbf29ce484222325ULL ^ obs;
        for (std::uint32_t d : dets)
            h = (h ^ d) * 0x100000001b3ULL;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        return h ^ (h >> 33);
    }

    void
    rehash(std::size_t capacity)
    {
        slots_.assign(capacity, kEmpty);
        const std::size_t mask = capacity - 1;
        for (std::uint32_t id = 0; id < mechanisms.size(); ++id) {
            const ErrorMechanism &e = mechanisms[id];
            std::size_t i = hashOf(e.detectors, e.observables) & mask;
            while (slots_[i] != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = id;
        }
    }
};

/** The id of a component that is not recorded: zero probability,
 *  or no symptoms when invisible mechanisms are discarded. */
constexpr std::uint32_t kNoMechanism = ~0u;

/** Single-shot frame used for symbolic propagation. */
struct SingleFrame
{
    std::vector<std::uint8_t> xf;
    std::vector<std::uint8_t> zf;

    explicit SingleFrame(std::size_t n) : xf(n, 0), zf(n, 0) {}

    void
    clear()
    {
        std::fill(xf.begin(), xf.end(), 0);
        std::fill(zf.begin(), zf.end(), 0);
    }
};

/** Pauli component codes: 1 = X, 2 = Y, 3 = Z (0 = I). */
void
applyComponent(SingleFrame &f, std::uint32_t q, int pauli)
{
    if (pauli == 1 || pauli == 2)
        f.xf[q] ^= 1;
    if (pauli == 2 || pauli == 3)
        f.zf[q] ^= 1;
}

} // namespace

double
DetectorErrorModel::totalErrorWeight() const
{
    double sum = 0.0;
    for (const auto &e : errors)
        sum += e.probability;
    return sum;
}

DetectorErrorModel
buildDem(const Circuit &circuit, bool discardInvisible)
{
    const auto &insts = circuit.instructions();
    const Records rec = indexRecords(circuit);

    // Component offset before each instruction: where the sweep,
    // meeting instructions in reverse, files each one's components.
    std::vector<std::size_t> compBefore(insts.size() + 1, 0);
    {
        std::uint32_t channel = 0;
        std::size_t k = 0;
        for (std::size_t i = 0; i < insts.size(); ++i) {
            compBefore[i] = k;
            if (gateInfo(insts[i].gate).noise)
                forEachComponent(insts[i], channel,
                                 [&k](const Component &) { ++k; });
        }
        compBefore[insts.size()] = k;
    }

    // Backward sweep.  sx[q] / sz[q] hold what an X / Z flip of
    // qubit q just after the current instruction toggles; each
    // instruction applies the transpose of its frame rule, walking
    // its targets in reverse.
    const std::size_t n = circuit.numQubits();
    std::vector<Symptoms> sx(n), sz(n);
    std::vector<std::uint32_t> scratch;
    auto flip = [&scratch](Symptoms &a, const Symptoms &b) {
        xorInto(a, b, scratch);
    };
    Symptoms symptoms;
    auto addPauli = [&](std::uint32_t q, int pauli) {
        if (pauli == 1 || pauli == 2)
            flip(symptoms, sx[q]);
        if (pauli == 2 || pauli == 3)
            flip(symptoms, sz[q]);
    };
    MechanismIndex index;
    std::vector<std::uint32_t> ids(compBefore.back());
    for (std::size_t i = insts.size(); i-- > 0;) {
        const Instruction &inst = insts[i];
        const GateInfo &info = gateInfo(inst.gate);
        if (info.annotation)
            continue;
        if (info.noise) {
            std::size_t k = compBefore[i];
            std::uint32_t unusedChannel = 0;
            forEachComponent(inst, unusedChannel, [&](const Component &c) {
                std::uint32_t id = kNoMechanism;
                if (c.p > 0.0) {
                    symptoms.clear();
                    addPauli(c.a, c.pa);
                    addPauli(c.b, c.pb);
                    if (!(discardInvisible && symptoms.empty()))
                        id = index.intern(symptoms);
                }
                ids[k++] = id;
            });
            continue;
        }
        const auto &t = inst.targets;
        const std::uint64_t m0 = rec.measBefore[i];
        switch (inst.gate) {
          case Gate::I:
          case Gate::X:
          case Gate::Y:
          case Gate::Z:
            break;
          case Gate::H:
            for (std::size_t j = t.size(); j-- > 0;)
                std::swap(sx[t[j]], sz[t[j]]);
            break;
          case Gate::S:
          case Gate::S_DAG:
            for (std::size_t j = t.size(); j-- > 0;)
                flip(sx[t[j]], sz[t[j]]);
            break;
          case Gate::SQRT_X:
          case Gate::SQRT_X_DAG:
            for (std::size_t j = t.size(); j-- > 0;)
                flip(sz[t[j]], sx[t[j]]);
            break;
          case Gate::CX:
            for (std::size_t j = t.size(); j >= 2; j -= 2) {
                const std::uint32_t a = t[j - 2], b = t[j - 1];
                flip(sx[a], sx[b]);
                flip(sz[b], sz[a]);
            }
            break;
          case Gate::CZ:
            for (std::size_t j = t.size(); j >= 2; j -= 2) {
                const std::uint32_t a = t[j - 2], b = t[j - 1];
                flip(sx[a], sz[b]);
                flip(sx[b], sz[a]);
            }
            break;
          case Gate::SWAP:
            for (std::size_t j = t.size(); j >= 2; j -= 2) {
                const std::uint32_t a = t[j - 2], b = t[j - 1];
                std::swap(sx[a], sx[b]);
                std::swap(sz[a], sz[b]);
            }
            break;
          case Gate::M:
            for (std::size_t j = t.size(); j-- > 0;)
                flip(sx[t[j]], rec.meas[m0 + j]);
            break;
          case Gate::MR:
            for (std::size_t j = t.size(); j-- > 0;)
                sx[t[j]] = rec.meas[m0 + j];
            break;
          case Gate::MX:
            for (std::size_t j = t.size(); j-- > 0;)
                flip(sz[t[j]], rec.meas[m0 + j]);
            break;
          case Gate::R:
          case Gate::RX:
            for (std::size_t j = t.size(); j-- > 0;) {
                sx[t[j]].clear();
                sz[t[j]].clear();
            }
            break;
          default:
            TRAQ_PANIC("buildDem: unhandled instruction");
        }
    }

    // Merge in forward order, so each XOR-combined probability
    // rounds exactly as in a forward build.
    std::uint32_t heraldChannel = 0;
    std::size_t k = 0;
    for (const Instruction &inst : insts) {
        if (!gateInfo(inst.gate).noise)
            continue;
        forEachComponent(inst, heraldChannel, [&](const Component &c) {
            const std::uint32_t id = ids[k++];
            if (id == kNoMechanism)
                return;
            ErrorMechanism &e = index.mechanisms[id];
            e.probability = pXor(e.probability, c.p);
            if (c.channel >= 0)
                addChannel(e.channels,
                           static_cast<std::uint32_t>(c.channel));
        });
    }
    auto &mechanisms = index.mechanisms;
    std::sort(mechanisms.begin(), mechanisms.end(),
              [](const ErrorMechanism &a, const ErrorMechanism &b) {
                  return std::tie(a.detectors, a.observables) <
                         std::tie(b.detectors, b.observables);
              });
    DetectorErrorModel dem = emptyDem(circuit);
    dem.errors.assign(std::make_move_iterator(mechanisms.begin()),
                      std::make_move_iterator(mechanisms.end()));
    return dem;
}

DetectorErrorModel
buildDemReference(const Circuit &circuit, bool discardInvisible)
{
    const auto &insts = circuit.instructions();
    const Records rec = indexRecords(circuit);

    // Propagate one Pauli component injected just after instruction
    // `pos` and return its symptoms.
    SingleFrame frame(circuit.numQubits());
    auto propagate = [&](std::size_t pos,
                         std::vector<std::uint32_t> *dets,
                         std::uint32_t *obs) {
        std::uint64_t measIdx = rec.measBefore[pos + 1];
        std::vector<std::uint32_t> detParity;
        *obs = 0;
        auto flipMeasurement = [&] {
            const Symptoms &s = rec.meas[measIdx];
            detParity.insert(detParity.end(), s.dets.begin(),
                             s.dets.end());
            *obs ^= s.obs;
        };
        for (std::size_t i = pos + 1; i < insts.size(); ++i) {
            const Instruction &inst = insts[i];
            const GateInfo &info = gateInfo(inst.gate);
            if (info.noise || info.annotation)
                continue;
            if (info.unitary) {
                switch (inst.gate) {
                  case Gate::I:
                  case Gate::X:
                  case Gate::Y:
                  case Gate::Z:
                    break;
                  case Gate::H:
                    for (std::uint32_t q : inst.targets)
                        std::swap(frame.xf[q], frame.zf[q]);
                    break;
                  case Gate::S:
                  case Gate::S_DAG:
                    for (std::uint32_t q : inst.targets)
                        frame.zf[q] ^= frame.xf[q];
                    break;
                  case Gate::SQRT_X:
                  case Gate::SQRT_X_DAG:
                    for (std::uint32_t q : inst.targets)
                        frame.xf[q] ^= frame.zf[q];
                    break;
                  case Gate::CX:
                    for (std::size_t t = 0;
                         t + 1 < inst.targets.size(); t += 2) {
                        std::uint32_t a = inst.targets[t];
                        std::uint32_t b = inst.targets[t + 1];
                        frame.xf[b] ^= frame.xf[a];
                        frame.zf[a] ^= frame.zf[b];
                    }
                    break;
                  case Gate::CZ:
                    for (std::size_t t = 0;
                         t + 1 < inst.targets.size(); t += 2) {
                        std::uint32_t a = inst.targets[t];
                        std::uint32_t b = inst.targets[t + 1];
                        frame.zf[a] ^= frame.xf[b];
                        frame.zf[b] ^= frame.xf[a];
                    }
                    break;
                  case Gate::SWAP:
                    for (std::size_t t = 0;
                         t + 1 < inst.targets.size(); t += 2) {
                        std::uint32_t a = inst.targets[t];
                        std::uint32_t b = inst.targets[t + 1];
                        std::swap(frame.xf[a], frame.xf[b]);
                        std::swap(frame.zf[a], frame.zf[b]);
                    }
                    break;
                  default:
                    TRAQ_PANIC("DEM propagate: unhandled unitary");
                }
            } else {
                // Measurements and resets.
                for (std::uint32_t q : inst.targets) {
                    switch (inst.gate) {
                      case Gate::M:
                      case Gate::MR:
                        if (frame.xf[q])
                            flipMeasurement();
                        ++measIdx;
                        if (inst.gate == Gate::MR)
                            frame.xf[q] = 0;
                        break;
                      case Gate::MX:
                        if (frame.zf[q])
                            flipMeasurement();
                        ++measIdx;
                        break;
                      case Gate::R:
                      case Gate::RX:
                        frame.xf[q] = 0;
                        frame.zf[q] = 0;
                        break;
                      default:
                        TRAQ_PANIC("DEM propagate: unhandled op");
                    }
                }
            }
        }
        // Reduce detector list to its XOR (odd-multiplicity entries).
        std::sort(detParity.begin(), detParity.end());
        dets->clear();
        for (std::size_t i = 0; i < detParity.size();) {
            std::size_t j = i;
            while (j < detParity.size() &&
                   detParity[j] == detParity[i])
                ++j;
            if ((j - i) % 2)
                dets->push_back(detParity[i]);
            i = j;
        }
    };

    // Each merged entry keeps the XOR-combined probability plus the
    // union of herald channels whose erasure components merged into
    // it.
    struct MergedMech
    {
        double p = 0.0;
        std::vector<std::uint32_t> channels;
    };
    std::map<std::pair<std::vector<std::uint32_t>, std::uint32_t>,
             MergedMech> merged;
    std::vector<std::uint32_t> dets;
    std::uint32_t obs = 0;
    std::uint32_t heraldChannel = 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (!gateInfo(insts[i].gate).noise)
            continue;
        forEachComponent(insts[i], heraldChannel, [&](const Component &c) {
            frame.clear();
            applyComponent(frame, c.a, c.pa);
            applyComponent(frame, c.b, c.pb);
            propagate(i, &dets, &obs);
            if (c.p <= 0.0)
                return;
            if (discardInvisible && dets.empty() && obs == 0)
                return;
            MergedMech &m = merged[std::make_pair(dets, obs)];
            m.p = pXor(m.p, c.p);
            if (c.channel >= 0)
                addChannel(m.channels,
                           static_cast<std::uint32_t>(c.channel));
        });
    }

    DetectorErrorModel dem = emptyDem(circuit);
    dem.errors.reserve(merged.size());
    for (auto &[key, m] : merged) {
        ErrorMechanism e;
        e.detectors = key.first;
        e.observables = key.second;
        e.probability = m.p;
        e.channels = std::move(m.channels);
        dem.errors.push_back(std::move(e));
    }
    return dem;
}

} // namespace traq::sim
