#include "src/estimator/shor.hh"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "src/arch/se_schedule.hh"
#include "src/common/assert.hh"
#include "src/common/math.hh"
#include "src/estimator/calibration.hh"

namespace traq::est {

FactoringReport
estimateFactoring(const FactoringSpec &spec)
{
    TRAQ_REQUIRE(spec.nBits >= 16, "modulus too small");
    TRAQ_REQUIRE(spec.wExp >= 1 && spec.wMul >= 1,
                 "window sizes must be positive");
    FactoringReport r;

    // --- Algorithm counts (Ekerå–Håstad + windowed arithmetic) ---
    r.exponentBits = std::ceil(1.5 * spec.nBits);
    double lookupsPerExponentWindow =
        std::ceil(static_cast<double>(spec.nBits) / spec.wMul);
    // Two multiply-add passes (compute + uncompute) per window.
    r.lookupAdditions =
        2.0 * std::ceil(r.exponentBits / spec.wExp) *
        lookupsPerExponentWindow;

    const int segments = static_cast<int>(
        traq::ceilDiv(spec.nBits, spec.rsep));

    // --- Runway padding from the oblivious-runway budget ---
    if (spec.rpad > 0) {
        r.rpad = spec.rpad;
    } else {
        double uses = segments * r.lookupAdditions;
        r.rpad = static_cast<int>(
            std::ceil(std::log2(uses / spec.runwayErrorBudget)));
    }
    const int bitsWithRunways = spec.nBits + segments * r.rpad;

    // --- CCZ count and per-CCZ budget ---
    const int m = spec.wExp + spec.wMul;
    double cczPerLookup = std::pow(2.0, m) - m - 1;
    double unlookupCcz = std::pow(2.0, m / 2.0);
    r.cczTotal = r.lookupAdditions *
                 (bitsWithRunways + cczPerLookup + unlookupCcz);
    r.targetCczError = spec.cczErrorBudget / r.cczTotal;

    // --- Factory design (solves its own distance) ---
    gadgets::FactorySpec fspec;
    fspec.targetCczError = r.targetCczError;
    fspec.atom = spec.atom;
    fspec.errorModel = spec.errorModel;
    fspec.cultivation = spec.cultivation;
    r.factory = gadgets::designFactory(fspec);

    // --- Compute distance: satisfy the Clifford + idle budget ---
    const double storedLogical =
        3.0 * spec.nBits + segments * r.rpad + 64.0;

    auto gadgetReports = [&](int d) {
        gadgets::AdderSpec as;
        as.nBits = spec.nBits;
        as.rsep = spec.rsep;
        as.rpad = r.rpad;
        as.distance = d;
        as.atom = spec.atom;
        as.errorModel = spec.errorModel;
        as.kappaAdd = kKappaAdd;

        gadgets::LookupSpec ls;
        ls.addressBits = m;
        ls.targetBits = bitsWithRunways;
        ls.distance = d;
        ls.atom = spec.atom;
        ls.errorModel = spec.errorModel;
        ls.kappaLookup = kKappaLookup;
        return std::make_pair(gadgets::designAdder(as),
                              gadgets::designLookup(ls));
    };

    auto idlePeriodFor = [&](int d) {
        if (spec.idlePeriod > 0)
            return spec.idlePeriod;
        return arch::optimalIdlePeriod(d, spec.atom,
                                       spec.errorModel);
    };

    auto idleErrorFor = [&](int d, double seconds, double tau) {
        double perRound =
            spec.errorModel.prefactorC *
            std::pow((arch::kSeRoundErrorWeight *
                          spec.errorModel.pPhys +
                      arch::idleError(tau, spec.atom)) /
                         (arch::kSeRoundErrorWeight *
                          spec.errorModel.pThres),
                     (d + 1) / 2.0);
        return storedLogical * (seconds / tau) * perRound;
    };

    auto totalBudgetError = [&](int d) {
        auto [ar, lr] = gadgetReports(d);
        double seconds = r.lookupAdditions *
                         (ar.timePerAddition + lr.timePerLookup);
        double tau = idlePeriodFor(d);
        return r.lookupAdditions * (ar.logicalErrorPerAddition +
                                    lr.logicalErrorPerLookup) +
               idleErrorFor(d, seconds, tau);
    };

    if (spec.distance > 0) {
        r.distance = spec.distance;
    } else {
        int d = 3;
        while (d < 99 &&
               totalBudgetError(d) > spec.logicalErrorBudget)
            d += 2;
        // A single uniform distance: storage and compute share the
        // factory's distance if larger (Table II uses one d).
        r.distance = std::max(d, r.factory.distance);
    }
    const int d = r.distance;
    r.idlePeriodUsed = idlePeriodFor(d);

    // --- Gadget designs at the resolved distance ---
    std::tie(r.adder, r.lookup) = gadgetReports(d);

    r.timePerLookup = r.lookup.timePerLookup;
    r.timePerAddition = r.adder.timePerAddition;
    r.totalSeconds =
        r.lookupAdditions * (r.timePerLookup + r.timePerAddition);
    r.days = r.totalSeconds / 86400.0;

    // --- Factory count: hide latency behind peak CCZ demand ---
    double demand = std::max(r.adder.cczRate, r.lookup.cczRate);
    if (spec.factories > 0) {
        r.factories = spec.factories;
    } else {
        r.factories = static_cast<int>(std::ceil(
            demand / r.factory.throughput * kFactoryMargin));
    }

    // --- Space breakdown ---
    r.storageQubits = storedLogical * d * d * kStorageOverhead;
    r.adderQubits = r.adder.activePhysicalQubits;
    r.lookupQubits = r.lookup.activePhysicalQubits;
    r.factoryQubits = r.factories * r.factory.qubits;
    double subtotal = r.storageQubits + r.adderQubits +
                      r.lookupQubits + r.factoryQubits;
    r.routingQubits = subtotal * kRoutingOverhead;
    r.physicalQubits = subtotal + r.routingQubits;

    // --- Error accounting ---
    r.algorithmLogicalError =
        r.lookupAdditions * (r.adder.logicalErrorPerAddition +
                             r.lookup.logicalErrorPerLookup);
    r.idleError = idleErrorFor(d, r.totalSeconds, r.idlePeriodUsed);
    r.runwayError = segments * r.lookupAdditions *
                    std::pow(2.0, -r.rpad);
    r.cczError = r.cczTotal * r.factory.cczError;

    r.spacetimeVolume = r.physicalQubits * r.totalSeconds;
    r.feasible =
        r.algorithmLogicalError + r.idleError <=
            spec.logicalErrorBudget &&
        r.runwayError <= spec.runwayErrorBudget * 10 &&
        r.cczError <= spec.cczErrorBudget * 1.2 &&
        r.factory.cultivationFits;

    // --- Fig. 12 phase ledgers ---
    double lookupPhaseTime = r.lookupAdditions * r.timePerLookup;
    double addPhaseTime = r.lookupAdditions * r.timePerAddition;
    double lookupErr =
        r.lookupAdditions * r.lookup.logicalErrorPerLookup;
    double addErr =
        r.lookupAdditions * r.adder.logicalErrorPerAddition;
    double cczErrLookupShare =
        r.cczError * (cczPerLookup + unlookupCcz) /
        (bitsWithRunways + cczPerLookup + unlookupCcz);
    double cczErrAddShare = r.cczError - cczErrLookupShare;
    double idleLookupShare =
        r.idleError * lookupPhaseTime / r.totalSeconds;
    double idleAddShare = r.idleError - idleLookupShare;

    r.lookupPhase.add("cnot-fanout", r.lookupQubits,
                      lookupPhaseTime, lookupErr);
    r.lookupPhase.add("factories", r.factoryQubits,
                      lookupPhaseTime, cczErrLookupShare);
    r.lookupPhase.add("storage", r.storageQubits, lookupPhaseTime,
                      idleLookupShare);
    r.lookupPhase.add("routing", r.routingQubits, lookupPhaseTime,
                      0.0);

    r.additionPhase.add("adder", r.adderQubits, addPhaseTime,
                        addErr);
    r.additionPhase.add("factories", r.factoryQubits, addPhaseTime,
                        cczErrAddShare);
    r.additionPhase.add("storage", r.storageQubits, addPhaseTime,
                        idleAddShare);
    r.additionPhase.add("routing", r.routingQubits, addPhaseTime,
                        0.0);
    return r;
}

} // namespace traq::est
