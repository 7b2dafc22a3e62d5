/**
 * @file
 * Tests for the unified Estimator API and the parallel SweepRunner:
 * registry round-trips, parameter application against the original
 * free-function entry points, sweep determinism across thread
 * counts, memoization accounting, serialization round-trips, the
 * shared TRAQ_THREADS policy, the retained optimizer frontier, and
 * the README's parameter and environment-variable tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/serialize.hh"
#include "src/common/strings.hh"
#include "src/common/threads.hh"
#include "src/estimator/optimizer.hh"
#include "src/estimator/sweep.hh"
#include "src/noise/noise.hh"

namespace traq::est {
namespace {

void
expectSameResult(const EstimateResult &a, const EstimateResult &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.feasible, b.feasible);
    ASSERT_EQ(a.params.size(), b.params.size());
    for (const auto &[name, v] : a.params) {
        ASSERT_TRUE(b.params.count(name)) << name;
        EXPECT_EQ(v, b.params.at(name)) << name;  // bit-identical
    }
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto &[name, v] : a.metrics) {
        ASSERT_TRUE(b.metrics.count(name)) << name;
        EXPECT_EQ(v, b.metrics.at(name)) << name; // bit-identical
    }
}

TEST(EstimatorRegistry, RoundTripAllKinds)
{
    for (const char *kind : {"factoring", "chemistry",
                             "gidney-ekera", "qldpc-storage",
                             "factory-design", "idle-storage"}) {
        auto e = makeEstimator(kind);
        ASSERT_NE(e, nullptr) << kind;
        EXPECT_STREQ(e->kind(), kind);
        // A default request must be servable by every kind.
        EstimateResult r = e->estimate({kind, {}});
        EXPECT_EQ(r.kind, kind);
        EXPECT_FALSE(r.metrics.empty()) << kind;
    }
}

TEST(EstimatorRegistry, ListsBuiltins)
{
    auto kinds = registeredEstimators();
    for (const char *kind : {"factoring", "chemistry",
                             "gidney-ekera", "qldpc-storage"})
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind),
                  kinds.end())
            << kind;
}

TEST(EstimatorRegistry, UnknownKindThrows)
{
    EXPECT_THROW(makeEstimator("no-such-estimator"), FatalError);
}

TEST(EstimatorRegistry, CustomKindRegisters)
{
    class Fixed : public Estimator
    {
      public:
        const char *kind() const override { return "fixed"; }
        EstimateResult
        estimate(const EstimateRequest &req) const override
        {
            EstimateResult r;
            r.kind = kind();
            r.params = req.params;
            r.metrics["answer"] = 42.0;
            return r;
        }
    };
    registerEstimator("fixed",
                      [] { return std::make_unique<Fixed>(); });
    auto e = makeEstimator("fixed");
    EXPECT_EQ(e->estimate({"fixed", {}}).metric("answer"), 42.0);
}

TEST(EstimatorApi, FactoringMatchesFreeFunction)
{
    auto e = makeEstimator("factoring");
    EstimateResult r = e->estimate({"factoring", {}});
    FactoringReport rep = estimateFactoring(FactoringSpec{});
    EXPECT_EQ(r.feasible, rep.feasible);
    EXPECT_EQ(r.metric("physicalQubits"), rep.physicalQubits);
    EXPECT_EQ(r.metric("totalSeconds"), rep.totalSeconds);
    EXPECT_EQ(r.metric("spacetimeVolume"), rep.spacetimeVolume);
    EXPECT_EQ(r.metric("distance"), rep.distance);
}

TEST(EstimatorApi, FactoringParamsApply)
{
    auto e = makeEstimator("factoring");
    EstimateResult r = e->estimate(
        {"factoring", {{"rsep", 256}, {"errorModel.alpha", 0.5}}});
    FactoringSpec spec;
    spec.rsep = 256;
    spec.errorModel.alpha = 0.5;
    FactoringReport rep = estimateFactoring(spec);
    EXPECT_EQ(r.metric("physicalQubits"), rep.physicalQubits);
    EXPECT_EQ(r.metric("totalSeconds"), rep.totalSeconds);
}

TEST(EstimatorApi, ReactionTimeSplitsEvenly)
{
    auto e = makeEstimator("factoring");
    EstimateResult joint = e->estimate(
        {"factoring", {{"atom.reactionTime", 2e-3}}});
    EstimateResult split = e->estimate(
        {"factoring",
         {{"atom.measureTime", 1e-3}, {"atom.decodeTime", 1e-3}}});
    EXPECT_EQ(joint.metric("totalSeconds"),
              split.metric("totalSeconds"));
    // Given with its halves, the reaction time wins over them.
    EstimateResult both = e->estimate(
        {"factoring",
         {{"atom.reactionTime", 2e-3},
          {"atom.measureTime", 5e-3},
          {"atom.decodeTime", 7e-3}}});
    EXPECT_EQ(both.metric("totalSeconds"),
              joint.metric("totalSeconds"));
}

TEST(EstimatorApi, ChemistryMatchesFreeFunction)
{
    auto e = makeEstimator("chemistry");
    EstimateResult r =
        e->estimate({"chemistry", {{"energyError", 1e-4}}});
    ChemistrySpec spec;
    spec.energyError = 1e-4;
    ChemistryReport rep = estimateChemistry(spec);
    EXPECT_EQ(r.metric("iterations"), rep.iterations);
    EXPECT_EQ(r.metric("speedup"), rep.speedup);
}

TEST(EstimatorApi, GidneyEkeraMatchesFreeFunction)
{
    auto e = makeEstimator("gidney-ekera");
    EstimateResult r = e->estimate(
        {"gidney-ekera", {{"tCycle", 900e-6}, {"tReaction", 1e-3}}});
    GidneyEkeraSpec spec;
    spec.tCycle = 900e-6;
    spec.tReaction = 1e-3;
    BaselinePoint p = gidneyEkera(spec);
    EXPECT_EQ(r.metric("physicalQubits"), p.physicalQubits);
    EXPECT_EQ(r.metric("totalSeconds"), p.seconds);
}

TEST(EstimatorApi, QldpcStorageMatchesFreeFunctions)
{
    auto e = makeEstimator("qldpc-storage");
    EstimateResult r = e->estimate(
        {"qldpc-storage", {{"compressionFactor", 5.0}}});
    FactoringSpec spec;
    FactoringReport base = estimateFactoring(spec);
    QldpcStorageSpec qs;
    qs.compressionFactor = 5.0;
    QldpcStorageReport rep = applyQldpcStorage(base, spec, qs);
    EXPECT_EQ(r.metric("physicalQubits"), rep.physicalQubits);
    EXPECT_EQ(r.metric("footprintReduction"),
              rep.footprintReduction);
    EXPECT_EQ(r.metric("accessCycleTime"), rep.accessCycleTime);
}

TEST(EstimatorApi, UnknownParameterThrows)
{
    EXPECT_THROW(makeEstimator("factoring")
                     ->estimate({"factoring", {{"bogus", 1.0}}}),
                 FatalError);
    EXPECT_THROW(makeEstimator("chemistry")
                     ->estimate({"chemistry", {{"rsep", 96}}}),
                 FatalError);
    EXPECT_THROW(
        makeEstimator("qldpc-storage")
            ->estimate({"qldpc-storage", {{"bogus", 1.0}}}),
        FatalError);
}

/** The names an unknown-name error lists after "(known:". */
std::vector<std::string>
knownNames(const std::string &message)
{
    const std::size_t at = message.find("(known:");
    const std::size_t end = message.rfind(')');
    if (at == std::string::npos || end < at)
        return {};
    return splitWhitespace(message.substr(at + 7, end - at - 7));
}

/** The README.md table row that starts with `key`. */
std::string
readmeRow(const std::string &key)
{
    std::ifstream in(std::string(TRAQ_SOURCE_DIR) + "/README.md");
    const std::string prefix = "| `" + key + "` |";
    for (std::string line; std::getline(in, line);)
        if (line.rfind(prefix, 0) == 0)
            return line;
    return "";
}

/** Every name @p message lists as known is in @p key's README row. */
void
expectDocumented(const std::string &key, const std::string &message)
{
    const std::string row = readmeRow(key);
    ASSERT_FALSE(row.empty()) << "README.md has no row for " << key;
    const std::vector<std::string> names = knownNames(message);
    EXPECT_FALSE(names.empty()) << message;
    std::set<std::string> seen;
    for (const std::string &name : names) {
        EXPECT_TRUE(seen.insert(name).second)
            << key << " reads '" << name << "' twice";
        EXPECT_NE(row.find("`" + name + "`"), std::string::npos)
            << "README.md row for " << key << " lacks " << name;
    }
}

TEST(ParamReference, ReadmeRowsListEveryAcceptedName)
{
    const ParamMap bogus = {{"definitely-not-a-parameter", 1.0}};
    for (const std::string &kind :
         {"factoring", "chemistry", "gidney-ekera", "qldpc-storage",
          "factory-design", "idle-storage", "mc-logical-error",
          "mc-alpha"}) {
        try {
            makeEstimator(kind)->checkParams({kind, bogus});
            ADD_FAILURE() << kind << " accepted an unknown name";
        } catch (const FatalError &e) {
            expectDocumented(kind, e.what());
        }
    }
    for (const std::string &source : noise::registeredNoiseSources()) {
        try {
            (void)noise::makeNoiseSource({source, bogus});
            ADD_FAILURE() << source << " accepted an unknown name";
        } catch (const FatalError &e) {
            expectDocumented(source, e.what());
        }
    }
}

/** Every "TRAQ_..." string literal in the files under @p dir. */
std::set<std::string>
envLiterals(const std::string &dir)
{
    std::set<std::string> names;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path());
        const std::string text(std::istreambuf_iterator<char>(in), {});
        for (std::size_t at = text.find("\"TRAQ_");
             at != std::string::npos; at = text.find("\"TRAQ_", at + 1)) {
            std::size_t end = at + 1;
            while (end < text.size() &&
                   (std::isupper(static_cast<unsigned char>(text[end])) ||
                    std::isdigit(static_cast<unsigned char>(text[end])) ||
                    text[end] == '_'))
                ++end;
            names.insert(text.substr(at + 1, end - at - 1));
        }
    }
    return names;
}

TEST(EnvReference, ReadmeRowsMatchVariablesTheCodeReads)
{
    std::set<std::string> read;
    for (const char *dir : {"/src", "/examples"})
        read.merge(envLiterals(std::string(TRAQ_SOURCE_DIR) + dir));
    EXPECT_FALSE(read.empty());
    for (const std::string &name : read)
        EXPECT_FALSE(readmeRow(name).empty())
            << "README.md has no env-table row for " << name;
    std::ifstream in(std::string(TRAQ_SOURCE_DIR) + "/README.md");
    const std::string prefix = "| `TRAQ_";
    std::size_t rows = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        ++rows;
        const std::string name =
            line.substr(3, line.find('`', 3) - 3);
        EXPECT_TRUE(read.count(name))
            << "README.md documents " << name
            << ", which no code under src/ or examples/ reads";
    }
    EXPECT_EQ(rows, read.size());
}

TEST(EstimatorApi, CanonicalKeyDistinguishesRequests)
{
    EstimateRequest a{"factoring", {{"rsep", 96}}};
    EstimateRequest b{"factoring", {{"rsep", 256}}};
    EstimateRequest c{"factoring", {{"rsep", 96}}};
    EXPECT_NE(canonicalKey(a), canonicalKey(b));
    EXPECT_EQ(canonicalKey(a), canonicalKey(c));
    EXPECT_NE(canonicalKey({"chemistry", {}}),
              canonicalKey({"factoring", {}}));
}

TEST(Sweep, GridExpansionIsRowMajor)
{
    SweepRunner sweep(EstimateRequest{"factoring", {}});
    sweep.addAxis("wExp", {2, 3}).addAxis("rsep", {96, 256, 512});
    ASSERT_EQ(sweep.numJobs(), 6u);
    // First axis slowest, last axis fastest.
    EXPECT_EQ(sweep.request(0).params.at("wExp"), 2);
    EXPECT_EQ(sweep.request(0).params.at("rsep"), 96);
    EXPECT_EQ(sweep.request(2).params.at("wExp"), 2);
    EXPECT_EQ(sweep.request(2).params.at("rsep"), 512);
    EXPECT_EQ(sweep.request(3).params.at("wExp"), 3);
    EXPECT_EQ(sweep.request(3).params.at("rsep"), 96);
}

TEST(Sweep, DeterministicAcrossThreadCounts)
{
    auto runWith = [](unsigned threads) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunner sweep(EstimateRequest{"factoring", {}}, opts);
        sweep.addAxis("rsep", {96, 256, 512})
            .addAxis("errorModel.alpha", {1.0 / 6.0, 0.5});
        return sweep.run();
    };
    SweepResult one = runWith(1);
    SweepResult four = runWith(4);
    EXPECT_EQ(one.threadsUsed, 1u);
    EXPECT_EQ(four.threadsUsed, 4u);
    ASSERT_EQ(one.results.size(), four.results.size());
    for (std::size_t i = 0; i < one.results.size(); ++i)
        expectSameResult(one.results[i], four.results[i]);
    // Identical serialization, byte for byte.
    EXPECT_EQ(one.toCsv(), four.toCsv());
    EXPECT_EQ(one.toJson(), four.toJson());
}

TEST(Sweep, MemoizationCountsHits)
{
    SweepRunner sweep(EstimateRequest{"factoring", {}});
    sweep.addAxis("rsep", {96, 96, 256});
    SweepResult r = sweep.run();
    ASSERT_EQ(r.results.size(), 3u);
    EXPECT_EQ(r.evaluated, 2u);
    EXPECT_EQ(r.memoHits, 1u);
    expectSameResult(r.results[0], r.results[1]);
}

TEST(Sweep, MemoizationCanBeDisabled)
{
    SweepOptions opts;
    opts.memoize = false;
    SweepRunner sweep(EstimateRequest{"factoring", {}}, opts);
    sweep.addAxis("rsep", {96, 96});
    SweepResult r = sweep.run();
    EXPECT_EQ(r.evaluated, 2u);
    EXPECT_EQ(r.memoHits, 0u);
    expectSameResult(r.results[0], r.results[1]);
}

TEST(Sweep, ExplicitRequestListPreservesOrder)
{
    auto e = makeEstimator("gidney-ekera");
    std::vector<EstimateRequest> jobs = {
        {"gidney-ekera", {{"tReaction", 10e-3}}},
        {"gidney-ekera", {{"tReaction", 0.1e-3}}},
        {"gidney-ekera", {{"tReaction", 10e-3}}},
    };
    SweepResult r = runRequests(*e, jobs);
    ASSERT_EQ(r.results.size(), 3u);
    EXPECT_EQ(r.results[0].params.at("tReaction"), 10e-3);
    EXPECT_EQ(r.results[1].params.at("tReaction"), 0.1e-3);
    EXPECT_EQ(r.memoHits, 1u);
    expectSameResult(r.results[0], r.results[2]);
}

TEST(Sweep, ErrorsPropagate)
{
    SweepRunner sweep(EstimateRequest{"factoring", {}});
    sweep.addAxis("bogusParameter", {1, 2, 3});
    EXPECT_THROW(sweep.run(), FatalError);
}

TEST(Sweep, CsvRoundTrips)
{
    SweepRunner sweep(EstimateRequest{"factoring", {}});
    sweep.addAxis("rsep", {96, 256});
    SweepResult r = sweep.run();
    std::string csv = r.toCsv({"rsep", "physicalQubits",
                               "spacetimeVolume"});
    auto lines = splitChar(trim(csv), '\n');
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "rsep,physicalQubits,spacetimeVolume");
    for (std::size_t i = 0; i < 2; ++i) {
        auto fields = splitChar(lines[i + 1], ',');
        ASSERT_EQ(fields.size(), 3u);
        // Exact round-trip back to the original doubles.
        EXPECT_EQ(std::strtod(fields[0].c_str(), nullptr),
                  r.results[i].params.at("rsep"));
        EXPECT_EQ(std::strtod(fields[1].c_str(), nullptr),
                  r.results[i].metric("physicalQubits"));
        EXPECT_EQ(std::strtod(fields[2].c_str(), nullptr),
                  r.results[i].metric("spacetimeVolume"));
    }
}

TEST(Sweep, JsonSerializesEveryJob)
{
    SweepRunner sweep(EstimateRequest{"factoring", {}});
    sweep.addAxis("rsep", {96, 256});
    SweepResult r = sweep.run();
    std::string json = r.toJson();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    // One object per job, each carrying kind and feasibility.
    std::size_t count = 0, pos = 0;
    while ((pos = json.find("\"kind\":\"factoring\"", pos)) !=
           std::string::npos) {
        ++count;
        pos += 1;
    }
    EXPECT_EQ(count, 2u);
    EXPECT_NE(json.find("\"rsep\":96"), std::string::npos);
    EXPECT_NE(json.find("\"rsep\":256"), std::string::npos);
}

TEST(Sweep, TableSelectsColumns)
{
    SweepRunner sweep(EstimateRequest{"factoring", {}});
    sweep.addAxis("rsep", {96, 256});
    SweepResult r = sweep.run();
    Table t = r.toTable({"rsep", "feasible", "kind"});
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(r.cell(0, "rsep"), "96");
    EXPECT_EQ(r.cell(0, "kind"), "factoring");
    EXPECT_EQ(r.cell(0, "feasible"), "true");
    EXPECT_EQ(r.cell(0, "noSuchColumn"), "");
}

TEST(Threads, ExplicitRequestWins)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);
}

TEST(Threads, EnvOverrideApplies)
{
    ::setenv("TRAQ_THREADS", "2", 1);
    EXPECT_EQ(resolveThreadCount(0), 2u);
    EXPECT_EQ(resolveThreadCount(5), 5u);  // explicit still wins
    // Malformed values throw (same loudness as TRAQ_WORD_BACKEND):
    // a typo in a determinism harness must not silently change the
    // thread count.
    ::setenv("TRAQ_THREADS", "garbage", 1);
    EXPECT_THROW(resolveThreadCount(0), FatalError);
    ::setenv("TRAQ_THREADS", "-4", 1);
    EXPECT_THROW(resolveThreadCount(0), FatalError);
    ::setenv("TRAQ_THREADS", "0", 1);
    EXPECT_THROW(resolveThreadCount(0), FatalError);
    ::setenv("TRAQ_THREADS", "4x", 1);
    EXPECT_THROW(resolveThreadCount(0), FatalError);
    ::setenv("TRAQ_THREADS", "99999999999999999999", 1);
    EXPECT_THROW(resolveThreadCount(0), FatalError);
    // Unset and empty still mean "use the hardware".
    ::setenv("TRAQ_THREADS", "", 1);
    EXPECT_GE(resolveThreadCount(0), 1u);
    ::unsetenv("TRAQ_THREADS");
    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(Threads, SweepHonorsEnv)
{
    ::setenv("TRAQ_THREADS", "2", 1);
    SweepRunner sweep(EstimateRequest{"gidney-ekera", {}});
    sweep.addAxis("tReaction", {1e-3, 2e-3, 4e-3});
    SweepResult r = sweep.run();
    ::unsetenv("TRAQ_THREADS");
    EXPECT_EQ(r.threadsUsed, 2u);
}

TEST(Threads, MonteCarloHonorsEnv)
{
    // Resolution is shared; the engine clamps to the shard count.
    ::setenv("TRAQ_THREADS", "2", 1);
    EXPECT_EQ(resolveThreadCount(0), 2u);
    ::unsetenv("TRAQ_THREADS");
}

TEST(OptimizerFrontier, RetainsAllFeasiblePoints)
{
    FactoringSpec base;
    OptimizerOptions opts;
    auto res = optimizeFactoring(base, opts);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.evaluated,
              opts.wExpCandidates.size() *
                  opts.wMulCandidates.size() *
                  opts.rsepCandidates.size());
    EXPECT_FALSE(res.feasiblePoints.empty());
    EXPECT_LE(res.feasiblePoints.size(), res.evaluated);
    // The best is one of the retained points.
    const OptimizerPoint *best = res.bestUnder(-1.0);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->spec.wExp, res.bestSpec.wExp);
    EXPECT_EQ(best->spec.wMul, res.bestSpec.wMul);
    EXPECT_EQ(best->spec.rsep, res.bestSpec.rsep);
    EXPECT_EQ(best->spacetimeVolume,
              res.bestReport.spacetimeVolume);
}

TEST(OptimizerFrontier, BestUnderMatchesCappedRun)
{
    // One uncapped sweep answers the capped query exactly as a
    // dedicated capped run does (the Fig. 14(d) pattern).
    FactoringSpec base;
    auto frontier = optimizeFactoring(base);
    OptimizerOptions capped;
    capped.maxQubits = 13e6;
    auto direct = optimizeFactoring(base, capped);
    ASSERT_TRUE(direct.found);
    const OptimizerPoint *p = frontier.bestUnder(13e6);
    ASSERT_NE(p, nullptr);
    EXPECT_LE(p->physicalQubits, 13e6);
    EXPECT_EQ(p->spec.wExp, direct.bestSpec.wExp);
    EXPECT_EQ(p->spec.wMul, direct.bestSpec.wMul);
    EXPECT_EQ(p->spec.rsep, direct.bestSpec.rsep);
    EXPECT_EQ(p->spacetimeVolume,
              direct.bestReport.spacetimeVolume);
}

TEST(OptimizerFrontier, DeterministicAcrossThreadCounts)
{
    FactoringSpec base;
    OptimizerOptions one, four;
    one.threads = 1;
    four.threads = 4;
    auto a = optimizeFactoring(base, one);
    auto b = optimizeFactoring(base, four);
    ASSERT_EQ(a.feasiblePoints.size(), b.feasiblePoints.size());
    for (std::size_t i = 0; i < a.feasiblePoints.size(); ++i) {
        EXPECT_EQ(a.feasiblePoints[i].spec.rsep,
                  b.feasiblePoints[i].spec.rsep);
        EXPECT_EQ(a.feasiblePoints[i].spacetimeVolume,
                  b.feasiblePoints[i].spacetimeVolume);
    }
    EXPECT_EQ(a.bestSpec.rsep, b.bestSpec.rsep);
}

} // namespace
} // namespace traq::est
