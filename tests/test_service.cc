/**
 * @file
 * Tests for the service front-end stack: the common/json parser
 * (loud FatalError diagnostics on every malformed input), the
 * est::requestFromJson / resultFromJson inverses and the shared
 * non-finite policy, and the JobService (submission-order indexing,
 * thread-count byte-identity, canonicalKey cache accounting,
 * per-job error capture).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/json.hh"
#include "src/common/serialize.hh"
#include "src/estimator/estimator.hh"
#include "src/service/job_service.hh"

namespace traq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Json, ParsesCompositeDocument)
{
    const json::Value v = json::parse(
        "  {\"b\": [1, 2.5, -3e-2], \"a\": {\"x\": true, "
        "\"y\": false, \"z\": null}, \"s\": \"hi\\n\\u0041\"} ");
    ASSERT_TRUE(v.isObject());
    const json::Value &b = v.at("b");
    ASSERT_TRUE(b.isArray());
    ASSERT_EQ(b.asArray().size(), 3u);
    EXPECT_EQ(b.asArray()[0].asNumber(), 1.0);
    EXPECT_EQ(b.asArray()[1].asNumber(), 2.5);
    EXPECT_EQ(b.asArray()[2].asNumber(), -3e-2);
    EXPECT_TRUE(v.at("a").at("x").asBool());
    EXPECT_FALSE(v.at("a").at("y").asBool());
    EXPECT_TRUE(v.at("a").at("z").isNull());
    EXPECT_EQ(v.at("s").asString(), "hi\nA");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_THROW(v.at("missing"), FatalError);
}

TEST(Json, DumpIsCanonicalAndRoundTrips)
{
    // Keys come back sorted, numbers in exact round-trip form, so
    // dump() is a fixed point under parse().
    const json::Value v = json::parse(
        "{\"z\": 0.0001234567890123, \"a\": [true, null, "
        "\"t\\\"x\"], \"m\": {}}");
    const std::string dumped = v.dump();
    EXPECT_EQ(dumped,
              "{\"a\":[true,null,\"t\\\"x\"],\"m\":{},"
              "\"z\":0.0001234567890123}");
    EXPECT_EQ(json::parse(dumped).dump(), dumped);
}

TEST(Json, NumbersParseExactly)
{
    for (double want :
         {0.0, 1e-3, -1.5, 0.0001234567890123, 1e300, 1e-300,
          4.9406564584124654e-324, 3.141592653589793}) {
        const std::string text = fmtRoundTrip(want);
        EXPECT_EQ(json::parse(text).asNumber(), want) << text;
    }
    // Underflow rounds toward zero (like every mainstream JSON
    // parser); only overflow is out of range.
    EXPECT_EQ(json::parse("1e-400").asNumber(), 0.0);
    EXPECT_EQ(json::parse("-1e-400").asNumber(), 0.0);
}

TEST(Json, MalformedInputsThrowLoudly)
{
    // Fuzz-ish table: every case must throw FatalError — never an
    // uncaught std:: exception, never a crash, never a silent
    // truncation.
    const char *bad[] = {
        "",
        "   ",
        "{",
        "}",
        "[1,",
        "[1 2]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "{\"a\":1 \"b\":2}",
        "{a:1}",
        "tru",
        "truex",
        "nul",
        "falsey",
        "01",
        "+1",
        "-",
        ".5",
        "1.",
        "1e",
        "1e+",
        "1e999",
        "-1e999",
        "1.2.3",
        "nan",
        "inf",
        "\"unterminated",
        "\"bad\\q\"",
        "\"\\u12\"",
        "\"\\u12zz\"",
        "\"\\ud800\"",        // unpaired high surrogate
        "\"\\udc00\"",        // unpaired low surrogate
        "\"ctrl\x01\"",       // raw control character
        "1 2",                // trailing garbage
        "{} {}",
        "{\"a\":1} x",
        "{\"a\":1,\"a\":2}",  // duplicate key
    };
    for (const char *text : bad)
        EXPECT_THROW(json::parse(text), FatalError) << text;
}

TEST(Json, DiagnosticsCarryLineAndColumn)
{
    try {
        json::parse("{\"a\": 1,\n  \"b\": bogus}");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("column"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, DeepNestingIsBoundedNotFatal)
{
    // 200 unclosed arrays: must throw (depth limit), not overflow
    // the stack.
    EXPECT_THROW(json::parse(std::string(200, '[')), FatalError);
    // ... and a document inside the limit parses fine.
    std::string ok = std::string(40, '[') + "1" +
                     std::string(40, ']');
    EXPECT_EQ(json::parse(ok).kind(), json::Kind::Array);
}

TEST(Json, NonFiniteTagsAccepted)
{
    EXPECT_TRUE(std::isnan(
        json::parse("\"nan\"").asNumberOrTag()));
    EXPECT_EQ(json::parse("\"inf\"").asNumberOrTag(), kInf);
    EXPECT_EQ(json::parse("\"-inf\"").asNumberOrTag(), -kInf);
    EXPECT_EQ(json::parse("2.5").asNumberOrTag(), 2.5);
    EXPECT_THROW(json::parse("\"infinity\"").asNumberOrTag(),
                 FatalError);
    EXPECT_THROW(json::parse("true").asNumberOrTag(), FatalError);
}

TEST(RequestJson, RoundTripsIncludingNonFinite)
{
    est::EstimateRequest req{
        "factoring",
        {{"rsep", 96},
         {"weird.nan", std::nan("")},
         {"weird.pinf", kInf},
         {"weird.ninf", -kInf},
         {"tiny", 4.9406564584124654e-324}}};
    const std::string text = est::toJson(req);
    const est::EstimateRequest back = est::requestFromJson(text);
    EXPECT_EQ(back.kind, req.kind);
    ASSERT_EQ(back.params.size(), req.params.size());
    // request -> JSON -> parse -> canonicalKey is a fixed point.
    EXPECT_EQ(est::canonicalKey(back), est::canonicalKey(req));
    // ... and the re-emitted JSON is byte-identical.
    EXPECT_EQ(est::toJson(back), text);
}

TEST(RequestJson, MalformedRequestsThrow)
{
    EXPECT_THROW(est::requestFromJson("[]"), FatalError);
    EXPECT_THROW(est::requestFromJson("{}"), FatalError);
    EXPECT_THROW(est::requestFromJson("{\"kind\":\"\"}"),
                 FatalError);
    EXPECT_THROW(est::requestFromJson("{\"kind\":42}"), FatalError);
    EXPECT_THROW(
        est::requestFromJson("{\"kind\":\"x\",\"bogus\":{}}"),
        FatalError);
    EXPECT_THROW(est::requestFromJson(
                     "{\"kind\":\"x\",\"params\":{\"p\":true}}"),
                 FatalError);
    EXPECT_THROW(est::requestFromJson(
                     "{\"kind\":\"x\",\"params\":{\"p\":\"oops\"}}"),
                 FatalError);
    EXPECT_THROW(est::requestFromJson(
                     "{\"kind\":\"x\",\"params\":[1]}"),
                 FatalError);
}

TEST(RequestJson, ParamsMayBeOmitted)
{
    const est::EstimateRequest req =
        est::requestFromJson("{\"kind\":\"factoring\"}");
    EXPECT_EQ(req.kind, "factoring");
    EXPECT_TRUE(req.params.empty());
}

TEST(ResultJson, RoundTripsEveryBuiltinKind)
{
    // Cheap-but-real parameters per kind; the Monte-Carlo kinds run
    // reduced grids so the suite stays quick.
    const std::vector<est::EstimateRequest> requests = {
        {"factoring", {{"rsep", 96}}},
        {"chemistry", {}},
        {"gidney-ekera", {}},
        {"qldpc-storage", {{"compressionFactor", 5}}},
        {"factory-design", {}},
        {"idle-storage", {{"sePeriod", 0.004}}},
        {"mc-logical-error", {{"p", 0.02}, {"shots", 1024}}},
        // fixLambda skips the memory-anchor Lambda fit, and a
        // raised p keeps failures observable at unit-test shot
        // counts (the fit needs >= 3 grid points with failures).
        {"mc-alpha",
         {{"p", 8e-3}, {"shots", 2048}, {"fixLambda", 2.0}}},
    };
    for (const est::EstimateRequest &req : requests) {
        SCOPED_TRACE(req.kind);
        // Request side.
        const est::EstimateRequest reqBack =
            est::requestFromJson(est::toJson(req));
        EXPECT_EQ(est::canonicalKey(reqBack),
                  est::canonicalKey(req));
        // Result side: bit-exact metric round-trip, byte-exact
        // re-serialization.
        const est::EstimateResult res =
            est::makeEstimator(req.kind)->estimate(req);
        const std::string text = est::toJson(res);
        const est::EstimateResult back = est::resultFromJson(text);
        EXPECT_EQ(back.kind, res.kind);
        EXPECT_EQ(back.feasible, res.feasible);
        ASSERT_EQ(back.metrics.size(), res.metrics.size());
        for (const auto &[name, v] : res.metrics) {
            ASSERT_TRUE(back.metrics.count(name)) << name;
            const double got = back.metrics.at(name);
            if (std::isnan(v))
                EXPECT_TRUE(std::isnan(got)) << name;
            else
                EXPECT_EQ(got, v) << name;
        }
        EXPECT_EQ(est::toJson(back), text);
    }
}

TEST(ResultJson, DefaultsAndUnknownMembers)
{
    const est::EstimateResult res = est::resultFromJson(
        "{\"kind\":\"factoring\",\"metrics\":{\"days\":9.5}}");
    EXPECT_TRUE(res.feasible);
    EXPECT_TRUE(res.params.empty());
    EXPECT_EQ(res.metric("days"), 9.5);
    EXPECT_THROW(
        est::resultFromJson("{\"kind\":\"x\",\"bogus\":1}"),
        FatalError);
    EXPECT_THROW(
        est::resultFromJson(
            "{\"kind\":\"x\",\"feasible\":\"yes\"}"),
        FatalError);
}

std::vector<est::EstimateRequest>
mixedRequests()
{
    return {
        {"gidney-ekera", {{"tReaction", 1e-3}}},
        {"idle-storage", {{"distance", 17}}},
        {"gidney-ekera", {{"tReaction", 1e-3}}},  // duplicate of 0
        {"factory-design", {}},
        {"no-such-kind", {}},                     // fails loudly
        {"gidney-ekera", {{"tReaction", 2e-3}}},
        {"no-such-kind", {}},                     // duplicate failure
        {"idle-storage", {{"distance", 17}}},     // duplicate of 1
    };
}

/** Outcome JSON lines in submission order. */
std::string
serveAll(const std::vector<est::EstimateRequest> &reqs,
         unsigned threads, bool cache)
{
    service::JobQueueOptions opts;
    opts.threads = threads;
    opts.cache = cache;
    service::JobService queue(opts);
    const std::vector<service::JobService::JobId> ids =
        queue.submitBatch(reqs);
    std::string out;
    for (const service::JobService::JobId id : ids) {
        out += queue.wait(id).toJson();
        out += '\n';
    }
    return out;
}

TEST(JobQueue, SubmissionOrderIdsAndResults)
{
    service::JobService queue;
    const auto ids = queue.submitBatch(mixedRequests());
    ASSERT_EQ(ids.size(), 8u);
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], i);
    // Duplicates resolve to identical outcomes.
    EXPECT_EQ(queue.wait(0).toJson(), queue.wait(2).toJson());
    EXPECT_EQ(queue.wait(1).toJson(), queue.wait(7).toJson());
    // The known-good jobs succeeded.
    EXPECT_TRUE(queue.wait(0).ok);
    EXPECT_TRUE(queue.wait(3).ok);
}

TEST(JobQueue, ByteIdenticalAcrossThreadCounts)
{
    const auto reqs = mixedRequests();
    const std::string one = serveAll(reqs, 1, true);
    EXPECT_EQ(serveAll(reqs, 4, true), one);
    EXPECT_EQ(serveAll(reqs, 3, true), one);
    // The cache only affects evaluation counts, never bytes.
    EXPECT_EQ(serveAll(reqs, 4, false), one);
}

TEST(JobQueue, CacheHitAccountingIsDeterministic)
{
    const auto reqs = mixedRequests();
    for (unsigned threads : {1u, 4u}) {
        service::JobQueueOptions opts;
        opts.threads = threads;
        service::JobService queue(opts);
        queue.submitBatch(reqs);
        queue.drain();
        const service::JobQueueStats stats = queue.stats();
        EXPECT_EQ(stats.submitted, 8u);
        EXPECT_EQ(stats.evaluated, 5u);  // unique canonical keys
        EXPECT_EQ(stats.cacheHits, 3u);
        EXPECT_EQ(stats.failed, 1u);     // one failing unique key
        EXPECT_EQ(stats.inflight, 0u);
    }
}

TEST(JobQueue, CacheOffEvaluatesEverything)
{
    service::JobQueueOptions opts;
    opts.cache = false;
    service::JobService queue(opts);
    queue.submitBatch(mixedRequests());
    queue.drain();
    const service::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.evaluated, 8u);
    EXPECT_EQ(stats.cacheHits, 0u);
    EXPECT_EQ(stats.failed, 2u);  // both failing jobs evaluated
}

TEST(JobQueue, ErrorsAreCapturedPerJobNotThrown)
{
    service::JobService queue;
    const auto unknownKind =
        queue.submit({"no-such-kind", {}});
    const auto unknownParam =
        queue.submit({"factoring", {{"bogus", 1.0}}});
    const auto good = queue.submit({"gidney-ekera", {}});

    const service::JobOutcome &a = queue.wait(unknownKind);
    EXPECT_FALSE(a.ok);
    EXPECT_NE(a.error.find("no estimator registered"),
              std::string::npos)
        << a.error;
    EXPECT_NE(a.toJson().find("{\"error\":"), std::string::npos);

    const service::JobOutcome &b = queue.wait(unknownParam);
    EXPECT_FALSE(b.ok);
    EXPECT_NE(b.error.find("unknown factoring parameter"),
              std::string::npos)
        << b.error;

    // The queue keeps serving after failures.
    EXPECT_TRUE(queue.wait(good).ok);
}

TEST(JobQueue, FailuresAreCachedLikeResults)
{
    service::JobService queue;
    const auto first = queue.submit({"no-such-kind", {}});
    queue.wait(first);
    const auto second = queue.submit({"no-such-kind", {}});
    EXPECT_EQ(queue.wait(first).toJson(),
              queue.wait(second).toJson());
    const service::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.evaluated, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.failed, 1u);
}

TEST(JobQueue, WaitRejectsUnknownIds)
{
    service::JobService queue;
    EXPECT_THROW(queue.wait(0), FatalError);
}

TEST(JobQueue, NonFiniteParamsServeThroughJsonUnharmed)
{
    // A request with non-finite parameters survives the full
    // service path: JSON in, canonicalKey cache, JSON out.
    est::EstimateRequest req{"no-such-kind",
                             {{"weird", kInf}, {"odd", -kInf}}};
    const est::EstimateRequest parsed =
        est::requestFromJson(est::toJson(req));
    service::JobService queue;
    const auto a = queue.submit(req);
    const auto b = queue.submit(parsed);
    queue.drain();
    EXPECT_EQ(queue.stats().evaluated, 1u);  // same canonical key
    EXPECT_EQ(queue.stats().cacheHits, 1u);
    EXPECT_EQ(queue.wait(a).toJson(), queue.wait(b).toJson());
}

} // namespace
} // namespace traq
