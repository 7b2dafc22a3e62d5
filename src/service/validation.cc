#include "src/service/validation.hh"

#include <utility>

#include "src/common/assert.hh"
#include "src/common/json.hh"

namespace traq::service {

std::shared_ptr<const est::Estimator>
EstimatorPool::get(const std::string &kind)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = instances_.find(kind);
        if (it != instances_.end())
            return it->second;
    }
    // Instantiate outside the lock (factories may be arbitrarily
    // expensive); a racing duplicate create is harmless — the first
    // insert wins so every caller shares one instance.
    std::shared_ptr<const est::Estimator> fresh =
        est::makeEstimator(kind);
    std::lock_guard<std::mutex> lock(mutex_);
    return instances_.emplace(kind, std::move(fresh))
        .first->second;
}

ParsedLine
parseRequestLine(std::string_view text)
{
    ParsedLine line;
    json::Value doc;
    try {
        doc = json::parse(text);
    } catch (const FatalError &e) {
        line.error = {errc::json, e.what()};
        return line;
    }
    try {
        if (doc.isArray()) {
            // Parse the whole batch before reporting success so a
            // malformed element fails the line atomically.
            line.batch = true;
            line.requests.reserve(doc.asArray().size());
            for (const json::Value &elem : doc.asArray())
                line.requests.push_back(est::requestFromJson(elem));
        } else {
            line.requests.push_back(est::requestFromJson(doc));
        }
    } catch (const FatalError &e) {
        line.error = {errc::shape, e.what()};
        line.requests.clear();
    }
    return line;
}

Validated
Validator::validate(est::EstimateRequest req) const
{
    Validated v;
    v.request = std::move(req);
    const char *stage = errc::kind;
    try {
        const auto estimator = pool_->get(v.request.kind);
        stage = errc::param;
        std::string key = estimator->checkParams(v.request);
        if (computeKey_)
            v.key = std::move(key);
        return v;
    } catch (const est::EnvironmentError &e) {
        v.error = {errc::env, e.what()};
    } catch (const FatalError &e) {
        v.error = {stage, e.what()};
    }
    // Rejections are cached under the plain request key.
    if (computeKey_)
        v.key = est::canonicalKey(v.request);
    return v;
}

} // namespace traq::service
