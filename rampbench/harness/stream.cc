#include "stream.hh"

#include <array>

#include "aging/state.hh"
#include "drm/adaptation.hh"
#include "util/constants.hh"
#include "util/logging.hh"

namespace ramp {
namespace bench {

namespace {

using serve::Request;
using serve::RequestType;

constexpr std::size_t dvs_levels = 11;
constexpr std::size_t select_t_quals = 16;
constexpr std::array<drm::AdaptationSpace, 2> select_spaces = {
    drm::AdaptationSpace::Dvs, drm::AdaptationSpace::ArchDvs};

double
selectTQualK(std::size_t k)
{
    return 325.0 + 5.0 * static_cast<double>(k); // 325 .. 400 K
}

/** select_chip app mixes, as suite indices (taken modulo the suite
 *  size, so a truncated suite still has four mixes). */
const std::vector<std::vector<std::size_t>> &
chipMixes()
{
    static const std::vector<std::vector<std::size_t>> mixes = {
        {0, 4}, {6, 3}, {1, 5, 7, 8}, {2, 4, 6, 0}};
    return mixes;
}
constexpr std::array<double, 4> chip_t_quals_k = {400.0, 370.0, 345.0,
                                                  325.0};

} // namespace

std::uint64_t
streamSeed(std::uint64_t seed, std::size_t conn, std::uint64_t phase)
{
    // splitmix-style mixing so neighbouring seeds give unrelated
    // streams.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      (conn + 1) * 0xbf58476d1ce4e5b9ull +
                      (phase + 1) * 0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

RequestMix::RequestMix(std::vector<std::string> apps, std::uint64_t seed)
    : apps_(std::move(apps)), seed_(seed)
{
    const auto add = [&](Request req) {
        table_.push_back(UniqueRequest{std::move(req), {}});
    };

    evaluate_0_ = table_.size();
    for (const auto &app : apps_)
        for (std::size_t c = 0; c < dvs_levels; ++c) {
            Request r;
            r.type = RequestType::Evaluate;
            r.app = app;
            r.space = drm::AdaptationSpace::Dvs;
            r.config = c;
            add(r);
        }

    for (RequestType type : {RequestType::SelectDrm, RequestType::SelectDtm}) {
        (type == RequestType::SelectDrm ? drm_0_ : dtm_0_) = table_.size();
        for (const auto &app : apps_)
            for (auto space : select_spaces)
                for (std::size_t k = 0; k < select_t_quals; ++k) {
                    Request r;
                    r.type = type;
                    r.app = app;
                    r.space = space;
                    r.t_qual_k = selectTQualK(k);
                    add(r);
                }
    }

    chip_0_ = table_.size();
    for (const auto &mix : chipMixes())
        for (double tq : chip_t_quals_k) {
            Request r;
            r.type = RequestType::SelectChip;
            r.version = 3;
            r.space = drm::AdaptationSpace::Dvs;
            r.t_qual_k = tq;
            for (std::size_t i : mix)
                r.core_apps.push_back(apps_[i % apps_.size()]);
            add(r);
        }

    life_0_ = table_.size();
    for (std::uint32_t chip = 0; chip < life_chips; ++chip)
        for (const auto &app : apps_)
            for (auto space : select_spaces) {
                Request r;
                r.type = RequestType::RemainingLifetime;
                r.version = 2;
                r.chip = util::cat("life-", chip);
                r.app = app;
                r.space = space;
                add(r);
            }
}

Item
RequestMix::draw(util::Rng &rng, std::uint32_t &reports) const
{
    const auto idx = [](std::size_t i) {
        return Item{ItemKind::Unique, static_cast<std::uint32_t>(i)};
    };
    const std::size_t n_apps = apps_.size();
    const double roll = rng.uniform();
    if (roll < 0.65)
        return idx(evaluate_0_ + rng.below(n_apps * dvs_levels));
    const std::size_t selects =
        n_apps * select_spaces.size() * select_t_quals;
    if (roll < 0.77)
        return idx(drm_0_ + rng.below(selects));
    if (roll < 0.85)
        return idx(dtm_0_ + rng.below(selects));
    if (roll < 0.90)
        return idx(chip_0_ +
                   rng.below(chipMixes().size() * chip_t_quals_k.size()));
    if (roll < 0.95)
        return Item{ItemKind::Report, reports++};
    if (roll < 0.98)
        return idx(life_0_ +
                   rng.below(life_chips * n_apps * select_spaces.size()));
    return Item{ItemKind::Stats, 0};
}

Request
RequestMix::request(const Item &item, std::size_t conn) const
{
    if (item.kind == ItemKind::Unique)
        return table_[item.index].req;
    Request r;
    if (item.kind == ItemKind::Stats)
        return r; // a default Request is a v0 stats probe

    r.type = RequestType::ReportUsage;
    r.version = 2;
    r.chip = util::cat("use-c", conn, "-",
                       item.index % chips_per_connection);
    util::Rng rng(streamSeed(seed_, conn, 1000 + item.index));
    aging::AgingState delta;
    delta.age_hours = 24.0 * static_cast<double>(1 + rng.below(7));
    for (auto &mechanisms : delta.damage)
        for (auto &d : mechanisms)
            d = 1e-5 * static_cast<double>(1 + rng.below(100));
    r.state = aging::toJson(delta);
    return r;
}

std::vector<Request>
RequestMix::lifeChipReports() const
{
    std::vector<Request> out;
    for (std::uint32_t chip = 0; chip < life_chips; ++chip) {
        aging::AgingState state;
        state.age_hours = util::hours_per_year * (1.0 + 2.0 * chip);
        for (auto &mechanisms : state.damage)
            for (auto &d : mechanisms)
                d = 0.05 + 0.2 * chip;
        Request r;
        r.type = RequestType::ReportUsage;
        r.version = 2;
        r.chip = util::cat("life-", chip);
        r.state = aging::toJson(state);
        out.push_back(std::move(r));
    }
    return out;
}

util::Result<util::JsonValue>
directAnswer(serve::EvaluationService &service, const Request &req)
{
    switch (req.type) {
      case RequestType::Evaluate: {
        auto op = service.evaluatePoint(req.app, req.space, req.config);
        if (!op)
            return op.error();
        return service.encodeEvaluation(req, op.value());
      }
      case RequestType::SelectDrm:
      case RequestType::SelectDtm:
        return service.select(req);
      case RequestType::SelectChip:
        return service.selectChip(req);
      case RequestType::RemainingLifetime:
        return service.remainingLifetime(req);
      default:
        return util::RampError{
            util::ErrorCode::InvalidInput,
            util::cat("no fixed direct answer for ",
                      serve::requestTypeName(req.type))};
    }
}

util::Result<void>
RequestMix::precompute(serve::EvaluationService &service)
{
    static const std::string prefix = "{\"id\":0";
    for (auto &entry : table_) {
        auto answer = directAnswer(service, entry.req);
        if (!answer)
            return util::RampError{
                answer.error().code,
                util::cat(serve::encodeRequest(entry.req), ": ",
                          answer.error().message)};
        const std::string frame = serve::encodeResultReply(
            0, std::move(answer.value()), entry.req.version);
        if (frame.compare(0, prefix.size(), prefix) != 0)
            util::panic("reply frames no longer lead with their id: " +
                        frame);
        std::string tail = frame.substr(prefix.size());
        // Every service answering the same request must agree, across
        // set-ups and across backends.
        if (!entry.reply_tail.empty() && entry.reply_tail != tail)
            return util::RampError{
                util::ErrorCode::InvalidInput,
                util::cat("direct answers differ between services for ",
                          serve::encodeRequest(entry.req))};
        entry.reply_tail = std::move(tail);
    }
    return {};
}

} // namespace bench
} // namespace ramp
