#include "aging/state.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace aging {

using core::allMechanisms;
using core::Mechanism;
using core::mechanismIndex;
using core::mechanismName;
using core::num_mechanisms;
using sim::allStructures;
using sim::structureIndex;
using util::ErrorCode;
using util::JsonValue;
using util::RampError;
using util::Result;

namespace {

const telemetry::Counter &
quarantinedCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("aging.state_quarantined");
    return c;
}

/** A pair's share of the chip FIT budget: even across mechanisms,
 *  area-proportional across structures (Section 3.7). */
double
budgetShare(sim::StructureId s)
{
    return sim::structureArea(s) /
           (sim::totalCoreArea() *
            static_cast<double>(num_mechanisms));
}

/** Strict finite, non-negative number member. */
Result<double>
damageNumber(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isNumber() || !std::isfinite(v->number) ||
        v->number < 0.0)
        return RampError{
            ErrorCode::CorruptRecord,
            util::cat("aging state field '", std::string(key),
                      "' must be a finite non-negative number")};
    return v->number;
}

} // namespace

double
AgingState::totalDamage() const
{
    double total = 0.0;
    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        const double share = budgetShare(s);
        for (std::size_t mi = 0; mi < num_mechanisms; ++mi)
            total += share * damage[si][mi];
    }
    return total;
}

double
AgingState::structureDamage(sim::StructureId s) const
{
    const std::size_t si = structureIndex(s);
    double sum = 0.0;
    for (std::size_t mi = 0; mi < num_mechanisms; ++mi)
        sum += damage[si][mi];
    return sum / static_cast<double>(num_mechanisms);
}

double
AgingState::maxPairDamage() const
{
    double worst = 0.0;
    for (const auto &row : damage)
        for (double d : row)
            worst = std::max(worst, d);
    return worst;
}

void
AgingState::add(const AgingState &delta)
{
    age_hours += delta.age_hours;
    for (std::size_t si = 0; si < sim::num_structures; ++si) {
        for (std::size_t mi = 0; mi < num_mechanisms; ++mi)
            damage[si][mi] += delta.damage[si][mi];
        em_jt_hours[si] += delta.em_jt_hours[si];
        tddb_vt_hours[si] += delta.tddb_vt_hours[si];
        tc_cycles[si] += delta.tc_cycles[si];
    }
}

JsonValue
toJson(const AgingState &state)
{
    JsonValue root = JsonValue::makeObject();
    root.set("v", JsonValue::makeNumber(aging_state_version));
    root.set("age_hours", JsonValue::makeNumber(state.age_hours));
    JsonValue structures = JsonValue::makeObject();
    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        JsonValue entry = JsonValue::makeObject();
        JsonValue dmg = JsonValue::makeObject();
        for (auto m : allMechanisms())
            dmg.set(std::string(mechanismName(m)),
                    JsonValue::makeNumber(
                        state.damage[si][mechanismIndex(m)]));
        entry.set("damage", std::move(dmg));
        entry.set("em_jt_hours",
                  JsonValue::makeNumber(state.em_jt_hours[si]));
        entry.set("tddb_vt_hours",
                  JsonValue::makeNumber(state.tddb_vt_hours[si]));
        entry.set("tc_cycles",
                  JsonValue::makeNumber(state.tc_cycles[si]));
        structures.set(std::string(sim::structureName(s)),
                       std::move(entry));
    }
    root.set("structures", std::move(structures));
    return root;
}

Result<AgingState>
agingStateFromJson(const JsonValue &doc)
{
    if (!doc.isObject())
        return RampError{ErrorCode::CorruptRecord,
                         "aging state must be a JSON object"};
    const JsonValue *v = doc.find("v");
    if (!v || !v->isNumber() || v->number < 1.0 ||
        v->number != std::floor(v->number))
        return RampError{ErrorCode::CorruptRecord,
                         "aging state needs a positive integer 'v'"};
    if (v->number > static_cast<double>(aging_state_version))
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("aging state version ", v->number,
                      " is newer than this build supports (",
                      aging_state_version,
                      "); refusing to load or quarantine it")};

    for (const auto &[key, value] : doc.object) {
        (void)value;
        if (key != "v" && key != "age_hours" && key != "structures")
            return RampError{ErrorCode::CorruptRecord,
                             util::cat("aging state has foreign "
                                       "field '",
                                       key, "'")};
    }

    AgingState state;
    auto age = damageNumber(doc, "age_hours");
    if (!age)
        return age.error();
    state.age_hours = age.value();

    const JsonValue *structures = doc.find("structures");
    if (!structures || !structures->isObject())
        return RampError{ErrorCode::CorruptRecord,
                         "aging state needs a 'structures' object"};
    if (structures->object.size() != sim::num_structures)
        return RampError{
            ErrorCode::CorruptRecord,
            util::cat("aging state has ", structures->object.size(),
                      " structures, expected ",
                      sim::num_structures)};
    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        const JsonValue *entry =
            structures->find(sim::structureName(s));
        if (!entry || !entry->isObject() ||
            entry->object.size() != 4)
            return RampError{
                ErrorCode::CorruptRecord,
                util::cat("aging state is missing structure '",
                          sim::structureName(s),
                          "' (or it has foreign fields)")};
        const JsonValue *dmg = entry->find("damage");
        if (!dmg || !dmg->isObject() ||
            dmg->object.size() != num_mechanisms)
            return RampError{
                ErrorCode::CorruptRecord,
                util::cat("aging state structure '",
                          sim::structureName(s),
                          "' needs one 'damage' entry per "
                          "mechanism")};
        for (auto m : allMechanisms()) {
            auto d = damageNumber(*dmg, mechanismName(m));
            if (!d)
                return d.error();
            state.damage[si][mechanismIndex(m)] = d.value();
        }
        auto em = damageNumber(*entry, "em_jt_hours");
        if (!em)
            return em.error();
        state.em_jt_hours[si] = em.value();
        auto tddb = damageNumber(*entry, "tddb_vt_hours");
        if (!tddb)
            return tddb.error();
        state.tddb_vt_hours[si] = tddb.value();
        auto tc = damageNumber(*entry, "tc_cycles");
        if (!tc)
            return tc.error();
        state.tc_cycles[si] = tc.value();
    }
    return state;
}

Result<void>
saveAgingState(const std::string &path, const AgingState &state)
{
    return util::saveJson(path, toJson(state));
}

Result<AgingState>
loadAgingState(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return RampError{ErrorCode::IoFailure,
                         util::cat("cannot open aging state '", path,
                                   "'")};
    std::ostringstream text;
    text << is.rdbuf();
    std::string err;
    const auto doc = util::parseJson(text.str(), &err);
    if (!doc)
        return RampError{ErrorCode::CorruptRecord,
                         util::cat("aging state '", path,
                                   "' is not JSON: ", err)};
    return agingStateFromJson(*doc);
}

Result<AgingState>
recoverAgingState(const std::string &path)
{
    if (!std::ifstream(path))
        return AgingState{};
    auto loaded = loadAgingState(path);
    if (loaded)
        return loaded;
    // A newer schema must stop the caller: quarantining it would
    // throw away state a newer build could still use.
    if (loaded.error().code == ErrorCode::InvalidInput)
        return loaded.error();
    const std::string qpath = path + ".quarantine";
    if (std::rename(path.c_str(), qpath.c_str()) != 0)
        return RampError{ErrorCode::IoFailure,
                         util::cat("cannot quarantine corrupt aging "
                                   "state '",
                                   path, "' to '", qpath, "'")};
    quarantinedCounter().add();
    util::warn(util::cat("aging state '", path, "' is corrupt (",
                         loaded.error().str(), "); quarantined to '",
                         qpath, "' and starting fresh"));
    return AgingState{};
}

} // namespace aging
} // namespace ramp
