#include "route/health.hh"

#include "util/logging.hh"

namespace ramp {
namespace route {

using util::JsonValue;

const char *
healthStateName(HealthState s)
{
    switch (s) {
    case HealthState::Healthy:
        return "healthy";
    case HealthState::Suspect:
        return "suspect";
    case HealthState::Down:
        return "down";
    }
    return "unknown";
}

HealthTable::HealthTable(std::size_t backends, int fail_threshold)
    : size_(backends), fail_threshold_(fail_threshold),
      entries_(backends)
{
    healthy_gauge_.set(static_cast<double>(backends));
}

HealthState
HealthTable::state(std::size_t i) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.at(i).state;
}

bool
HealthTable::usable(std::size_t i) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.at(i).state != HealthState::Down;
}

void
HealthTable::observeSuccess(std::size_t i)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry &e = entries_.at(i);
    e.consecutive_failures = 0;
    if (e.state == HealthState::Healthy)
        return;
    e.state = HealthState::Healthy;
    ups_.add();
    healthy_gauge_.set(static_cast<double>(usableLocked()));
}

void
HealthTable::observeFailure(std::size_t i)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry &e = entries_.at(i);
    ++e.consecutive_failures;
    if (e.state == HealthState::Healthy)
        e.state = HealthState::Suspect;
    if (e.state != HealthState::Suspect ||
        e.consecutive_failures < fail_threshold_)
        return;
    e.state = HealthState::Down;
    downs_.add();
    healthy_gauge_.set(static_cast<double>(usableLocked()));
}

std::size_t
HealthTable::usableCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return usableLocked();
}

std::size_t
HealthTable::usableLocked() const
{
    std::size_t n = 0;
    for (const Entry &e : entries_)
        if (e.state != HealthState::Down)
            ++n;
    return n;
}

JsonValue
HealthTable::toJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonValue out = JsonValue::makeArray();
    for (const Entry &e : entries_) {
        JsonValue o = JsonValue::makeObject();
        o.set("state",
              JsonValue::makeString(healthStateName(e.state)));
        o.set("consecutive_failures",
              JsonValue::makeNumber(
                  static_cast<double>(e.consecutive_failures)));
        out.push(std::move(o));
    }
    return out;
}

} // namespace route
} // namespace ramp
