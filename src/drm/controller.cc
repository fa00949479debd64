#include "drm/controller.hh"

#include "util/logging.hh"

namespace ramp {
namespace drm {

LadderStepper::LadderStepper(const char *owner, const char *scope,
                             std::size_t num_levels,
                             std::size_t start_level,
                             std::uint32_t settle_intervals)
    : scope_(scope), change_instant_(util::cat(scope, ".level_change")),
      changes_(telemetry::counter(util::cat(scope, ".level_changes"))),
      num_levels_(num_levels), level_(start_level),
      settle_intervals_(settle_intervals)
{
    if (num_levels == 0)
        util::fatal(util::cat(owner, " needs at least one level"));
    if (start_level >= num_levels)
        util::fatal(util::cat(owner, " start level out of range"));
}

std::size_t
LadderStepper::step(bool too_high, bool too_low, double signal)
{
    if (cooldown_ > 0) {
        --cooldown_;
        return level_;
    }
    const std::size_t from = level_;
    if (too_high && level_ > 0)
        --level_;
    else if (too_low && level_ + 1 < num_levels_)
        ++level_;
    if (level_ == from)
        return level_;
    ++transitions_;
    cooldown_ = settle_intervals_;
    changes_.add();
    telemetry::instant(change_instant_, scope_,
                       {{"from", static_cast<double>(from)},
                        {"to", static_cast<double>(level_)},
                        {"signal", signal}});
    return level_;
}

DrmController::DrmController(Params params, std::size_t num_levels,
                             std::size_t start_level)
    // ramp-lint: emits(counter, drm.level_changes)
    // ramp-lint: emits(instant, drm.level_change)
    : params_(params), ladder_("DrmController", "drm", num_levels,
                               start_level, params.settle_intervals)
{
    if (params_.target_fit <= 0.0)
        util::fatal("DrmController target FIT must be positive");
}

std::size_t
DrmController::observe(double avg_fit_so_far)
{
    const double target = params_.target_fit;
    return ladder_.step(
        avg_fit_so_far > target * (1.0 + params_.down_margin),
        avg_fit_so_far < target * (1.0 - params_.up_margin),
        avg_fit_so_far);
}

DtmController::DtmController(Params params, std::size_t num_levels,
                             std::size_t start_level)
    // ramp-lint: emits(counter, dtm.level_changes)
    // ramp-lint: emits(instant, dtm.level_change)
    : params_(params), ladder_("DtmController", "dtm", num_levels,
                               start_level, params.settle_intervals)
{
    if (params_.guard_k < 0.0)
        util::fatal("DtmController guard band must be non-negative");
}

std::size_t
DtmController::observe(double max_temp_k)
{
    return ladder_.step(max_temp_k > params_.t_design_k,
                        max_temp_k < params_.t_design_k - params_.guard_k,
                        max_temp_k);
}

} // namespace drm
} // namespace ramp
