/**
 * @file
 * Slack-banking reliability management on top of the aging state.
 *
 * Qualification leaves every shipped part with banked reliability
 * slack: the FIT budget assumes worst-case conditions, so a real
 * workload under-spends it. The policy tracks the gap between the
 * consumed-lifetime budget a chip's age entitles it to and the
 * damage it has actually integrated, and converts that slack into
 * the one knob the Selection API already understands: the effective
 * qualification temperature. A young (or gently-used) chip selects
 * its operating point against a *hotter* T_qual -- exactly the
 * paper's Figure-2 trade -- and therefore runs above the
 * steady-state-safe point; as damage catches up with (or overtakes)
 * the budget, the effective T_qual falls below the base value and
 * the same selectDrm/selectDtm calls throttle it. Selection works
 * unchanged, since it already accepts an arbitrary Qualification.
 */

#pragma once

#include "aging/state.hh"

namespace ramp {
namespace aging {

/** Slack-banking policy knobs. */
struct SlackBankParams
{
    /** Qualification temperature of the steady-state policy, K. */
    double base_t_qual_k = 345.0;

    /** Ceiling on the boost above base, K. */
    double max_boost_k = 25.0;

    /** Floor on the throttle below base, K. */
    double max_throttle_k = 25.0;

    /** Kelvin of effective-T_qual swing per unit of banked slack
     *  (slack is a fraction of one whole service life). */
    double gain_k_per_life = 400.0;

    /** Reliability slack banked at time zero by qualification
     *  margin, as a fraction of the service life. The budget
     *  schedule spends it linearly so the whole-life budget still
     *  ends at exactly 1.0. */
    double initial_slack_frac = 0.05;

    /** Qualified service life, years. */
    double service_life_years = 30.0;
};

/** Maps an AgingState to the operating point it can afford. */
class SlackBankPolicy
{
  public:
    explicit SlackBankPolicy(SlackBankParams params = {});

    /** Consumed-lifetime budget a chip of this age is entitled to:
     *  initial_slack_frac + (1 - initial_slack_frac) * age / service life,
     *  saturating at 1.0. */
    double budget(double age_hours) const;

    /** Banked slack: budget(age) minus integrated damage. Negative
     *  when the chip has outspent its schedule. */
    double slackFrac(const AgingState &state) const;

    /** The qualification temperature selection should use now:
     *  base + gain * slack, clamped to the boost/throttle band. */
    double effectiveTQualK(const AgingState &state) const;

    const SlackBankParams &params() const { return params_; }

  private:
    SlackBankParams params_;
};

/**
 * Hours of service left before the consumed fraction reaches 1.0 if
 * the chip holds a steady @p fit from now on (the ETA the serve
 * layer's remaining_lifetime answers). Infinity when fit <= 0.
 */
double remainingHoursAtFit(const AgingState &state, double fit,
                           double target_fit,
                           double service_life_years);

} // namespace aging
} // namespace ramp
