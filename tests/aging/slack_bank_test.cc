/**
 * @file
 * Slack-banking policy tests: the budget schedule starts at the
 * qualification margin and ends at exactly one life; banked slack
 * boosts the effective T_qual and a deficit throttles it, both
 * clamped; and the ETA helper anchors to the service life.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "aging/slack_bank.hh"
#include "core/lifetime.hh"

namespace ramp {
namespace aging {
namespace {

/** A state with every pair at fraction @p d, aged @p hours. */
AgingState
agedState(double d, double hours)
{
    AgingState st;
    st.age_hours = hours;
    for (auto &per_mech : st.damage)
        per_mech.fill(d);
    return st;
}

TEST(SlackBankPolicy, BudgetScheduleSpansMarginToWholeLife)
{
    const SlackBankPolicy policy;
    const double life_h = core::serviceLifeHours(
        policy.params().service_life_years);
    EXPECT_DOUBLE_EQ(policy.budget(0.0),
                     policy.params().initial_slack_frac);
    EXPECT_NEAR(policy.budget(life_h), 1.0, 1e-12);
    // Past end-of-life the budget saturates; it never exceeds the
    // one qualified lifetime.
    EXPECT_DOUBLE_EQ(policy.budget(2.0 * life_h), 1.0);
    EXPECT_LT(policy.budget(0.25 * life_h),
              policy.budget(0.75 * life_h));
}

TEST(SlackBankPolicy, YoungChipBoostsAboveBase)
{
    const SlackBankPolicy policy;
    // Fresh chip: full initial slack banked.
    const AgingState fresh = agedState(0.0, 0.0);
    EXPECT_DOUBLE_EQ(policy.slackFrac(fresh),
                     policy.params().initial_slack_frac);
    EXPECT_GT(policy.effectiveTQualK(fresh),
              policy.params().base_t_qual_k);
    EXPECT_LE(policy.effectiveTQualK(fresh),
              policy.params().base_t_qual_k +
                  policy.params().max_boost_k);
}

TEST(SlackBankPolicy, OverspentChipThrottlesBelowBase)
{
    const SlackBankPolicy policy;
    const double life_h = core::serviceLifeHours(
        policy.params().service_life_years);
    // Half the damage budget gone in 10% of the life.
    const AgingState hard_run = agedState(0.5, 0.1 * life_h);
    EXPECT_LT(policy.slackFrac(hard_run), 0.0);
    EXPECT_LT(policy.effectiveTQualK(hard_run),
              policy.params().base_t_qual_k);
    EXPECT_GE(policy.effectiveTQualK(hard_run),
              policy.params().base_t_qual_k -
                  policy.params().max_throttle_k);
}

TEST(SlackBankPolicy, EffectiveTQualClampsAtBothEnds)
{
    SlackBankParams params;
    params.gain_k_per_life = 1e6; // Saturate on any slack at all.
    const SlackBankPolicy policy(params);
    const double life_h =
        core::serviceLifeHours(params.service_life_years);
    EXPECT_DOUBLE_EQ(policy.effectiveTQualK(agedState(0.0, 0.0)),
                     params.base_t_qual_k + params.max_boost_k);
    EXPECT_DOUBLE_EQ(
        policy.effectiveTQualK(agedState(1.0, 0.1 * life_h)),
        params.base_t_qual_k - params.max_throttle_k);
}

TEST(SlackBank, RemainingHoursAnchorsToTheServiceLife)
{
    const double life_years = 30.0;
    const double life_h = core::serviceLifeHours(life_years);
    const double target_fit = 4000.0;

    // A fresh chip holding exactly the target FIT has one whole
    // service life left.
    EXPECT_NEAR(remainingHoursAtFit(agedState(0.0, 0.0), target_fit,
                                    target_fit, life_years),
                life_h, 1e-6 * life_h);
    // Half consumed at the target rate: half a life left.
    EXPECT_NEAR(remainingHoursAtFit(agedState(0.5, 0.0), target_fit,
                                    target_fit, life_years),
                0.5 * life_h, 1e-6 * life_h);
    // Running at half the target rate doubles the ETA.
    EXPECT_NEAR(remainingHoursAtFit(agedState(0.5, 0.0),
                                    0.5 * target_fit, target_fit,
                                    life_years),
                life_h, 1e-6 * life_h);
    // A spent budget leaves nothing.
    EXPECT_DOUBLE_EQ(remainingHoursAtFit(agedState(1.0, 0.0),
                                         target_fit, target_fit,
                                         life_years),
                     0.0);
    // No failure rate, no clock.
    EXPECT_TRUE(std::isinf(remainingHoursAtFit(
        agedState(0.2, 0.0), 0.0, target_fit, life_years)));
}

} // namespace
} // namespace aging
} // namespace ramp
