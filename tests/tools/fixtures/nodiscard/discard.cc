/**
 * Result discipline, enforced by the compiler. Result, Result<void>
 * and BatchReport are class-level [[nodiscard]], so each DISCARD case
 * below drops an error and must fail under -Werror=unused-result --
 * including a member whose name collides with std::ofstream::open
 * and a lambda, which no name-based check can see. DISCARD=0 is the
 * control: (void) casts and assigned results compile cleanly.
 * Driven by tests/tools/nodiscard_check.cmake.
 */

#include "util/error.hh"
#include "util/thread_pool.hh"

namespace {

using ramp::util::Result;

Result<int>
parse()
{
    return 1;
}

Result<void>
flush()
{
    return {};
}

struct Channel
{
    Result<void> open() { return {}; }
};

} // namespace

int
main()
{
    ramp::util::ThreadPool pool(1);
    Channel channel;
    const auto reopen = [&]() -> Result<void> { return channel.open(); };
#if DISCARD == 1
    parse();
#elif DISCARD == 2
    flush();
#elif DISCARD == 3
    channel.open();
#elif DISCARD == 4
    pool.parallelFor(1, [](std::size_t) {});
#elif DISCARD == 5
    reopen();
#else
    (void)parse();
    (void)flush();
    (void)channel.open();
    const auto report = pool.parallelFor(1, [](std::size_t) {});
    const Result<void> reopened = reopen();
    if (!report.ok() || !reopened.ok())
        return 1;
#endif
    return 0;
}
