#include "util/thread_pool.hh"

// ramp-lint: guarded_by(mutex_): batch_

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/flags.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace util {

namespace {

/** Batch-granularity pool metrics; the per-item claim loop in
 *  drainBatch stays untouched. */
struct PoolMetrics
{
    telemetry::Counter batches = telemetry::counter("pool.batches");
    telemetry::Counter items = telemetry::counter("pool.items");
    telemetry::Counter caller_items =
        telemetry::counter("pool.caller_items");
    telemetry::Counter worker_items =
        telemetry::counter("pool.worker_items");
    telemetry::Gauge threads = telemetry::gauge("pool.threads");
    telemetry::Gauge queue_depth =
        telemetry::gauge("pool.queue_depth");
    /** Wall time of one parallelFor batch. */
    telemetry::Histogram batch_s =
        telemetry::histogram("pool.batch_s", 0.0, 10.0, 40);
    /** Fraction of a batch's items executed by pool workers (as
     *  opposed to the submitting caller); 0 on the serial path. */
    telemetry::Histogram worker_share =
        telemetry::histogram("pool.worker_share", 0.0, 1.0, 20);
    /** Items that threw RampException and were dropped (reported in
     *  the BatchReport) instead of killing their batch. */
    telemetry::Counter failed_items =
        telemetry::counter("pool.failed_items");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics m;
    return m;
}

} // namespace

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("RAMP_THREADS")) {
        const auto n = parseFlagInt("RAMP_THREADS", env, 1,
                                    std::numeric_limits<unsigned>::max());
        if (n)
            return static_cast<unsigned>(n.value());
        warn(cat("RAMP_THREADS='", env,
                 "' is not a positive integer; falling back to "
                 "hardware concurrency"));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

ThreadPool *&
ThreadPool::currentPool()
{
    static thread_local ThreadPool *current = nullptr;
    return current;
}

namespace {

/** Marks the calling thread as executing items of one pool for the
 *  current scope, restoring the previous marker on exit. */
struct ExecutingScope
{
    explicit ExecutingScope(ThreadPool **slot, ThreadPool *pool)
        : slot_(slot), previous_(*slot)
    {
        *slot_ = pool;
    }
    ~ExecutingScope() { *slot_ = previous_; }
    ExecutingScope(const ExecutingScope &) = delete;
    ExecutingScope &operator=(const ExecutingScope &) = delete;

  private:
    ThreadPool **slot_;
    ThreadPool *previous_;
};

} // namespace

std::size_t
ThreadPool::drainBatch(
    Batch &batch, std::exception_ptr &error,
    std::vector<std::pair<std::size_t, RampError>> &failures)
{
    const ExecutingScope scope(&currentPool(), this);
    std::size_t executed = 0;
    for (;;) {
        const std::size_t i =
            batch.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.count)
            return executed;
        try {
            batch.fn(i);
        } catch (const RampException &e) {
            failures.emplace_back(i, e.error());
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
        ++executed;
    }
}

void
ThreadPool::workerLoop()
{
    // Holding the shared_ptr across the whole drain keeps the batch
    // (claim counter included) alive even if parallelFor returns and
    // a successor batch starts while this worker is still making its
    // first claim: that claim lands on the old, exhausted counter and
    // executes nothing.
    std::shared_ptr<Batch> last;
    std::unique_lock lock(mutex_);
    for (;;) {
        work_cv_.wait(lock, [&] { return stop_ || batch_ != last; });
        if (stop_)
            return;
        last = batch_;
        if (!last)
            continue; // batch drained and retired before we woke
        lock.unlock();

        std::exception_ptr error;
        std::vector<std::pair<std::size_t, RampError>> failures;
        const std::size_t executed =
            drainBatch(*last, error, failures);

        lock.lock();
        last->completed += executed;
        if (error && !last->error)
            last->error = error;
        for (auto &f : failures)
            last->failures.push_back(std::move(f));
        if (last->completed >= last->count)
            done_cv_.notify_all();
    }
}

BatchReport
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    BatchReport report;
    report.items = count;
    if (count == 0)
        return report;

    auto &metrics = poolMetrics();
    metrics.batches.add();
    metrics.items.add(count);
    metrics.threads.set(static_cast<double>(workers_.size() + 1));
    telemetry::ScopedTimer timer(metrics.batch_s, "parallelFor",
                                 "pool");
    timer.arg("count", static_cast<double>(count));

    // Inline serial path: no workers, a single item, or a reentrant
    // submission from inside one of this very pool's batch items (a
    // worker thread, or the caller while it drains). Running the
    // nested batch on the submitting thread keeps reentrant
    // parallelFor deadlock-free without a second scheduling layer.
    if (workers_.empty() || count == 1 || currentPool() == this) {
        const ExecutingScope scope(&currentPool(), this);
        std::exception_ptr error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (const RampException &e) {
                report.failures.emplace_back(i, e.error());
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        metrics.caller_items.add(count);
        metrics.worker_share.add(0.0);
        metrics.failed_items.add(report.failures.size());
        if (error)
            std::rethrow_exception(error);
        return report;
    }

    auto batch = std::make_shared<Batch>();
    batch->fn = fn;
    batch->count = count;

    std::unique_lock lock(mutex_);
    batch_ = batch;
    lock.unlock();
    work_cv_.notify_all();
    metrics.queue_depth.set(static_cast<double>(count));

    std::exception_ptr error;
    std::vector<std::pair<std::size_t, RampError>> failures;
    const std::size_t executed = drainBatch(*batch, error, failures);

    lock.lock();
    batch->completed += executed;
    if (error && !batch->error)
        batch->error = error;
    for (auto &f : failures)
        batch->failures.push_back(std::move(f));
    done_cv_.wait(lock,
                  [&] { return batch->completed >= batch->count; });
    // Retire the batch so late-waking workers see no work. (Workers
    // still holding a reference add zero to its counters, harmless.)
    if (batch_ == batch)
        batch_ = nullptr;
    const std::exception_ptr first = batch->error;
    report.failures = std::move(batch->failures);
    lock.unlock();

    metrics.queue_depth.set(0.0);
    metrics.caller_items.add(executed);
    metrics.worker_items.add(count - executed);
    metrics.worker_share.add(static_cast<double>(count - executed) /
                             static_cast<double>(count));

    std::sort(report.failures.begin(), report.failures.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    metrics.failed_items.add(report.failures.size());

    if (first)
        std::rethrow_exception(first);
    return report;
}

} // namespace util
} // namespace ramp
