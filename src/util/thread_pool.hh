/**
 * @file
 * A small work-queue thread pool for embarrassingly-parallel index
 * ranges (oracle exploration points, per-app sweeps).
 *
 * The design is deliberately minimal: one blocking primitive,
 * parallelFor(count, fn), which runs fn(0) .. fn(count-1) across the
 * pool with the *calling thread participating* as one worker. A pool
 * of n threads therefore spawns n-1 OS threads and delivers n-way
 * concurrency; ThreadPool(1) spawns nothing and degenerates to a
 * plain serial loop, which keeps `--threads 1` an honest baseline.
 *
 * Work items are claimed from a shared atomic index, so scheduling
 * order is nondeterministic -- callers must write results by index
 * (never push_back) and keep fn free of order-dependent state.
 *
 * Failure policy: an item that throws RampException is a *recoverable
 * per-item failure* -- the batch keeps draining, and the failed
 * indices come back in the BatchReport (sorted, so reports are
 * deterministic) for the caller to drop or retry. Any other exception
 * still indicates a bug or an unrecoverable condition: the first one
 * is rethrown on the calling thread after the batch drains.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace ramp {
namespace util {

/** Per-batch outcome of a parallelFor: which items failed, and how.
 *  [[nodiscard]]: dropping a report silently drops the per-item
 *  failures inside it, so the compiler rejects it (strict -Werror). */
struct [[nodiscard]] BatchReport
{
    /** Items submitted (fn invocations attempted). */
    std::size_t items = 0;
    /** (index, error) per item that threw RampException, sorted by
     *  index so the report is deterministic at any thread count. */
    std::vector<std::pair<std::size_t, RampError>> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Threads to use when the caller expressed no preference: the
 * RAMP_THREADS environment variable if set to a positive integer,
 * otherwise std::thread::hardware_concurrency() (minimum 1).
 */
unsigned defaultThreadCount();

/** Fixed-size pool of worker threads executing indexed batches. */
class ThreadPool
{
  public:
    /**
     * @param threads Total concurrency including the calling thread;
     *        0 means defaultThreadCount().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; outstanding batches must have drained. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (workers + the participating caller). */
    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [0, count) across the pool and block
     * until all calls return. The caller participates, so this is
     * safe (and serial) on a 1-thread pool. Reentrant submissions
     * are safe but not parallel: a call made from inside a batch
     * item of the *same* pool (a worker, or the caller while it
     * drains) runs its items inline on the submitting thread, so
     * nested per-core work can call parallelFor without deadlocking
     * against the outer batch.
     *
     * Items that throw RampException are reported in the returned
     * BatchReport instead of killing the batch; any other exception
     * is rethrown (first wins) after the batch drains.
     */
    [[nodiscard]] BatchReport parallelFor(std::size_t count,
                            const std::function<void(std::size_t)> &fn);

  private:
    /**
     * One parallelFor invocation. The claim counter, completion count,
     * and the function itself live here, reference-counted: a worker
     * that wakes late (or stalls between copying the batch pointer and
     * its first claim) can only ever touch *this* batch's state. Its
     * claims hit an exhausted counter and execute nothing -- it can
     * never consume an index of a successor batch, nor run a function
     * whose captures have been destroyed.
     */
    struct Batch
    {
        std::function<void(std::size_t)> fn;
        std::size_t count = 0;
        std::atomic<std::size_t> next{0}; ///< Next unclaimed index.
        std::size_t completed = 0; ///< Executed; guarded by mutex_.
        std::exception_ptr error;  ///< First thrown; guarded by mutex_.
        /** RampException items, unsorted; guarded by mutex_. */
        std::vector<std::pair<std::size_t, RampError>> failures;
    };

    void workerLoop();
    /** Claim and run indices of @p batch; returns how many this
     *  thread executed, recording the first non-Ramp exception and
     *  collecting RampException failures per item. Marks the
     *  calling thread as executing for this pool (currentPool())
     *  while inside fn, so reentrant parallelFor calls detect
     *  themselves and run inline. */
    std::size_t
    drainBatch(Batch &batch, std::exception_ptr &error,
               std::vector<std::pair<std::size_t, RampError>> &failures);

    /** The pool whose batch item the calling thread is currently
     *  executing, nullptr outside any item. */
    static ThreadPool *&currentPool();

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_cv_; ///< New batch or shutdown.
    std::condition_variable done_cv_; ///< Batch fully executed.

    /** Current batch; null when retired. */
    std::shared_ptr<Batch> batch_; // ramp-lint: guarded_by(mutex_)
    bool stop_ = false;
};

} // namespace util
} // namespace ramp

