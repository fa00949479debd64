/**
 * @file
 * Low-overhead process-wide instrumentation: named counters, gauges,
 * and histograms, scoped RAII timers, and trace spans emitted as
 * Chrome trace-event JSON (loadable in chrome://tracing / Perfetto).
 *
 * Aggregation is per-thread with merge-at-snapshot, so instrumenting
 * a hot path costs one thread-local increment, never a contended
 * atomic or a lock:
 *
 *  - Counters live in per-thread slots. Only the owning thread writes
 *    a slot, so the increment is a plain load/add/store (the slots are
 *    std::atomic only so a concurrent snapshot read is well-defined;
 *    an owner-only non-RMW relaxed update compiles to the same
 *    mov/add/mov a plain increment does).
 *  - Histograms reuse util/stats.hh (Histogram + RunningStat) per
 *    thread, guarded by the owning thread's uncontended state mutex;
 *    they are meant for per-call granularity (evaluations, batches),
 *    not per-cycle events.
 *  - Gauges are single process-wide cells (set rarely: pool size,
 *    queue depth, controller level).
 *
 * A snapshot merges every live thread's state with the totals of
 * already-exited threads; a snapshot taken after a parallel region
 * has joined (e.g. after ThreadPool::parallelFor returns) observes
 * exact counts.
 *
 * Tracing is off by default; spans and instant events are dropped at
 * a single relaxed atomic-bool check when disabled.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hh"

namespace ramp {
namespace telemetry {

class Registry;

namespace detail {

/** Per-thread histogram storage: util/stats bins + moments. */
struct LocalHist
{
    util::Histogram hist;
    util::RunningStat stat;

    LocalHist(double lo, double hi, std::size_t bins)
        : hist(lo, hi, bins)
    {
    }

    void
    add(double x)
    {
        hist.add(x);
        stat.add(x);
    }
};

/**
 * One thread's metric storage. Only the owning thread mutates it;
 * `mu` guards structural growth and histogram contents against a
 * concurrent snapshot. Counter increments take no lock (the deque
 * never relocates elements, and growth happens under `mu`).
 */
struct ThreadState
{
    std::mutex mu;
    std::deque<std::atomic<std::uint64_t>> counters;
    std::deque<std::unique_ptr<LocalHist>> hists;

    void growCounters(std::size_t slot);
    void ensureHist(std::size_t slot, double lo, double hi,
                    std::size_t bins);
};

/** The calling thread's state, registered on first use. */
ThreadState &localState();

} // namespace detail

/** Handle to a named monotonic counter. Cheap to copy. */
class Counter
{
  public:
    /** A default-constructed handle is inert (add() is a no-op). */
    Counter() = default;

    /** Add to this thread's slot (no lock, no atomic RMW). */
    void
    add(std::uint64_t n = 1) const
    {
        if (slot_ == npos)
            return;
        auto &ts = detail::localState();
        if (slot_ >= ts.counters.size())
            ts.growCounters(slot_);
        auto &c = ts.counters[slot_];
        c.store(c.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    static constexpr std::size_t npos = ~std::size_t{0};
    explicit Counter(std::size_t slot) : slot_(slot) {}
    std::size_t slot_ = npos;
};

/**
 * A counter that an object also reports itself (a daemon's stats
 * reply, a cache's Stats): add() bumps the process-wide Counter and
 * this instance's own tally, so two instances sharing one metric
 * name in one process still each read back exactly their own count.
 * Declare it from a literal name -- Tally x_{counter("a.b")} -- so
 * the manifest lint sees the name.
 */
class Tally
{
  public:
    explicit Tally(Counter counter) : counter_(counter) {}

    Tally(const Tally &) = delete;
    Tally &operator=(const Tally &) = delete;

    void
    add(std::uint64_t n = 1)
    {
        counter_.add(n);
        n_.fetch_add(n, std::memory_order_relaxed);
    }

    /** This instance's total. */
    std::uint64_t
    value() const
    {
        return n_.load(std::memory_order_relaxed);
    }

  private:
    Counter counter_;
    std::atomic<std::uint64_t> n_{0};
};

/** Handle to a named process-wide gauge (last value wins). */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(double v) const
    {
        if (cell_)
            cell_->store(v, std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    explicit Gauge(std::atomic<double> *cell) : cell_(cell) {}
    std::atomic<double> *cell_ = nullptr;
};

/** Handle to a named fixed-bin histogram. Cheap to copy. */
class Histogram
{
  public:
    /** A default-constructed handle is inert (add() is a no-op). */
    Histogram() = default;

    /** Record one sample into this thread's bins. */
    void add(double x) const;

  private:
    friend class Registry;
    static constexpr std::size_t npos = ~std::size_t{0};
    Histogram(std::size_t slot, double lo, double hi,
              std::size_t bins)
        : slot_(slot), lo_(lo), hi_(hi), bins_(bins)
    {
    }

    std::size_t slot_ = npos;
    double lo_ = 0.0;
    double hi_ = 1.0;
    std::size_t bins_ = 1;
};

/** One key/value pair attached to a trace event. */
using SpanArg = std::pair<std::string, double>;

/** The process-wide metric registry and trace collector. */
class Registry
{
  public:
    /** The singleton; never destroyed (safe from atexit handlers and
     *  late-exiting threads). */
    static Registry &instance();

    /**
     * Register (or look up) a metric. Re-registering the same name
     * returns the same handle; a name clash across metric kinds, or a
     * histogram re-registered with a different shape, is a panic.
     */
    Counter counter(std::string_view name);
    Gauge gauge(std::string_view name);
    Histogram histogram(std::string_view name, double lo, double hi,
                        std::size_t bins);

    /** Enable/disable span collection (off by default). */
    void setTracing(bool on);
    bool
    tracing() const
    {
        return tracing_.load(std::memory_order_relaxed);
    }

    /** Record a complete ("X") trace event. Dropped when disabled. */
    void recordSpan(std::string_view name, std::string_view cat,
                    double ts_us, double dur_us,
                    std::vector<SpanArg> args = {});

    /** Record an instant ("i") trace event. Dropped when disabled. */
    void recordInstant(std::string_view name, std::string_view cat,
                       std::vector<SpanArg> args = {});

    /** Microseconds since the registry was created. */
    double nowUs() const;

    /** Merged view of one histogram. */
    struct HistogramSnapshot
    {
        double lo = 0.0;
        double hi = 0.0;
        std::vector<std::uint64_t> counts; ///< Interior bins.
        std::uint64_t underflow = 0;
        std::uint64_t overflow = 0;
        std::uint64_t total = 0;
        double sum = 0.0;
        double min = 0.0; ///< Meaningless when total == 0.
        double max = 0.0;

        double
        mean() const
        {
            return total ? sum / static_cast<double>(total) : 0.0;
        }
    };

    /** Merged view of every metric. */
    struct Snapshot
    {
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, double> gauges;
        std::map<std::string, HistogramSnapshot> histograms;

        /** Counter value, 0 when absent. */
        std::uint64_t counter(const std::string &name) const;
    };

    /**
     * Merge every live thread's state with the retired totals. Exact
     * whenever the writers have quiesced (e.g. after a parallelFor
     * has joined); otherwise each thread's contribution is whatever
     * it had published when the snapshot locked its state.
     */
    Snapshot snapshot() const;

    /** Snapshot serialized as one JSON object
     *  ({"counters": {...}, "gauges": {...}, "histograms": {...}}). */
    void writeMetricsJson(std::ostream &os) const;

    /** Collected spans as Chrome trace-event JSON. */
    void writeTraceJson(std::ostream &os) const;

    /** Zero every metric and drop collected spans (for tests; callers
     *  must have quiesced their writers). */
    void reset();

  private:
    friend detail::ThreadState &detail::localState();
    friend class Histogram;

    Registry();

    struct MetricInfo
    {
        enum class Kind { Counter, Gauge, Histogram };
        Kind kind;
        std::string name;
        std::size_t slot = 0; ///< Index within the kind's slot space.
        double lo = 0.0;      ///< Histogram shape.
        double hi = 0.0;
        std::size_t bins = 0;
    };

    /** Totals carried over from exited threads; shaped like
     *  HistogramSnapshot minus the metadata. */
    struct HistTotals
    {
        std::vector<std::uint64_t> counts;
        std::uint64_t underflow = 0;
        std::uint64_t overflow = 0;
        std::uint64_t total = 0;
        double sum = 0.0;
        double min = 1.0 / 0.0;
        double max = -1.0 / 0.0;
    };

    struct Span
    {
        std::string name;
        std::string cat;
        std::uint32_t tid = 0;
        double ts_us = 0.0;
        double dur_us = 0.0;
        bool instant = false;
        std::vector<SpanArg> args;
    };

    void registerState(detail::ThreadState *state);
    void retireState(detail::ThreadState *state);
    /** Fold one thread's data into the retired totals; caller holds
     *  mu_ and the state's mu. */
    void mergeLocked(const detail::ThreadState &state);
    const MetricInfo &lookupOrCreate(std::string_view name,
                                     MetricInfo::Kind kind, double lo,
                                     double hi, std::size_t bins);
    void addSpan(Span span);

    mutable std::mutex mu_; ///< Guards everything below but spans.
    std::map<std::string, std::size_t, std::less<>> by_name_;
    std::vector<MetricInfo> metrics_;
    std::size_t counter_slots_ = 0;
    std::size_t hist_slots_ = 0;
    std::deque<std::atomic<double>> gauges_;
    std::vector<std::uint64_t> counter_totals_;
    std::vector<HistTotals> hist_totals_;
    // ramp-lint: guarded_by(mu_)
    std::vector<detail::ThreadState *> live_;

    std::atomic<bool> tracing_{false};
    mutable std::mutex trace_mu_; ///< Guards spans_.
    // ramp-lint: guarded_by(trace_mu_)
    std::vector<Span> spans_;
    std::size_t spans_dropped_ = 0; ///< Past the cap; guarded above.
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * RAII timer: on destruction records the elapsed seconds into a
 * histogram and, when tracing is enabled, emits a complete span.
 */
class ScopedTimer
{
  public:
    /**
     * @param hist Histogram receiving the duration in seconds.
     * @param span_name Trace span name; nullptr = histogram only.
     * @param category Trace category (groups rows in the viewer).
     */
    explicit ScopedTimer(Histogram hist,
                         const char *span_name = nullptr,
                         const char *category = "");

    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Attach a numeric argument to the emitted span. */
    void arg(std::string name, double value);

  private:
    Histogram hist_;
    const char *name_;
    const char *cat_;
    std::vector<SpanArg> args_;
    std::chrono::steady_clock::time_point start_;
};

/** Shorthand: Registry::instance().counter(name). */
Counter counter(std::string_view name);

/** Shorthand: Registry::instance().gauge(name). */
Gauge gauge(std::string_view name);

/** Shorthand: Registry::instance().histogram(...). */
Histogram histogram(std::string_view name, double lo, double hi,
                    std::size_t bins);

/** Shorthand for an instant trace event. */
void instant(std::string_view name, std::string_view cat,
             std::vector<SpanArg> args = {});

/**
 * Arrange for the registry to be serialized at process exit: a
 * metrics snapshot to @p metrics_path and/or the span timeline to
 * @p trace_path (empty = skip). Passing a non-empty trace path
 * enables tracing. Runs via atexit, so it also fires on
 * util::fatal()'s exit(1). Later calls override earlier paths.
 */
void writeFilesAtExit(std::string metrics_path,
                      std::string trace_path);

/**
 * Strip `--metrics <file>` / `--trace <file>` (and the `=` forms)
 * from an argv, arranging the corresponding outputs at exit; other
 * arguments are left in place for the caller's own parsing.
 * @return the new argc. argv[new_argc] is set to nullptr.
 */
int consumeOutputFlags(int argc, char **argv);

} // namespace telemetry
} // namespace ramp

