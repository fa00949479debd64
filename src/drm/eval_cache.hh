/**
 * @file
 * Persistent cache of timing-simulation results.
 *
 * Exploring an adaptation space costs one timing simulation per
 * (application, configuration) pair; the power/thermal fixed point
 * and FIT evaluation on top are cheap. The cache stores the expensive
 * part -- the measured activity sample and core statistics -- keyed
 * by everything that determines it, so reproduction benches sharing
 * a space (e.g. Figure 2 and Figure 3 both explore ArchDVS) reuse
 * each other's simulations across processes.
 *
 * The format is a plain text append-log, one record per line; unknown
 * or corrupt lines are ignored (the cache is an optimisation, never a
 * correctness dependency). Loading compacts the log in place: stale
 * versions, corrupt lines, and superseded duplicates are dropped and
 * the file rewritten, so it stops growing unboundedly across runs.
 *
 * The in-memory map is concurrency-safe (shared_mutex: concurrent
 * get(), exclusive put()) and file appends go through one serialized
 * appender opened once, so parallel exploration workers can share a
 * cache without torn or lost lines. Cross-*process* concurrency:
 * simultaneous appenders interleave whole lines safely, and an
 * advisory flock (held shared on a <path>.lock sidecar for each
 * cache's lifetime, taken exclusive to compact) keeps one process
 * from compacting while another holds the log open -- without it the
 * compactor's rename would leave the other process appending to an
 * unlinked inode, silently losing *every* record it writes for the
 * rest of its run, not just in-flight lines. On platforms without
 * flock (or against uncooperative writers) that whole-run loss is
 * still possible; it costs re-simulation on the next cold run -- an
 * optimisation loss, never a correctness one.
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hh"
#include "sim/machine.hh"
#include "util/telemetry.hh"
#include "workload/profile.hh"

namespace ramp {
namespace drm {

/** The cached (expensive) part of an operating-point evaluation: its
 *  simulation's measurement. */
using CachedEvaluation = core::Measurement;

/** File-backed map from evaluation keys to measured samples. */
class EvaluationCache
{
  public:
    /** Usage counters, cheap enough to keep always-on. */
    struct Stats
    {
        std::size_t hits = 0;     ///< get() found a record.
        std::size_t misses = 0;   ///< get() found nothing.
        std::size_t appended = 0; ///< put() records written to file.
        std::size_t loaded = 0;   ///< Records read at construction.
        /** Lines the load-time compaction dropped (corrupt, stale
         *  version, or superseded duplicates). */
        std::size_t compacted = 0;
        /** Corrupt/stale lines copied to the <path>.quarantine
         *  sidecar at load (never silently discarded). */
        std::size_t quarantined = 0;
    };

    /** Create an empty cache (no file attached). */
    EvaluationCache() = default;

    /**
     * Attach a backing file, load any existing records from it, and
     * compact it (drop corrupt/stale/duplicate lines) if the log
     * holds anything but one line per live record. Missing files are
     * fine (cold cache); an empty path means in-memory only, same as
     * the default constructor.
     */
    explicit EvaluationCache(std::string path);

    /** Releases the advisory cross-process lock, if one is held. */
    ~EvaluationCache();

    EvaluationCache(const EvaluationCache &) = delete;
    EvaluationCache &operator=(const EvaluationCache &) = delete;

    /** Key for one (application, configuration, params) evaluation. */
    static std::string key(const sim::MachineConfig &cfg,
                           const workload::AppProfile &app,
                           const core::EvalParams &params);

    /** Look up a record; nullopt on miss. Thread-safe. */
    std::optional<CachedEvaluation> get(const std::string &key) const;

    /** Whether a record exists, without counting a hit or miss (a
     *  replicated append probes for a record it did not apply). */
    bool contains(const std::string &key) const;

    /** Insert (or overwrite) a record and append it to the file.
     *  Thread-safe; appends are serialized and line-atomic. */
    void put(const std::string &key, const CachedEvaluation &value);

    /** Number of records held. */
    std::size_t size() const;

    /** Usage counters since construction. */
    Stats stats() const;

    /**
     * Observes every locally-originated put() with the record's key
     * and its serialized line (no trailing newline). Replication
     * hook: the replicator tails appends through this and forwards
     * them to peers. Ingested peer records (putSerialized) do NOT
     * fire it, so replication cannot echo. Install before the cache
     * is used concurrently; not thread-safe against in-flight puts.
     */
    using AppendObserver =
        std::function<void(const std::string &key,
                           const std::string &line)>;
    void setAppendObserver(AppendObserver observer);

    /**
     * Snapshot every live record as (key, serialized line) pairs --
     * the full-resync payload a peer replays through putSerialized.
     * Thread-safe.
     */
    std::vector<std::pair<std::string, std::string>>
    exportRecords() const;

    /**
     * Ingest one serialized record line from a peer (cache_append).
     * Idempotent by key: an already-present key is acknowledged
     * without applying, so replayed snapshots and echoes are free.
     * Malformed or stale-version lines are rejected (false) and never
     * touch the log. Applied records append to the file but do not
     * fire the observer. Thread-safe. Returns whether the record was
     * newly applied.
     */
    bool putSerialized(const std::string &key,
                       const std::string &line);

  private:
    void writeRecord(std::ostream &os, const std::string &key,
                     const CachedEvaluation &v) const;

    /**
     * Rewrite the log as one line per live record. LockContention
     * when another process holds the cache open (benign: compaction
     * is deferred to a future exclusive holder), IoFailure when the
     * rewrite itself fails (the log is left as-is).
     */
    [[nodiscard]] util::Result<void> tryCompact(std::size_t lines);

    /** Open (or reopen) the appender with bounded retry + backoff;
     *  false when it stays unopenable. Caller holds file_mutex_ (or
     *  is the constructor). */
    bool openAppender();

    /** Append one already-serialized line to the log (caller formats
     *  and, for local puts, fault-corrupts). Takes file_mutex_. */
    void appendLine(const std::string &text);

    std::string path_;
    AppendObserver observer_;
    // ramp-lint: guarded_by(mutex_)
    std::map<std::string, CachedEvaluation> entries_;
    mutable std::shared_mutex mutex_; ///< Guards entries_.

    std::mutex file_mutex_; ///< Serializes every file append.
    std::ofstream appender_;
    /** fd of the <path>.lock sidecar, flock'd shared for the cache's
     *  lifetime (exclusive during compaction); -1 when unavailable. */
    int lock_fd_ = -1;

    mutable telemetry::Tally hits_{telemetry::counter("cache.hits")};
    mutable telemetry::Tally misses_{
        telemetry::counter("cache.misses")};
    telemetry::Tally appended_{telemetry::counter("cache.appends")};
    std::size_t loaded_ = 0;
    std::size_t compacted_ = 0;
    std::size_t quarantined_ = 0;
};

} // namespace drm
} // namespace ramp

