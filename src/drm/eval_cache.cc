#include "drm/eval_cache.hh"

// ramp-lint: guarded_by(mutex_): entries_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define RAMP_HAVE_FLOCK 1
#endif

#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace drm {

namespace {

// v3: frequency serialized at full precision in the key (v2 collided
// fine-grained DVS rungs past 4 significant digits). The version
// check drops every stale key at load.
constexpr int record_version = 3;

/** Load-time counters with no per-instance tally (stats() reads
 *  the instance's own fields for those). */
struct CacheMetrics
{
    telemetry::Counter loaded = telemetry::counter("cache.loaded");
    telemetry::Counter compactions =
        telemetry::counter("cache.compactions");
    telemetry::Counter compacted_lines =
        telemetry::counter("cache.compacted_lines");
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

// Degradation counters, registered lazily (on first event) so a
// clean run's metric snapshot is unchanged.

const telemetry::Counter &
quarantinedCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("eval_cache.quarantined");
    return c;
}

const telemetry::Counter &
openRetryCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("eval_cache.open_retries");
    return c;
}

const telemetry::Counter &
contentionCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("eval_cache.lock_contention");
    return c;
}

const telemetry::Counter &
writeFailCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("eval_cache.write_failures");
    return c;
}

/**
 * Reads a record line field by field exactly as `std::istringstream
 * >>` does in the classic locale -- skip whitespace, take the longest
 * prefix the field's grammar accepts, fail where the stream fails --
 * with std::from_chars doing the conversions. Once a read fails, the
 * reader stays failed.
 */
class FieldReader
{
  public:
    explicit FieldReader(std::string_view line)
        : p_(line.data()), end_(line.data() + line.size())
    {
    }

    explicit operator bool() const { return ok_; }

    /** A whitespace-delimited word. */
    FieldReader &
    operator>>(std::string &word)
    {
        if (!start())
            return *this;
        const char *b = p_;
        while (p_ != end_ && !isSpace(*p_))
            ++p_;
        word.assign(b, p_);
        return *this;
    }

    /** [+-]digits into int; out of int's range fails. */
    FieldReader &
    operator>>(int &v)
    {
        bool negative = false;
        std::uint64_t magnitude = 0;
        if (!readInteger(negative, magnitude))
            return *this;
        constexpr auto max = static_cast<std::uint64_t>(
            std::numeric_limits<int>::max());
        if (magnitude > max + (negative ? 1 : 0))
            return fail();
        v = negative ? static_cast<int>(-static_cast<std::int64_t>(magnitude))
                     : static_cast<int>(magnitude);
        return *this;
    }

    /** [+-]digits; like the stream, a '-' negates modulo 2^64. */
    FieldReader &
    operator>>(std::uint64_t &v)
    {
        bool negative = false;
        std::uint64_t magnitude = 0;
        if (readInteger(negative, magnitude))
            v = negative ? 0 - magnitude : magnitude;
        return *this;
    }

    /**
     * [+-]digits[.digits][e[+-]digits], the exponent only after a
     * digit. A value too large for a double fails; one too small
     * reads as a signed zero.
     */
    FieldReader &
    operator>>(double &v)
    {
        if (!start())
            return *this;
        const char *b = p_;
        const bool negative = *p_ == '-';
        if (*p_ == '+' || *p_ == '-')
            ++p_;
        const char *digits = p_;
        bool mantissa = false;
        bool point = false;
        bool exponent = false;
        while (p_ != end_) {
            const char c = *p_;
            if (isDigit(c)) {
                mantissa = true;
            } else if (c == '.' && !point && !exponent) {
                point = true;
            } else if ((c == 'e' || c == 'E') && mantissa && !exponent) {
                exponent = true;
                if (p_ + 1 != end_ && (p_[1] == '+' || p_[1] == '-'))
                    ++p_;
            } else {
                break;
            }
            ++p_;
        }
        // from_chars takes no '+' sign; the stream drops it too.
        const char *from = *b == '+' ? b + 1 : b;
        const auto [ptr, ec] =
            std::from_chars(from, p_, v, std::chars_format::general);
        if (ptr != p_ || (ec != std::errc{} &&
                          ec != std::errc::result_out_of_range))
            return fail();
        if (ec == std::errc::result_out_of_range) {
            if (decimalOrder(digits, p_) > 0)
                return fail(); // overflow
            v = negative ? -0.0 : 0.0;
        }
        return *this;
    }

  private:
    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    static bool
    isSpace(char c)
    {
        return c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
               c == '\f' || c == '\r';
    }

    FieldReader &
    fail()
    {
        ok_ = false;
        return *this;
    }

    /** Skip whitespace; false (and failed) at the end of the line. */
    bool
    start()
    {
        while (ok_ && p_ != end_ && isSpace(*p_))
            ++p_;
        if (ok_ && p_ == end_)
            fail();
        return ok_;
    }

    bool
    readInteger(bool &negative, std::uint64_t &magnitude)
    {
        if (!start())
            return false;
        negative = *p_ == '-';
        if (*p_ == '+' || *p_ == '-')
            ++p_;
        const char *b = p_;
        while (p_ != end_ && isDigit(*p_))
            ++p_;
        const auto [ptr, ec] = std::from_chars(b, p_, magnitude);
        if (b == p_ || ec != std::errc{} || ptr != p_) {
            fail();
            return false;
        }
        return true;
    }

    /**
     * The decimal exponent of the leading nonzero digit of the
     * unsigned number in [b, e) (which has one): positive for a
     * magnitude of at least 10, negative below 1.
     */
    static long
    decimalOrder(const char *b, const char *e)
    {
        long order = 0;
        bool seen = false;
        bool point = false;
        for (; b != e && *b != 'e' && *b != 'E'; ++b) {
            if (*b == '.') {
                point = true;
            } else if (!seen && *b != '0') {
                seen = true;
                order = point ? order - 1 : 0;
            } else if (seen ? !point : point) {
                order += seen ? 1 : -1;
            }
        }
        long exp = 0;
        if (b != e) {
            ++b;
            const bool negative = b != e && *b == '-';
            if (b != e && (*b == '+' || *b == '-'))
                ++b;
            for (; b != e; ++b)
                exp = std::min(exp * 10 + (*b - '0'), 1'000'000'000L);
            exp = negative ? -exp : exp;
        }
        return order + exp;
    }

    const char *p_;
    const char *end_;
    bool ok_ = true;
};

/**
 * Parse one serialized record line into (key, value). False on
 * stale versions, short or non-numeric lines -- the same policy the
 * load path applies, shared with peer-record ingestion.
 */
bool
parseRecordLine(std::string_view line, std::string &key,
                CachedEvaluation &v)
{
    FieldReader in(line);
    int version = 0;
    in >> version >> key;
    if (!in || version != record_version || key.empty())
        return false;
    in >> v.activity.cycles >> v.activity.retired;
    for (auto &a : v.activity.activity)
        in >> a;
    in >> v.stats.cycles >> v.stats.fetched >> v.stats.retired >>
        v.stats.dispatched >> v.stats.issued >> v.stats.branches >>
        v.stats.mispredicts >> v.stats.ras_returns >> v.stats.loads >>
        v.stats.stores;
    in >> v.l1d_miss_ratio >> v.l1i_miss_ratio >> v.l2_miss_ratio;
    return static_cast<bool>(in);
}

/** Append the decimal digits of @p v. */
void
appendUint(std::string &out, std::uint64_t v)
{
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    out.append(buf, end);
}

} // namespace

EvaluationCache::EvaluationCache(std::string path)
    : path_(std::move(path))
{
    if (path_.empty())
        return; // In-memory only: no log, no lock sidecar.
#ifdef RAMP_HAVE_FLOCK
    // Advisory cross-process coordination: hold a shared lock on a
    // sidecar for as long as this cache (and its appender) lives.
    // Compaction below upgrades to exclusive, so it can never rename
    // the log out from under another process's open appender.
    lock_fd_ = ::open((path_ + ".lock").c_str(),
                      O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (lock_fd_ >= 0 && ::flock(lock_fd_, LOCK_SH) != 0) {
        ::close(lock_fd_);
        lock_fd_ = -1;
    }
#endif

    std::size_t lines = 0;
    std::vector<std::string> bad_lines;
    {
        std::ifstream in(path_);
        std::string line;
        while (in && std::getline(in, line)) {
            ++lines;
            std::string key;
            CachedEvaluation v;
            if (!parseRecordLine(line, key, v)) {
                bad_lines.push_back(line);
                continue; // corrupt or stale record
            }
            // ramp-lint: allow(lock-discipline): constructor, pre-concurrency
            entries_[key] = v;
        }
    }
    // ramp-lint: allow(lock-discipline): constructor, pre-concurrency
    loaded_ = entries_.size();

    // Corrupt and stale-version lines are evidence (of a torn write,
    // interleaved appends, or a bug), not noise: park them in a
    // sidecar instead of silently discarding them. Superseded
    // duplicates parse fine and are merely compacted away.
    if (!bad_lines.empty()) {
        const std::string qpath = path_ + ".quarantine";
        std::ofstream q(qpath, std::ios::app);
        if (q)
            for (const auto &l : bad_lines)
                q << l << '\n';
        quarantined_ = bad_lines.size();
        quarantinedCounter().add(quarantined_);
        util::warn(util::cat("evaluation cache: quarantined ",
                             quarantined_,
                             " corrupt/stale lines from ", path_,
                             " to ", qpath));
    }

    // Compact: rewrite the append-log as exactly one line per live
    // record, dropping corrupt lines, stale versions, and superseded
    // duplicates. Skipped when the log is already compact (the
    // common warm-start case) so clean loads touch nothing. A
    // contended or failed compaction is a recoverable, structured
    // condition -- the log simply stays as-is until a future
    // exclusive holder compacts it.
    // ramp-lint: allow(lock-discipline): constructor, pre-concurrency
    if (lines > entries_.size()) {
        if (auto r = tryCompact(lines); !r) {
            if (r.error().code == util::ErrorCode::LockContention) {
                contentionCounter().add();
                util::debug(util::cat("evaluation cache: ",
                                      r.error().str()));
            } else {
                util::warn(util::cat("evaluation cache: ",
                                     r.error().str()));
            }
        }
    }

    // One appender for the cache's lifetime: put() no longer pays an
    // open/close per record, and every append is a single line-
    // granular write behind file_mutex_.
    if (!openAppender())
        util::warn(
            util::cat("evaluation cache: cannot append to ", path_));

    auto &metrics = cacheMetrics();
    metrics.loaded.add(loaded_);
    if (compacted_) {
        metrics.compactions.add();
        metrics.compacted_lines.add(compacted_);
    }
    if (loaded_)
        util::inform(util::cat("evaluation cache: loaded ", loaded_,
                               " records from ", path_,
                               compacted_ ? util::cat(" (compacted ",
                                                      compacted_,
                                                      " stale lines)")
                                          : ""));
}

util::Result<void>
EvaluationCache::tryCompact(std::size_t lines)
{
#ifdef RAMP_HAVE_FLOCK
    // Another process's shared lock blocks our exclusive upgrade:
    // renaming over the log would detach that process's appender onto
    // an unlinked inode and lose every record it writes for the rest
    // of its run. flock conversions are not atomic: on a failed
    // non-blocking upgrade the shared lock may already be gone, so
    // re-acquire it (briefly blocking on at most one compacting
    // holder).
    if (lock_fd_ < 0 || ::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
        if (lock_fd_ >= 0)
            ::flock(lock_fd_, LOCK_SH);
        return util::RampError{
            util::ErrorCode::LockContention,
            util::cat("another process holds ", path_,
                      " open; compaction deferred")};
    }
#endif
    // Compaction runs from the constructor, before any concurrent
    // reader or writer of entries_ exists.
    // ramp-lint: allow(lock-discipline): constructor, pre-concurrency
    compacted_ = lines - entries_.size();
    const std::string tmp = path_ + ".compact.tmp";
    std::ofstream out(tmp, std::ios::trunc);
    bool wrote = static_cast<bool>(out);
    if (wrote) {
        // ramp-lint: allow(lock-discipline): constructor-time compaction
        for (const auto &[key, value] : entries_)
            writeRecord(out, key, value);
        out.close();
        wrote = static_cast<bool>(out) &&
                std::rename(tmp.c_str(), path_.c_str()) == 0;
    }
#ifdef RAMP_HAVE_FLOCK
    if (lock_fd_ >= 0)
        ::flock(lock_fd_, LOCK_SH); // downgrade for our lifetime
#endif
    if (!wrote) {
        std::remove(tmp.c_str());
        compacted_ = 0;
        return util::RampError{
            util::ErrorCode::IoFailure,
            util::cat("compaction of ", path_,
                      " failed; log left as-is")};
    }
    return {};
}

bool
EvaluationCache::openAppender()
{
    // Bounded retry with exponential backoff: a transiently failing
    // open (fd pressure, slow network filesystem) should cost a few
    // milliseconds, not every append for the rest of the run.
    for (int attempt = 0;; ++attempt) {
        appender_.clear();
        appender_.open(path_, std::ios::app);
        if (appender_)
            return true;
        if (attempt >= 3)
            return false;
        openRetryCounter().add();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 << attempt));
    }
}

EvaluationCache::~EvaluationCache()
{
#ifdef RAMP_HAVE_FLOCK
    if (lock_fd_ >= 0)
        ::close(lock_fd_); // releases the advisory lock
#endif
}

std::string
EvaluationCache::key(const sim::MachineConfig &cfg,
                     const workload::AppProfile &app,
                     const core::EvalParams &params)
{
    // Everything that affects the *timing* simulation. Voltage is
    // deliberately absent: it affects power and reliability, which
    // are recomputed from the cached activity, but never the timing.
    // With clock-scaled off-chip latencies, frequency is timing-
    // irrelevant too (all latencies are fixed cycle counts), so all
    // DVS rungs share one record.
    std::string out;
    out.reserve(app.name.size() + 80);
    out += app.name;
    out += "|w";
    appendUint(out, cfg.window_size);
    out += 'a';
    appendUint(out, cfg.num_int_alu);
    out += 'f';
    appendUint(out, cfg.num_fpu);
    out += 'g';
    appendUint(out, cfg.num_agen);
    out += 'q';
    appendUint(out, cfg.mem_queue);
    out += 'd';
    appendUint(out, cfg.fetch_duty_x8);
    out += '|';
    if (cfg.offchip_scales_with_clock) {
        out += "cycN";
    } else {
        // Full round-trip precision (%.17g, the stream format the key
        // always had): at any truncated precision, DVS rungs closer
        // than the printed digits would collide into one record and
        // silently share timing results.
        char buf[32];
        const auto end =
            std::to_chars(buf, buf + sizeof buf, cfg.frequency_ghz,
                          std::chars_format::general,
                          std::numeric_limits<double>::max_digits10)
                .ptr;
        out.append(buf, end);
        out += "GHz";
    }
    out += '|';
    appendUint(out, params.seed);
    out += '|';
    appendUint(out, params.warmup_uops);
    out += '|';
    appendUint(out, params.measure_uops);
    return out;
}

std::optional<CachedEvaluation>
EvaluationCache::get(const std::string &key) const
{
    std::shared_lock lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        misses_.add();
        return std::nullopt;
    }
    hits_.add();
    return it->second;
}

bool
EvaluationCache::contains(const std::string &key) const
{
    std::shared_lock lock(mutex_);
    return entries_.find(key) != entries_.end();
}

void
EvaluationCache::put(const std::string &key,
                     const CachedEvaluation &value)
{
    {
        std::unique_lock lock(mutex_);
        entries_[key] = value;
    }
    // Format outside the lock, write the complete line in one go:
    // concurrent putters serialize on file_mutex_ and each line lands
    // whole (load-time parsing tolerates anything else anyway).
    std::ostringstream line;
    writeRecord(line, key, value);
    std::string text = line.str();

    // Replication tap: forward the clean serialized record (never the
    // fault-corrupted variant -- disk corruption is a local hazard,
    // not something to propagate to peers).
    if (observer_) {
        std::string clean = text;
        if (!clean.empty() && clean.back() == '\n')
            clean.pop_back();
        observer_(key, clean);
    }

    if (path_.empty())
        return;

    // Fault hook: garble the on-disk record for hash-selected keys
    // (the in-memory entry stays good). The corruption surfaces at
    // the next load as a quarantined line, never as wrong data.
    if (const auto *plan = fault::activeFaultPlan();
        plan && plan->enabled(fault::FaultKind::CacheCorrupt) &&
        fault::corruptCacheRecord(*plan, key)) {
        if (!text.empty() && text.back() == '\n')
            text.pop_back();
        text = fault::corruptLine(*plan, text);
        text += '\n';
    }

    appendLine(text);
}

void
EvaluationCache::appendLine(const std::string &text)
{
    std::lock_guard lock(file_mutex_);
    if (!appender_ && !openAppender())
        return; // warned at construction; retried here
    appender_ << text;
    appender_.flush();
    if (!appender_) {
        // Failed write: report, drop the stream, and let the next
        // put() reopen it. The in-memory record is already live.
        writeFailCounter().add();
        util::warn(util::cat(
            "evaluation cache: append to ", path_,
            " failed; will reopen on the next record"));
        appender_.close();
        appender_.clear();
        return;
    }
    appended_.add();
}

void
EvaluationCache::setAppendObserver(AppendObserver observer)
{
    observer_ = std::move(observer);
}

std::vector<std::pair<std::string, std::string>>
EvaluationCache::exportRecords() const
{
    std::vector<std::pair<std::string, std::string>> out;
    std::shared_lock lock(mutex_);
    out.reserve(entries_.size());
    for (const auto &[key, value] : entries_) {
        std::ostringstream line;
        writeRecord(line, key, value);
        std::string text = line.str();
        if (!text.empty() && text.back() == '\n')
            text.pop_back();
        out.emplace_back(key, std::move(text));
    }
    return out;
}

bool
EvaluationCache::putSerialized(const std::string &key,
                               const std::string &line)
{
    std::string parsed_key;
    CachedEvaluation v;
    if (!parseRecordLine(line, parsed_key, v) || parsed_key != key)
        return false; // malformed or mislabelled peer record
    {
        std::unique_lock lock(mutex_);
        if (!entries_.emplace(parsed_key, v).second)
            return false; // idempotent: key already live
    }
    if (!path_.empty())
        appendLine(line + '\n');
    return true;
}

std::size_t
EvaluationCache::size() const
{
    std::shared_lock lock(mutex_);
    return entries_.size();
}

EvaluationCache::Stats
EvaluationCache::stats() const
{
    Stats s;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.appended = appended_.value();
    s.loaded = loaded_;
    s.compacted = compacted_;
    s.quarantined = quarantined_;
    return s;
}

void
EvaluationCache::writeRecord(std::ostream &out, const std::string &key,
                             const CachedEvaluation &v) const
{
    out.precision(17);
    out << record_version << ' ' << key << ' ' << v.activity.cycles
        << ' ' << v.activity.retired;
    for (double a : v.activity.activity)
        out << ' ' << a;
    out << ' ' << v.stats.cycles << ' ' << v.stats.fetched << ' '
        << v.stats.retired << ' ' << v.stats.dispatched << ' '
        << v.stats.issued << ' ' << v.stats.branches << ' '
        << v.stats.mispredicts << ' ' << v.stats.ras_returns << ' '
        << v.stats.loads << ' ' << v.stats.stores;
    out << ' ' << v.l1d_miss_ratio << ' ' << v.l1i_miss_ratio << ' '
        << v.l2_miss_ratio << '\n';
}

} // namespace drm
} // namespace ramp
