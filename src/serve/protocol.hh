/**
 * @file
 * The wire protocol of the RAMP evaluation service.
 *
 * Requests and replies are single JSON objects carried in the
 * length-prefixed frames of util/net.hh. Every request carries a
 * client-chosen `id` that the matching reply echoes, so a client may
 * pipeline requests and correlate replies by id (replies come back
 * in completion order, not necessarily submission order).
 *
 * The protocol is versioned. A frame without a `"v"` field is v0:
 * the original five request types, answered with v0-shaped replies
 * -- byte-identical to the pre-versioning protocol, so old clients
 * keep working against a new server. Frames with `"v":1` carry the
 * same five types plus `hello` (capability negotiation: the client
 * states the highest version it speaks, the server answers with its
 * own range and the negotiated version). `"v":2` adds the fleet
 * verbs: `report_usage` ships an aging::AgingState delta for a named
 * chip, and `remaining_lifetime` answers that chip's consumed
 * lifetime, its current safe operating point (a slack-banking
 * selection), and the ETA until the FIT budget is spent. Versioned
 * requests get replies carrying the same `"v"`.
 *
 * Request shapes (fields beyond `id`/`type`/`v` per type):
 *
 *   {"id":1,"type":"evaluate","app":"bzip2","space":"DVS",
 *    "config":6,"t_qual_k":345}
 *   {"id":2,"type":"select_drm","app":"gzip","space":"ArchDVS",
 *    "t_qual_k":345}
 *   {"id":3,"type":"select_dtm","app":"gzip","space":"ArchDVS",
 *    "t_design_k":370,"t_qual_k":345}
 *   {"id":4,"type":"stats"}
 *   {"id":5,"type":"shutdown"}
 *   {"id":6,"v":1,"type":"hello","max_v":2}
 *   {"id":7,"v":2,"type":"report_usage","chip":"fleet-0042",
 *    "state":{...AgingState document...},"seq":3}
 *   {"id":8,"v":2,"type":"remaining_lifetime","chip":"fleet-0042",
 *    "app":"gzip","space":"DVS","t_qual_k":345}
 *   {"id":9,"v":2,"type":"cache_append","key":"gzip|w128...",
 *    "record":"3 gzip|w128... 1234 ..."}
 *   {"id":10,"v":3,"type":"select_chip","apps":["gzip","MPGdec"],
 *    "space":"DVS","policy":"global",
 *    "floorplan":{"cores":[...]},"t_qual_k":345}
 *
 * `"v":3` adds the CMP verb: `select_chip` runs one chip-level DRM
 * selection (cmp/chip_drm.hh) for one application per core under a
 * single chip-wide FIT budget (the per-core default share times the
 * core count). `apps` names one application per core; `policy`
 * ("per-core" or "global", default "global") picks the budget
 * allocation; the optional `floorplan` object is a
 * cmp::ChipFloorplan document fixing the chip's shape (absent means
 * the built-in grid for the core count). Floorplan documents are
 * validated structurally at parse time, so a malformed placement is
 * a `bad-request` with the offending core named
 * (`request:cores[2]: ...`), never an evaluation-layer failure.
 *
 * report_usage's optional `seq` makes retries idempotent: the server
 * keeps each chip's last-applied sequence number and acknowledges a
 * replayed `seq` without re-merging the (additive) delta, so a retry
 * after a lost reply cannot double-count damage. `seq` 0 (or absent)
 * is the legacy unsequenced form, merged unconditionally.
 *
 * cache_append is the backend-to-backend replication verb: one
 * serialized eval-cache record, applied idempotently by record key
 * (drm/eval_cache.hh). Older senders also stamp an `epoch`, which is
 * validated as a non-negative integer and ignored. A
 * restarted backend re-warms its cache from the snapshots its peers
 * push on (re)connect. The router never forwards it from clients.
 *
 * select_drm, select_dtm and remaining_lifetime still accept the
 * optional `"surrogate":"off"|"rank"|"auto"` field of older clients:
 * it is validated and then ignored (every selection runs the one
 * exhaustive path), and the encoder never emits it.
 *
 * Replies are {"id":N,"ok":true,"result":{...}} on success, or
 * {"id":N,"ok":false,"error":{"code":"...","message":"..."}} on
 * failure (v >= 1 frames insert `"v":N` after `"id"`). Error codes
 * are util::errorCodeName strings for evaluation failures (so a
 * non-converged thermal point or a singular solve is reported
 * structurally, never dropped), plus the serving-layer codes below.
 *
 * Parsing is strict and table-driven: each request type declares its
 * fields (and the protocol version each field/type arrived in) once,
 * and the parser rejects unknown types, foreign fields, and fields
 * or types newer than the frame's version from that single table.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cmp/chip_drm.hh"
#include "drm/adaptation.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace ramp {
namespace serve {

/** Frame payload cap both sides enforce by default. */
inline constexpr std::size_t default_max_frame = std::size_t{1}
                                                 << 20;

/** Highest protocol version this build speaks ("v" field). */
inline constexpr int protocol_version_max = 3;

/** Lowest version (the unversioned legacy wire shape). */
inline constexpr int protocol_version_min = 0;

/** Serving-layer reply error codes (beyond util::errorCodeName). */
inline constexpr const char *err_overloaded = "overloaded";
inline constexpr const char *err_bad_request = "bad-request";
inline constexpr const char *err_shutting_down = "shutting-down";
/** Router reply when no healthy backend can take the request. */
inline constexpr const char *err_no_backend = "no-backend";

/** The request verbs. */
enum class RequestType : std::uint8_t {
    Evaluate,          ///< One (app, config) operating point.
    SelectDrm,         ///< DRM oracle selection over a space.
    SelectDtm,         ///< DTM oracle selection over a space.
    Stats,             ///< Server counters + cache stats (never queued).
    Shutdown,          ///< Begin graceful drain.
    Hello,             ///< v1: capability negotiation.
    ReportUsage,       ///< v2: merge an AgingState delta for a chip.
    RemainingLifetime, ///< v2: consumed life + safe point + ETA.
    CacheAppend,       ///< v2: peer replication of one cache record.
    SelectChip,        ///< v3: chip-level DRM over one app per core.
};

/** Wire name ("evaluate", "select_drm", ...). */
const char *requestTypeName(RequestType t);

/** Inverse of requestTypeName; nullopt for unknown names. */
std::optional<RequestType> requestTypeFromName(std::string_view name);

/** Protocol version a request type needs (0 for the legacy five). */
int requestTypeMinVersion(RequestType t);

/** One parsed (or to-be-encoded) request. */
struct Request
{
    std::uint64_t id = 0;
    RequestType type = RequestType::Stats;

    /** Protocol version of the frame (0 = legacy, no "v" field). */
    int version = 0;

    /** Application name (evaluate / select_* / remaining_lifetime). */
    std::string app;
    /** Adaptation space the config indexes into. */
    drm::AdaptationSpace space = drm::AdaptationSpace::ArchDvs;
    /** Index into drm::configSpace(space) (evaluate only). */
    std::size_t config = 0;
    /** Qualification temperature for FIT evaluation (K). */
    double t_qual_k = 345.0;
    /** Thermal design point (select_dtm only, K). */
    double t_design_k = 370.0;

    /** hello: highest version the client speaks. */
    int max_v = protocol_version_max;
    /** Chip identity (report_usage / remaining_lifetime). */
    std::string chip;
    /** AgingState delta document (report_usage). */
    util::JsonValue state;
    /** report_usage idempotency sequence; 0 = unsequenced legacy. */
    std::uint64_t seq = 0;

    /** cache_append: the replicated record's cache key. */
    std::string key;
    /** cache_append: the full serialized record line. */
    std::string record;

    /** select_chip: one application name per core. */
    std::vector<std::string> core_apps;
    /** select_chip: how the chip FIT budget is split. */
    cmp::BudgetPolicy budget_policy = cmp::BudgetPolicy::Global;
    /** select_chip: optional cmp::ChipFloorplan document (Null =
     *  the built-in grid for core_apps.size() cores). */
    util::JsonValue floorplan;
};

/** Serialize a request to its wire payload (v0 byte-identical to
 *  the pre-versioning encoder when req.version == 0). */
std::string encodeRequest(const Request &req);

/**
 * Parse and validate one request payload. Strict: unknown `type`,
 * missing/mistyped fields, fields that don't apply to the type,
 * fields or types newer than the frame's `v`, a `v` this build does
 * not speak, and non-finite temperatures are all InvalidInput.
 */
[[nodiscard]] util::Result<Request> parseRequest(std::string_view payload);

/** Success reply carrying @p result (consumed). @p version is the
 *  request's negotiated frame version; 0 keeps the legacy shape. */
std::string encodeResultReply(std::uint64_t id,
                              util::JsonValue result,
                              int version = 0);

/** Error reply with a structured code. */
std::string encodeErrorReply(std::uint64_t id, std::string_view code,
                             std::string_view message,
                             int version = 0);

/** Success reply for a value, or the error reply (util::errorCodeName
 *  code) for an error. */
std::string encodeReply(std::uint64_t id,
                        util::Result<util::JsonValue> result,
                        int version = 0);

/** The answer to a hello: this build's version range and
 *  min(hello.max_v, protocol_version_max) as the negotiated one. */
std::string encodeHelloReply(const Request &hello);

/** A decoded reply. */
struct Reply
{
    std::uint64_t id = 0;
    /** Frame version echoed by the server (0 = legacy shape). */
    int version = 0;
    bool ok = false;
    util::JsonValue result;    ///< Valid when ok.
    std::string error_code;    ///< Valid when !ok.
    std::string error_message; ///< Valid when !ok.
};

/** Parse a reply payload (InvalidInput on malformed shape). */
[[nodiscard]] util::Result<Reply> parseReply(std::string_view payload);

/** Nearest util::ErrorCode for a reply error code string (client
 *  Result plumbing): "overloaded" -> Overloaded, "shutting-down" ->
 *  Unavailable, errorCodeName strings -> themselves, anything else
 *  -> InvalidInput. */
util::ErrorCode replyErrorCode(std::string_view code);

} // namespace serve
} // namespace ramp
