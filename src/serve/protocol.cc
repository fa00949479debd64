#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>

#include "cmp/floorplan.hh"
#include "util/logging.hh"

namespace ramp {
namespace serve {

using util::ErrorCode;
using util::JsonValue;
using util::RampError;
using util::Result;

namespace {

const char *const type_names[] = {
    "evaluate",    "select_drm",   "select_dtm",
    "stats",       "shutdown",     "hello",
    "report_usage", "remaining_lifetime", "cache_append",
    "select_chip",
};

// --- The per-version field table -------------------------------------
//
// Strict parsing (and the v0-compatible field order of the encoder)
// is declared here once per request type instead of re-implemented
// in per-type branches. Each rule names a field, whether the type
// requires it, and the protocol version it arrived in.

enum class Field : std::uint8_t {
    App,
    Space,
    Config,
    TQualK,
    TDesignK,
    Surrogate,
    MaxV,
    Chip,
    State,
    Seq,
    Key,
    Record,
    Epoch,
    Apps,
    Policy,
    Floorplan,
};

/** The values the retired `surrogate` field still accepts. */
constexpr std::string_view surrogate_modes[] = {"off", "rank", "auto"};

struct FieldRule
{
    Field field;
    const char *name;
    bool required;
    int min_version;
};

struct TypeRule
{
    RequestType type;
    int min_version;
    const FieldRule *fields;
    std::size_t num_fields;
};

constexpr FieldRule evaluate_fields[] = {
    {Field::App, "app", true, 0},
    {Field::Space, "space", true, 0},
    {Field::Config, "config", true, 0},
    {Field::TQualK, "t_qual_k", false, 0},
};

constexpr FieldRule select_drm_fields[] = {
    {Field::App, "app", true, 0},
    {Field::Space, "space", true, 0},
    {Field::TQualK, "t_qual_k", false, 0},
    {Field::Surrogate, "surrogate", false, 0},
};

constexpr FieldRule select_dtm_fields[] = {
    {Field::App, "app", true, 0},
    {Field::Space, "space", true, 0},
    {Field::TDesignK, "t_design_k", false, 0},
    {Field::TQualK, "t_qual_k", false, 0},
    {Field::Surrogate, "surrogate", false, 0},
};

constexpr FieldRule hello_fields[] = {
    {Field::MaxV, "max_v", false, 1},
};

constexpr FieldRule report_usage_fields[] = {
    {Field::Chip, "chip", true, 2},
    {Field::State, "state", true, 2},
    {Field::Seq, "seq", false, 2},
};

constexpr FieldRule remaining_lifetime_fields[] = {
    {Field::Chip, "chip", true, 2},
    {Field::App, "app", true, 2},
    {Field::Space, "space", true, 2},
    {Field::TQualK, "t_qual_k", false, 2},
    {Field::Surrogate, "surrogate", false, 2},
};

constexpr FieldRule cache_append_fields[] = {
    {Field::Key, "key", true, 2},
    {Field::Record, "record", true, 2},
    {Field::Epoch, "epoch", false, 2},
};

constexpr FieldRule select_chip_fields[] = {
    {Field::Apps, "apps", true, 3},
    {Field::Space, "space", true, 3},
    {Field::Policy, "policy", false, 3},
    {Field::Floorplan, "floorplan", false, 3},
    {Field::TQualK, "t_qual_k", false, 3},
};

constexpr TypeRule type_rules[] = {
    {RequestType::Evaluate, 0, evaluate_fields,
     std::size(evaluate_fields)},
    {RequestType::SelectDrm, 0, select_drm_fields,
     std::size(select_drm_fields)},
    {RequestType::SelectDtm, 0, select_dtm_fields,
     std::size(select_dtm_fields)},
    {RequestType::Stats, 0, nullptr, 0},
    {RequestType::Shutdown, 0, nullptr, 0},
    {RequestType::Hello, 1, hello_fields, std::size(hello_fields)},
    {RequestType::ReportUsage, 2, report_usage_fields,
     std::size(report_usage_fields)},
    {RequestType::RemainingLifetime, 2, remaining_lifetime_fields,
     std::size(remaining_lifetime_fields)},
    {RequestType::CacheAppend, 2, cache_append_fields,
     std::size(cache_append_fields)},
    {RequestType::SelectChip, 3, select_chip_fields,
     std::size(select_chip_fields)},
};

const TypeRule &
ruleFor(RequestType t)
{
    return type_rules[static_cast<std::size_t>(t)];
}

/** The rule for @p name within the type, or nullptr (foreign). */
const FieldRule *
findField(const TypeRule &rule, std::string_view name)
{
    for (std::size_t i = 0; i < rule.num_fields; ++i)
        if (name == rule.fields[i].name)
            return &rule.fields[i];
    return nullptr;
}

/** Parse one table field's value into the request. */
Result<void>
parseField(const FieldRule &rule, const JsonValue &value,
           Request &req)
{
    switch (rule.field) {
      case Field::App:
        if (!value.isString() || value.str.empty())
            return RampError{ErrorCode::InvalidInput,
                             "request needs a non-empty string "
                             "'app'"};
        req.app = value.str;
        return {};
      case Field::Space: {
        if (!value.isString())
            return RampError{ErrorCode::InvalidInput,
                             "request needs a string 'space'"};
        const auto s = drm::adaptationSpaceFromName(value.str);
        if (!s)
            return RampError{ErrorCode::InvalidInput,
                             util::cat("unknown adaptation space '",
                                       value.str, "'")};
        req.space = *s;
        return {};
      }
      case Field::Config: {
        const auto cfg = value.asUint();
        if (!cfg)
            return RampError{ErrorCode::InvalidInput,
                             util::cat(requestTypeName(req.type),
                                       " needs a non-negative "
                                       "integer 'config'")};
        req.config = static_cast<std::size_t>(*cfg);
        return {};
      }
      case Field::TQualK: {
        if (!value.isNumber() || !std::isfinite(value.number))
            return RampError{ErrorCode::InvalidInput,
                             "request field 't_qual_k' must be a "
                             "finite number"};
        req.t_qual_k = value.number;
        return {};
      }
      case Field::TDesignK: {
        if (!value.isNumber() || !std::isfinite(value.number))
            return RampError{ErrorCode::InvalidInput,
                             "request field 't_design_k' must be a "
                             "finite number"};
        req.t_design_k = value.number;
        return {};
      }
      case Field::Surrogate: {
        if (!value.isString())
            return RampError{ErrorCode::InvalidInput,
                             "request field 'surrogate' must be a "
                             "string"};
        // Accepted for older clients, then ignored: there is one
        // selection path.
        if (std::find(std::begin(surrogate_modes),
                      std::end(surrogate_modes),
                      value.str) == std::end(surrogate_modes))
            return RampError{
                ErrorCode::InvalidInput,
                util::cat("unknown surrogate mode '", value.str,
                          "' (off, rank, or auto)")};
        return {};
      }
      case Field::MaxV: {
        const auto v = value.asUint();
        if (!v)
            return RampError{ErrorCode::InvalidInput,
                             "hello needs a non-negative integer "
                             "'max_v'"};
        req.max_v =
            static_cast<int>(std::min<std::uint64_t>(*v, 1'000'000));
        return {};
      }
      case Field::Chip:
        if (!value.isString() || value.str.empty())
            return RampError{ErrorCode::InvalidInput,
                             "request needs a non-empty string "
                             "'chip'"};
        req.chip = value.str;
        return {};
      case Field::State:
        if (!value.isObject())
            return RampError{ErrorCode::InvalidInput,
                             "report_usage needs an object "
                             "'state'"};
        req.state = value;
        return {};
      case Field::Seq: {
        const auto s = value.asUint();
        if (!s)
            return RampError{ErrorCode::InvalidInput,
                             "request field 'seq' must be a "
                             "non-negative integer"};
        req.seq = *s;
        return {};
      }
      case Field::Key:
        if (!value.isString() || value.str.empty())
            return RampError{ErrorCode::InvalidInput,
                             "cache_append needs a non-empty string "
                             "'key'"};
        req.key = value.str;
        return {};
      case Field::Record:
        if (!value.isString() || value.str.empty())
            return RampError{ErrorCode::InvalidInput,
                             "cache_append needs a non-empty string "
                             "'record'"};
        req.record = value.str;
        return {};
      case Field::Epoch:
        // Sent by older peers, then ignored: the cache no longer
        // keeps a compaction epoch.
        if (!value.asUint())
            return RampError{ErrorCode::InvalidInput,
                             "cache_append needs a non-negative "
                             "integer 'epoch'"};
        return {};
      case Field::Apps: {
        if (!value.isArray() || value.array.empty())
            return RampError{ErrorCode::InvalidInput,
                             "select_chip needs a non-empty array "
                             "'apps' (one application per core)"};
        req.core_apps.clear();
        for (std::size_t i = 0; i < value.array.size(); ++i) {
            const JsonValue &name = value.array[i];
            if (!name.isString() || name.str.empty())
                return RampError{
                    ErrorCode::InvalidInput,
                    util::cat("select_chip 'apps[", i,
                              "]' must be a non-empty string")};
            req.core_apps.push_back(name.str);
        }
        return {};
      }
      case Field::Policy: {
        if (!value.isString())
            return RampError{ErrorCode::InvalidInput,
                             "request field 'policy' must be a "
                             "string"};
        const auto p = cmp::budgetPolicyFromName(value.str);
        if (!p)
            return RampError{
                ErrorCode::InvalidInput,
                util::cat("unknown budget policy '", value.str,
                          "' (per-core or global)")};
        req.budget_policy = *p;
        return {};
      }
      case Field::Floorplan: {
        // Validate the placement document here so a malformed
        // floorplan is a structured bad-request naming the offending
        // core ("request:cores[2]: ..."), not a later evaluation
        // failure.
        if (!value.isObject())
            return RampError{ErrorCode::InvalidInput,
                             "select_chip needs an object "
                             "'floorplan'"};
        auto plan = cmp::ChipFloorplan::tryParse(value, "request");
        if (!plan)
            return plan.error();
        req.floorplan = value;
        return {};
      }
    }
    util::panic("parseField: bad field id");
}

/** Append one table field's value to the wire object. */
void
encodeField(const FieldRule &rule, const Request &req,
            JsonValue &root)
{
    switch (rule.field) {
      case Field::App:
        root.set("app", JsonValue::makeString(req.app));
        return;
      case Field::Space:
        root.set("space", JsonValue::makeString(
                              drm::adaptationSpaceName(req.space)));
        return;
      case Field::Config:
        root.set("config", JsonValue::makeNumber(
                               static_cast<double>(req.config)));
        return;
      case Field::TQualK:
        root.set("t_qual_k", JsonValue::makeNumber(req.t_qual_k));
        return;
      case Field::TDesignK:
        root.set("t_design_k",
                 JsonValue::makeNumber(req.t_design_k));
        return;
      case Field::Surrogate:
      case Field::Epoch:
        return;
      case Field::MaxV:
        root.set("max_v", JsonValue::makeNumber(
                              static_cast<double>(req.max_v)));
        return;
      case Field::Chip:
        root.set("chip", JsonValue::makeString(req.chip));
        return;
      case Field::State:
        root.set("state", req.state);
        return;
      case Field::Seq:
        if (req.seq != 0)
            root.set("seq", JsonValue::makeNumber(
                                static_cast<double>(req.seq)));
        return;
      case Field::Key:
        root.set("key", JsonValue::makeString(req.key));
        return;
      case Field::Record:
        root.set("record", JsonValue::makeString(req.record));
        return;
      case Field::Apps: {
        JsonValue apps = JsonValue::makeArray();
        for (const auto &name : req.core_apps)
            apps.push(JsonValue::makeString(name));
        root.set("apps", std::move(apps));
        return;
      }
      case Field::Policy:
        root.set("policy",
                 JsonValue::makeString(
                     cmp::budgetPolicyName(req.budget_policy)));
        return;
      case Field::Floorplan:
        if (req.floorplan.isObject())
            root.set("floorplan", req.floorplan);
        return;
    }
    util::panic("encodeField: bad field id");
}

/** "id" (and, on versioned frames, "v") shared by both reply
 *  encoders. */
JsonValue
replyHead(std::uint64_t id, int version)
{
    JsonValue root = JsonValue::makeObject();
    root.set("id",
             JsonValue::makeNumber(static_cast<double>(id)));
    if (version > 0)
        root.set("v", JsonValue::makeNumber(
                          static_cast<double>(version)));
    return root;
}

} // namespace

const char *
requestTypeName(RequestType t)
{
    return type_names[static_cast<std::size_t>(t)];
}

std::optional<RequestType>
requestTypeFromName(std::string_view name)
{
    for (std::size_t i = 0; i < std::size(type_names); ++i)
        if (name == type_names[i])
            return static_cast<RequestType>(i);
    return std::nullopt;
}

int
requestTypeMinVersion(RequestType t)
{
    return ruleFor(t).min_version;
}

std::string
encodeRequest(const Request &req)
{
    JsonValue root = JsonValue::makeObject();
    root.set("id", JsonValue::makeNumber(
                       static_cast<double>(req.id)));
    if (req.version > 0)
        root.set("v", JsonValue::makeNumber(
                          static_cast<double>(req.version)));
    root.set("type",
             JsonValue::makeString(requestTypeName(req.type)));
    const TypeRule &rule = ruleFor(req.type);
    for (std::size_t i = 0; i < rule.num_fields; ++i)
        if (rule.fields[i].min_version <= req.version)
            encodeField(rule.fields[i], req, root);
    return util::writeJson(root);
}

Result<Request>
parseRequest(std::string_view payload)
{
    std::string err;
    const auto doc = util::parseJson(payload, &err);
    if (!doc)
        return RampError{ErrorCode::InvalidInput,
                         util::cat("request is not JSON: ", err)};
    if (!doc->isObject())
        return RampError{ErrorCode::InvalidInput,
                         "request must be a JSON object"};

    Request req;

    const JsonValue *id = doc->find("id");
    const auto id_value = id ? id->asUint() : std::nullopt;
    if (!id_value)
        return RampError{ErrorCode::InvalidInput,
                         "request needs a non-negative integer "
                         "'id'"};
    req.id = *id_value;

    if (const JsonValue *v = doc->find("v")) {
        const auto ver = v->asUint();
        if (!ver)
            return RampError{ErrorCode::InvalidInput,
                             "request field 'v' must be a "
                             "non-negative integer"};
        if (*ver > protocol_version_max)
            return RampError{
                ErrorCode::InvalidInput,
                util::cat("protocol version ", *ver,
                          " is newer than this server speaks (max ",
                          protocol_version_max,
                          "); send a hello to negotiate")};
        req.version = static_cast<int>(*ver);
    }

    const JsonValue *type = doc->find("type");
    if (!type || !type->isString())
        return RampError{ErrorCode::InvalidInput,
                         "request needs a string 'type'"};
    const auto t = requestTypeFromName(type->str);
    if (!t)
        return RampError{ErrorCode::InvalidInput,
                         util::cat("unknown request type '",
                                   type->str, "'")};
    req.type = *t;

    const TypeRule &rule = ruleFor(req.type);
    if (rule.min_version > req.version)
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("request type '", requestTypeName(req.type),
                      "' needs protocol v", rule.min_version,
                      " or newer (frame is v", req.version, ")")};

    // Reject fields that don't apply to the type (a client that
    // sends "config" on a select_drm believed it would be honoured)
    // or that are newer than the frame's declared version.
    for (const auto &[key, value] : doc->object) {
        (void)value;
        if (key == "id" || key == "type" || key == "v")
            continue;
        const FieldRule *f = findField(rule, key);
        if (!f)
            return RampError{
                ErrorCode::InvalidInput,
                util::cat("field '", key, "' does not apply to a ",
                          requestTypeName(req.type), " request")};
        if (f->min_version > req.version)
            return RampError{
                ErrorCode::InvalidInput,
                util::cat("field '", key, "' needs protocol v",
                          f->min_version, " or newer (frame is v",
                          req.version, ")")};
    }

    for (std::size_t i = 0; i < rule.num_fields; ++i) {
        const FieldRule &f = rule.fields[i];
        const JsonValue *value = doc->find(f.name);
        if (!value) {
            if (f.required)
                return RampError{
                    ErrorCode::InvalidInput,
                    util::cat(requestTypeName(req.type),
                              " needs required field '", f.name,
                              "'")};
            continue;
        }
        auto parsed = parseField(f, *value, req);
        if (!parsed)
            return parsed.error();
    }
    return req;
}

std::string
encodeResultReply(std::uint64_t id, JsonValue result, int version)
{
    JsonValue root = replyHead(id, version);
    root.set("ok", JsonValue::makeBool(true));
    root.set("result", std::move(result));
    return util::writeJson(root);
}

std::string
encodeErrorReply(std::uint64_t id, std::string_view code,
                 std::string_view message, int version)
{
    JsonValue error = JsonValue::makeObject();
    error.set("code", JsonValue::makeString(std::string(code)));
    error.set("message",
              JsonValue::makeString(std::string(message)));
    JsonValue root = replyHead(id, version);
    root.set("ok", JsonValue::makeBool(false));
    root.set("error", std::move(error));
    return util::writeJson(root);
}

std::string
encodeReply(std::uint64_t id, Result<JsonValue> result, int version)
{
    if (!result)
        return encodeErrorReply(id,
                                util::errorCodeName(result.error().code),
                                result.error().message, version);
    return encodeResultReply(id, std::move(result.value()), version);
}

std::string
encodeHelloReply(const Request &hello)
{
    // The negotiated version is min(client max, our max); the reply
    // carries our whole range so older clients can tell what they
    // are talking to.
    JsonValue result = JsonValue::makeObject();
    result.set("v_min", JsonValue::makeNumber(protocol_version_min));
    result.set("v_max", JsonValue::makeNumber(protocol_version_max));
    result.set("negotiated_v",
               JsonValue::makeNumber(
                   std::min(hello.max_v, protocol_version_max)));
    return encodeResultReply(hello.id, std::move(result),
                             hello.version);
}

Result<Reply>
parseReply(std::string_view payload)
{
    std::string err;
    const auto doc = util::parseJson(payload, &err);
    if (!doc || !doc->isObject())
        return RampError{ErrorCode::InvalidInput,
                         util::cat("reply is not a JSON object: ",
                                   err)};
    Reply reply;
    const JsonValue *id = doc->find("id");
    const auto id_value = id ? id->asUint() : std::nullopt;
    const JsonValue *ok = doc->find("ok");
    if (!id_value || !ok || !ok->isBool())
        return RampError{ErrorCode::InvalidInput,
                         "reply needs numeric 'id' and boolean "
                         "'ok'"};
    reply.id = *id_value;
    reply.ok = ok->boolean;
    if (const JsonValue *v = doc->find("v")) {
        const auto ver = v->asUint();
        if (!ver)
            return RampError{ErrorCode::InvalidInput,
                             "reply field 'v' must be a "
                             "non-negative integer"};
        reply.version =
            static_cast<int>(std::min<std::uint64_t>(*ver, 1'000'000));
    }
    if (reply.ok) {
        const JsonValue *result = doc->find("result");
        if (!result)
            return RampError{ErrorCode::InvalidInput,
                             "ok reply is missing 'result'"};
        reply.result = *result;
    } else {
        const JsonValue *error = doc->find("error");
        if (!error || !error->isObject())
            return RampError{ErrorCode::InvalidInput,
                             "error reply is missing 'error'"};
        const JsonValue *code = error->find("code");
        const JsonValue *message = error->find("message");
        if (!code || !code->isString() || !message ||
            !message->isString())
            return RampError{ErrorCode::InvalidInput,
                             "error reply needs string "
                             "'code'/'message'"};
        reply.error_code = code->str;
        reply.error_message = message->str;
    }
    return reply;
}

util::ErrorCode
replyErrorCode(std::string_view code)
{
    if (code == err_overloaded)
        return ErrorCode::Overloaded;
    if (code == err_shutting_down)
        return ErrorCode::Unavailable;
    if (code == err_no_backend)
        return ErrorCode::Unavailable;
    for (ErrorCode c :
         {ErrorCode::SingularSystem, ErrorCode::NonFiniteValue,
          ErrorCode::NonConvergence, ErrorCode::InvalidInput,
          ErrorCode::CorruptRecord, ErrorCode::IoFailure,
          ErrorCode::LockContention, ErrorCode::Timeout,
          ErrorCode::Overloaded, ErrorCode::Unavailable})
        if (code == util::errorCodeName(c))
            return c;
    return ErrorCode::InvalidInput;
}

} // namespace serve
} // namespace ramp
