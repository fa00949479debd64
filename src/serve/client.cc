#include "serve/client.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace ramp {
namespace serve {

using util::ErrorCode;
using util::JsonValue;
using util::RampError;
using util::Result;

Result<Client>
Client::connect(ClientOptions opts)
{
    auto sock = util::connectTcp(opts.port, opts.connect_timeout_ms);
    if (!sock)
        return sock.error();
    return Client(std::move(sock.value()), opts);
}

Result<std::uint64_t>
Client::sendRequest(Request req)
{
    req.id = next_id_++;
    auto written =
        util::writeFrame(sock_, encodeRequest(req),
                         opts_.max_frame_bytes, opts_.io_timeout_ms);
    if (!written)
        return written.error();
    return req.id;
}

Result<Reply>
Client::receiveReply()
{
    auto frame = util::readFrame(sock_, opts_.max_frame_bytes,
                                 opts_.io_timeout_ms);
    if (!frame)
        return frame.error();
    if (!frame.value().has_value())
        return RampError{ErrorCode::IoFailure,
                         "server closed the connection before "
                         "replying"};
    return parseReply(*frame.value());
}

Result<Reply>
Client::call(Request req)
{
    auto id = sendRequest(std::move(req));
    if (!id)
        return id.error();
    auto reply = receiveReply();
    if (!reply)
        return reply.error();
    if (reply.value().id != id.value())
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("reply id ", reply.value().id,
                      " does not match request id ", id.value(),
                      " (pipelined replies need receiveReply())")};
    return reply;
}

Result<JsonValue>
Client::unwrap(Result<Reply> reply)
{
    if (!reply)
        return reply.error();
    if (reply.value().ok)
        return std::move(reply.value().result);
    const ErrorCode code = replyErrorCode(reply.value().error_code);
    // Keep the wire code in the message only when the mapping is
    // lossy (e.g. "bad-request" -> InvalidInput), so str() does not
    // print the same code twice.
    std::string message = reply.value().error_message;
    if (reply.value().error_code != util::errorCodeName(code))
        message = util::cat(reply.value().error_code, ": ", message);
    return RampError{code, std::move(message)};
}

Result<Session>
Session::open(ClientOptions opts, int max_v)
{
    auto client = Client::connect(opts);
    if (!client)
        return client.error();

    Request hello;
    hello.type = RequestType::Hello;
    hello.version = 1;
    hello.max_v = std::min(max_v, protocol_version_max);
    auto reply = client.value().call(std::move(hello));
    if (!reply)
        return reply.error();
    if (!reply.value().ok) {
        // A server that does not know "hello" is a pre-versioning
        // daemon: degrade to the legacy wire shape rather than
        // failing the connection.
        if (reply.value().error_code == err_bad_request)
            return Session(std::move(client.value()), 0);
        return Client::unwrap(std::move(reply)).error();
    }
    const JsonValue *negotiated =
        reply.value().result.find("negotiated_v");
    const auto version =
        negotiated ? negotiated->asUint() : std::nullopt;
    if (!version)
        return RampError{ErrorCode::InvalidInput,
                         "hello reply is missing 'negotiated_v'"};
    return Session(std::move(client.value()),
                   static_cast<int>(std::min<std::uint64_t>(
                       *version, protocol_version_max)));
}

Result<void>
Session::needVersion(int v, const char *verb) const
{
    if (version_ >= v)
        return {};
    return RampError{
        ErrorCode::InvalidInput,
        util::cat(verb, " needs protocol v", v,
                  " but the session negotiated v", version_)};
}

Result<JsonValue>
Session::callUnwrap(Request req)
{
    req.version = version_;
    return Client::unwrap(client_.call(std::move(req)));
}

Result<JsonValue>
Session::evaluate(const std::string &app,
                  drm::AdaptationSpace space, std::size_t config,
                  double t_qual_k)
{
    Request req;
    req.type = RequestType::Evaluate;
    req.app = app;
    req.space = space;
    req.config = config;
    req.t_qual_k = t_qual_k;
    return callUnwrap(std::move(req));
}

Result<JsonValue>
Session::selectDrm(const std::string &app,
                   drm::AdaptationSpace space, double t_qual_k)
{
    Request req;
    req.type = RequestType::SelectDrm;
    req.app = app;
    req.space = space;
    req.t_qual_k = t_qual_k;
    return callUnwrap(std::move(req));
}

Result<JsonValue>
Session::selectDtm(const std::string &app,
                   drm::AdaptationSpace space, double t_design_k,
                   double t_qual_k)
{
    Request req;
    req.type = RequestType::SelectDtm;
    req.app = app;
    req.space = space;
    req.t_design_k = t_design_k;
    req.t_qual_k = t_qual_k;
    return callUnwrap(std::move(req));
}

Result<JsonValue>
Session::stats()
{
    Request req;
    req.type = RequestType::Stats;
    return callUnwrap(std::move(req));
}

Result<JsonValue>
Session::requestShutdown()
{
    Request req;
    req.type = RequestType::Shutdown;
    return callUnwrap(std::move(req));
}

Result<JsonValue>
Session::reportUsage(const std::string &chip, JsonValue state,
                     std::uint64_t seq)
{
    if (auto ok = needVersion(2, "report_usage"); !ok)
        return ok.error();
    Request req;
    req.type = RequestType::ReportUsage;
    req.chip = chip;
    req.state = std::move(state);
    req.seq = seq;
    return callUnwrap(std::move(req));
}

Result<JsonValue>
Session::remainingLifetime(const std::string &chip,
                           const std::string &app,
                           drm::AdaptationSpace space,
                           double t_qual_k)
{
    if (auto ok = needVersion(2, "remaining_lifetime"); !ok)
        return ok.error();
    Request req;
    req.type = RequestType::RemainingLifetime;
    req.chip = chip;
    req.app = app;
    req.space = space;
    req.t_qual_k = t_qual_k;
    return callUnwrap(std::move(req));
}

Result<JsonValue>
Session::selectChip(const std::vector<std::string> &apps,
                    drm::AdaptationSpace space,
                    cmp::BudgetPolicy policy, double t_qual_k,
                    JsonValue floorplan)
{
    if (auto ok = needVersion(3, "select_chip"); !ok)
        return ok.error();
    Request req;
    req.type = RequestType::SelectChip;
    req.core_apps = apps;
    req.space = space;
    req.budget_policy = policy;
    req.t_qual_k = t_qual_k;
    req.floorplan = std::move(floorplan);
    return callUnwrap(std::move(req));
}

} // namespace serve
} // namespace ramp
