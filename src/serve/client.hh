/**
 * @file
 * Client library for the RAMP evaluation service.
 *
 * A Client owns one connection to a ramp_served daemon. The simple
 * surface is call(): send one request, wait for its reply. The
 * pipelined surface is send()/receive(): queue several requests and
 * collect replies as they complete (the server answers in completion
 * order, correlated by id) -- that is what bench_serve uses to keep N
 * requests in flight per connection.
 *
 * Error replies become RampErrors via replyErrorCode(), so a caller
 * distinguishes "overloaded" (back off and retry) from "shutting-
 * down" (go away) from evaluation failures (non-convergence and
 * friends travel the wire structurally).
 *
 * Client is the raw-frame surface: it sends whatever Request it is
 * given (v0 unless the caller stamps a version) and hands back the
 * decoded Reply; unwrap() turns that into value-or-error. Session is
 * the one typed surface: open() negotiates the protocol version once
 * with a hello (falling back to v0 against a server that predates
 * hello), then every typed call is sent at the negotiated version --
 * at v0 the same bytes a hand-built v0 Request produces.
 * The v2 fleet verbs -- reportUsage() and remainingLifetime() --
 * refuse locally with InvalidInput when the negotiated version is
 * too old, so a client never sends a frame the server will reject.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "util/net.hh"

namespace ramp {
namespace serve {

/** Connection knobs. */
struct ClientOptions
{
    std::uint16_t port = 0;    ///< ramp_served's port.
    int connect_timeout_ms = 2'000;
    /** Deadline for one send or one reply wait. Slow-connection
     *  fault tests shrink this to force the timeout path. */
    int io_timeout_ms = 30'000;
    std::size_t max_frame_bytes = default_max_frame;
};

/** One connection to the evaluation daemon. Move-only. */
class Client
{
  public:
    /** Connect to 127.0.0.1:opts.port. */
    [[nodiscard]] static util::Result<Client> connect(ClientOptions opts);

    Client(Client &&) = default;
    Client &operator=(Client &&) = default;

    /**
     * Send @p req (its id is overwritten with a fresh one) and wait
     * for the matching reply. Transport failures (timeout, torn
     * stream) are RampErrors; an error *reply* is returned as a
     * Reply with ok == false, so callers see the server's code.
     */
    [[nodiscard]] util::Result<Reply> call(Request req);

    /** Pipelining: send without waiting. Assigns and returns the
     *  request id the reply will echo. */
    [[nodiscard]] util::Result<std::uint64_t> sendRequest(Request req);

    /** Pipelining: block for the next reply, whatever its id. */
    [[nodiscard]] util::Result<Reply> receiveReply();

    /** Turn a call() outcome into value-or-error: transport errors
     *  pass through, and error replies become RampErrors with
     *  replyErrorCode(). */
    [[nodiscard]] static util::Result<util::JsonValue>
    unwrap(util::Result<Reply> reply);

  private:
    Client(util::Socket sock, ClientOptions opts)
        : sock_(std::move(sock)), opts_(opts)
    {
    }

    util::Socket sock_;
    ClientOptions opts_;
    std::uint64_t next_id_ = 1;
};

/**
 * A version-negotiated connection. Move-only; owns its Client.
 * Every typed call stamps the negotiated version on the request and
 * unwraps the reply, so callers work with result objects and
 * RampErrors, never raw frames.
 */
class Session
{
  public:
    /**
     * Connect and negotiate: send a v1 hello advertising
     * min(max_v, protocol_version_max). A server that rejects the
     * hello as a bad request is a pre-versioning v0 daemon; the
     * session degrades to version 0 instead of failing, so one
     * client binary works against any server generation. Transport
     * failures are returned as errors.
     */
    [[nodiscard]] static util::Result<Session>
    open(ClientOptions opts, int max_v = protocol_version_max);

    /** The negotiated protocol version (0 against a v0 server). */
    int version() const { return version_; }

    /** evaluate at the negotiated version. */
    [[nodiscard]] util::Result<util::JsonValue>
    evaluate(const std::string &app, drm::AdaptationSpace space,
             std::size_t config, double t_qual_k = 345.0);

    /** select_drm at the negotiated version. */
    [[nodiscard]] util::Result<util::JsonValue>
    selectDrm(const std::string &app, drm::AdaptationSpace space,
              double t_qual_k = 345.0);

    /** select_dtm at the negotiated version. */
    [[nodiscard]] util::Result<util::JsonValue>
    selectDtm(const std::string &app, drm::AdaptationSpace space,
              double t_design_k = 370.0, double t_qual_k = 345.0);

    /** stats at the negotiated version. */
    [[nodiscard]] util::Result<util::JsonValue> stats();

    /** Ask the server to begin its graceful drain; the result is
     *  {"draining":true}. */
    [[nodiscard]] util::Result<util::JsonValue> requestShutdown();

    /**
     * v2: merge an AgingState delta document into the server's
     * registry for @p chip. Returns the chip's post-merge summary.
     * InvalidInput when the negotiated version is below 2. A
     * non-zero @p seq makes the merge idempotent (the server skips
     * deltas whose seq it already applied), so a caller that retries
     * after a lost reply sends the same seq and cannot double-count.
     */
    [[nodiscard]] util::Result<util::JsonValue>
    reportUsage(const std::string &chip, util::JsonValue state,
                std::uint64_t seq = 0);

    /**
     * v2: the chip's consumed lifetime, banked slack, the
     * slack-banking selection for @p app over @p space, and the ETA
     * until the FIT budget is spent. InvalidInput below v2.
     */
    [[nodiscard]] util::Result<util::JsonValue> remainingLifetime(
        const std::string &chip, const std::string &app,
        drm::AdaptationSpace space, double t_qual_k = 345.0);

    /**
     * v3: chip-level DRM selection for one application per core
     * under one chip-wide FIT budget (cmp::selectChipDrm). A
     * Null @p floorplan selects the built-in grid for apps.size()
     * cores; an object must be a valid cmp::ChipFloorplan document.
     * InvalidInput when the negotiated version is below 3.
     */
    [[nodiscard]] util::Result<util::JsonValue> selectChip(
        const std::vector<std::string> &apps,
        drm::AdaptationSpace space,
        cmp::BudgetPolicy policy = cmp::BudgetPolicy::Global,
        double t_qual_k = 345.0,
        util::JsonValue floorplan = util::JsonValue::makeNull());

  private:
    Session(Client client, int version)
        : client_(std::move(client)), version_(version)
    {
    }

    /** Guard for the v2-only verbs. */
    [[nodiscard]] util::Result<void> needVersion(int v, const char *verb) const;

    /** Stamp the negotiated version, call, unwrap. */
    [[nodiscard]] util::Result<util::JsonValue> callUnwrap(Request req);

    Client client_;
    int version_ = 0;
};

} // namespace serve
} // namespace ramp
