/// \file protocol.hpp
/// \brief Frame layout, message-type tags and the error status mapping of
///        the BlobSeer wire protocol.
///
/// Frame layout (DESIGN.md §7.1), fixed 40-byte header + payload:
///
///   offset  size  field
///   0       4     magic 0x42535250 ("BSRP" little-endian)
///   4       1     wire version (kWireVersion)
///   5       1     kind: 0 = request, 1 = response
///   6       2     message type tag (MsgType)
///   8       4     request: destination node id / response: status code
///   12      4     payload length in bytes
///   16      8     correlation id (response echoes its request's)
///   24      8     trace id (0 = untraced)
///   32      4     span id of the carrying RPC
///   36      1     trace flags (bit 0: sampled)
///   37      3     reserved, zero
///   40      ...   payload (message codec, see messages.hpp)
///
/// The correlation id is what lets one connection carry many in-flight
/// requests with out-of-order responses (protocol v3): a multiplexing
/// transport stamps each outgoing request with a per-connection unique
/// id, the dispatcher echoes it into the response, and the transport's
/// reader matches responses back to their futures by id. Transports
/// that dispatch inline (SimTransport) may leave it 0 everywhere.
///
/// The trace context (protocol v7, DESIGN.md §13) follows the same
/// stamped-after-seal pattern: ServiceClient writes the calling thread's
/// trace id + a fresh span id into each outgoing request, the dispatcher
/// installs them around the handler so nested RPCs inherit the trace,
/// and responses echo the request's context back for symmetry. All-zero
/// means untraced and costs nothing beyond the header bytes.
///
/// The destination node id travels *in the frame* so that a single
/// listening endpoint (the all-in-one blobseer_serverd daemon) can host
/// many logical nodes and route internally; transports that connect
/// per-node simply ignore it. Responses replace the node field with a
/// Status: non-OK responses carry a UTF-8 error string as payload, which
/// the client maps back onto the exception hierarchy of common/error.hpp.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "rpc/wire.hpp"

namespace blobseer::rpc {

inline constexpr std::uint32_t kFrameMagic = 0x42535250;  // "PRSB" LE
/// v2: Topology gained a trailing uid_epoch u64 (incompatible payload
/// change — cross-version peers get a clean version-mismatch error
/// instead of a mid-field decode failure).
/// v3: the header grew an 8-byte request-correlation id (multiplexed
/// transports match out-of-order responses by it).
/// v4: the version-manager layer is sharded — Topology advertises a
/// vm_nodes list instead of a single vm_node, and the version-manager
/// block gained tag 28 (cross-shard clone; retired in v14) and kVmStatus
/// (per-shard observability; retired in v10).
/// v5: content-addressed storage — ChunkKey carries a kind byte (uid vs
/// SHA-256-derived content key), meta-node leaves a flags byte plus the
/// digest's high half, Topology a content_addressed flag, and the data
/// provider block gained kChunkCheck (check-before-push dedup),
/// streaming kChunkPushStart/Some/End (retired in v15), ranged
/// kChunkPullStart/Some (retired in v12), kChunkDecref (refcounted GC) and kDedupStatus
/// (retired in v9).
/// v6: active membership — the provider manager block gained
/// kProviderJoin / kProviderAnnounce / kProviderBeat (external provider
/// daemons register, advertise their endpoint + inventory and heartbeat
/// with incremental inventory deltas), kReportFailure (clients report
/// suspected deaths for corroboration) and kRepairStatus (repair-queue
/// observability; retired in v10); Topology advertises provider
/// endpoints after the content_addressed flag so remote clients can dial
/// providers directly.
/// v7: observability — the header grew a 16-byte trace context (trace
/// id, span id, sampled flag, reserved bytes; offsets 24-39) so one
/// client operation can be followed across every nested RPC, and the
/// control block gained kMetricsDump (full metrics-registry snapshot
/// from any node) and kTraceDump (drain the node's span ring).
/// v8: batched metadata writes — kMetaPutBatch (a varint count, then
/// that many (key, node) records) replaces the single-node kMetaPut, so
/// a writer stores a version's whole tree with one request per owning
/// metadata provider. Tag 48 (kMetaPut) is reserved and rejected.
/// v9: one status surface — kDedupStatus is retired; its every field is
/// a data provider's dedup_* / cas_* / provider_* series, which
/// kMetricsDump already serves. Tag 11 is reserved and rejected.
/// v10: kVmStatus and kRepairStatus are retired the same way — the
/// per-shard vm_* series (vm_blobs included), the repair_* series and
/// the per-provider pm_provider_* rows carry every field they did. Tags
/// 29 and 70 are reserved and rejected.
/// v11: batched chunk reads — kChunkGetBatch (a varint count, then
/// (key, offset, size) records; the reply carries a status per key and
/// every served slice as its own zero-copy tail, capped at
/// kChunkBatchReplyCap payload bytes) replaces the single-chunk kChunkGet,
/// so a read sends one request per provider it reads from and per reply
/// cap. kMarkDead is retired with it: it let any client declare a
/// provider dead without the corroboration kReportFailure applies. Tags
/// 2 and 65 are reserved and rejected.
/// v12: one message table (BLOBSEER_MESSAGES) declares every message,
/// and four tags that repeated another's job leave it: kChunkErase (it
/// deleted a chunk whatever its refcount, round the kChunkDecref every
/// GC path uses), kChunkPullStart/Some (a streamed pull is a loop of
/// one-key ranged kChunkGetBatch reads; the first reply carries the
/// chunk size) and kMetaGet (kMetaTryGet, with the miss thrown on the
/// client). Tags 3, 8, 9 and 49 are reserved and rejected.
/// v13: the assign reply carries, after the concurrent descriptors, a
/// varint count of border refs — (range first, range count, blob,
/// version) u64 records naming the node behind each border range of the
/// writer's new tree — so a writer reads no base-tree nodes unless a
/// border lies in a clone origin's tree. No tag changed.
/// v14: one clone protocol — every clone is a kBlobClone on its source's
/// shard, so tag 28 (blob-clone-from, the last step of a client-driven
/// get-version + pin + clone across shards) is retired, and the assign
/// reply drops the concurrent descriptors the border refs made
/// redundant. Tag 28 is reserved and rejected.
/// v15: one chunk upload path — every replica of every chunk, content
/// keys included, is one kChunkPut (the provider recomputes a content
/// key's SHA-256 on every put), so the streamed push kChunkPushStart/
/// Some/End is retired and chunk size is bounded by kMaxChunkBytes at
/// blob creation. Tags 5, 6 and 7 are reserved and rejected.
inline constexpr std::uint8_t kWireVersion = 15;
inline constexpr std::size_t kFrameHeaderSize = 40;
/// Byte offset of the message-type tag (u16) within the header.
inline constexpr std::size_t kFrameTypeOffset = 6;
/// Byte offset of the payload length (u32) within the header.
inline constexpr std::size_t kFrameLenOffset = 12;
/// Byte offset of the correlation id within the header.
inline constexpr std::size_t kFrameCorrOffset = 16;
/// Byte offset of the trace context (trace id u64, span id u32, flags
/// u8, 3 reserved) within the header.
inline constexpr std::size_t kFrameTraceOffset = 24;

/// Upper bound on a frame payload; anything larger is a corrupt or
/// hostile frame and is rejected before its length is trusted for an
/// allocation. The largest legitimate payload is one chunk (a kChunkPut,
/// or the one key a kChunkGetBatch reply always serves) plus its
/// encoding bytes.
inline constexpr std::uint32_t kMaxPayload = 256u << 20;

/// Largest chunk size a blob may be created with
/// (VersionManager::create_blob rejects more). Every chunk moves in one
/// frame, so the bound is what keeps a write or a read of any chunk
/// inside kMaxPayload.
inline constexpr std::uint64_t kMaxChunkBytes = 128u << 20;
/// A kChunkPut body is the key (kind byte, two u64 words) and the
/// payload as a length-prefixed byte string (varint length, <= 10
/// bytes); a one-key kChunkGetBatch reply is the varint key count, one
/// (status u8, chunk_size u64, length varint) entry and the slice.
static_assert(1 + 8 + 8 + 10 + kMaxChunkBytes <= kMaxPayload,
              "a kChunkPut of the largest chunk must fit one frame");
static_assert(1 + (1 + 8 + 10) + kMaxChunkBytes <= kMaxPayload,
              "a one-key kChunkGetBatch reply of the largest chunk must "
              "fit one frame");

/// Payload bytes one kChunkGetBatch reply serves at most. The handler
/// stops at the first key that would cross it (the first key is always
/// served) and marks the rest "not served" for the client to re-issue,
/// so one batch can neither pin unbounded store memory nor hold a
/// worker for long.
inline constexpr std::uint64_t kChunkBatchReplyCap = 1u << 20;

/// Destination pseudo-node for control-plane requests (kTopology). Not a
/// real cluster node: transports route it to the deployment's dispatcher
/// without charging any per-node wire cost.
inline constexpr NodeId kControlNode = 0xfffffffeu;

/// The message table (DESIGN.md §7.2): one row per live message and the
/// only place a message is declared. Columns:
///   tag      wire ABI (u16): appended within its service block, never
///            renumbered, never reused once retired
///   name     the MsgType enumerator
///   wire     the op name of to_string, metrics labels and trace spans
///   service  where Dispatcher::handle routes it: kData (data provider),
///            kVersionManager, kMeta (metadata provider),
///            kProviderManager, or kControl (introspection that stays
///            reachable on a node the fault gate calls down)
///   run      where a server runs its handler (Dispatcher::dispatch_class,
///            DESIGN.md §15.1): kLoop for bounded in-memory work plus
///            page-cache appends (a journal record, a log record per
///            metadata node; no fsync, no sleep, no nested RPC); kPool for
///            chunk payloads, the file cache and engine reads, membership
///            and inventory, history and retire (their cost grows with
///            history), metrics and trace dumps; kOwnThread for a handler
///            that blocks by design (until publication or its timeout);
///            kMetaLoop for the metadata families — the loop unless a
///            registered metadata provider is gated, since its gate sleeps
/// Expanded here (MsgType, to_string) and in dispatcher.cpp
/// (dispatch_class, the routing switch).
#define BLOBSEER_MESSAGES(X)                                              \
    X(1, kChunkPut, "chunk-put", kData, kPool)                            \
    X(4, kChunkCheck, "chunk-check", kData, kPool)                        \
    X(10, kChunkDecref, "chunk-decref", kData, kPool)                     \
    X(12, kChunkGetBatch, "chunk-get-batch", kData, kPool)                \
    X(16, kBlobCreate, "blob-create", kVersionManager, kLoop)             \
    X(17, kBlobClone, "blob-clone", kVersionManager, kLoop)               \
    X(18, kBlobInfo, "blob-info", kVersionManager, kLoop)                 \
    X(19, kAssign, "assign", kVersionManager, kLoop)                      \
    X(20, kCommit, "commit", kVersionManager, kLoop)                      \
    X(21, kGetVersion, "get-version", kVersionManager, kLoop)             \
    X(22, kWaitPublished, "wait-published", kVersionManager, kOwnThread)  \
    X(23, kHistory, "history", kVersionManager, kPool)                    \
    X(24, kPin, "pin", kVersionManager, kLoop)                            \
    X(25, kUnpin, "unpin", kVersionManager, kLoop)                        \
    X(26, kRetire, "retire", kVersionManager, kPool)                      \
    X(27, kDescriptorOf, "descriptor-of", kVersionManager, kLoop)         \
    X(50, kMetaTryGet, "meta-try-get", kMeta, kMetaLoop)                  \
    X(51, kMetaErase, "meta-erase", kMeta, kMetaLoop)                     \
    X(52, kMetaPutBatch, "meta-put-batch", kMeta, kMetaLoop)              \
    X(64, kPlace, "place", kProviderManager, kLoop)                       \
    X(66, kProviderJoin, "provider-join", kProviderManager, kPool)        \
    X(67, kProviderAnnounce, "provider-announce", kProviderManager, kPool) \
    X(68, kProviderBeat, "provider-beat", kProviderManager, kPool)        \
    X(69, kReportFailure, "report-failure", kProviderManager, kPool)      \
    X(80, kTopology, "topology", kControl, kLoop)                         \
    X(81, kMetricsDump, "metrics-dump", kControl, kPool)                  \
    X(82, kTraceDump, "trace-dump", kControl, kPool)

/// A tag that left the table. It stays reserved: a frame carrying it is
/// an unknown message, rejected with kRpcError.
struct RetiredTag {
    std::uint16_t tag;
    std::uint8_t wire_version;  ///< the version that retired it
};

inline constexpr RetiredTag kRetiredTags[] = {
    {2, 11},   // chunk-get: a kChunkGetBatch of one
    {3, 12},   // chunk-erase: deleted whatever the refcount; GC decrefs
    {5, 15},   // chunk-push-start: every chunk is one kChunkPut
    {6, 15},   // chunk-push-some: likewise
    {7, 15},   // chunk-push-end: kChunkPut verifies content keys itself
    {8, 12},   // chunk-pull-start: a kChunkGetBatch reply carries the size
    {9, 12},   // chunk-pull-some: a ranged one-key kChunkGetBatch
    {11, 9},   // dedup-status: served by kMetricsDump
    {28, 14},  // blob-clone-from: kBlobClone on the source's shard
    {29, 10},  // vm-status: served by kMetricsDump
    {48, 8},   // meta-put: a kMetaPutBatch of one
    {49, 12},  // meta-get: kMetaTryGet, the miss thrown client-side
    {65, 11},  // mark-dead: uncorroborated; kReportFailure replaces it
    {70, 10},  // repair-status: served by kMetricsDump
};

/// Every request/response type in the protocol (rows of BLOBSEER_MESSAGES).
enum class MsgType : std::uint16_t {
#define BLOBSEER_ENUMERATOR(tag, name, wire, service, run) name = tag,
    BLOBSEER_MESSAGES(BLOBSEER_ENUMERATOR)
#undef BLOBSEER_ENUMERATOR
};

static_assert(
    [] {
        for (const auto live : {
#define BLOBSEER_TAG(tag, name, wire, service, run) tag,
                 BLOBSEER_MESSAGES(BLOBSEER_TAG)
#undef BLOBSEER_TAG
             }) {
            for (const RetiredTag& r : kRetiredTags) {
                if (r.tag == live) {
                    return false;
                }
            }
        }
        return true;
    }(),
    "a live message reuses a retired tag");

/// The wire name of \p t; "?" for a tag the table does not list.
[[nodiscard]] inline const char* to_string(MsgType t) noexcept {
    switch (t) {
#define BLOBSEER_WIRE_NAME(tag, name, wire, service, run) \
    case MsgType::name:                                    \
        return wire;
        BLOBSEER_MESSAGES(BLOBSEER_WIRE_NAME)
#undef BLOBSEER_WIRE_NAME
    }
    return "?";
}

/// Wire status of a response. Mirrors the exception hierarchy in
/// common/error.hpp so a server-side throw resurfaces client-side as the
/// same type.
enum class Status : std::uint32_t {
    kOk = 0,
    kRpcError = 1,
    kTimeout = 2,
    kNotFound = 3,
    kConsistency = 4,
    kInvalidArgument = 5,
    kVersionAborted = 6,
    kVersionRetired = 7,
    kError = 8,  ///< any other server-side failure
};

/// Re-throw a non-OK response status as the matching exception.
[[noreturn]] inline void throw_status(Status s, const std::string& what) {
    switch (s) {
        case Status::kOk: break;  // not an error; fall through to throw
        case Status::kRpcError: throw RpcError(what);
        case Status::kTimeout: throw TimeoutError(what);
        case Status::kNotFound: throw NotFoundError(what);
        case Status::kConsistency: throw ConsistencyError(what);
        case Status::kInvalidArgument: throw InvalidArgument(what);
        case Status::kVersionAborted: throw VersionAborted(what);
        case Status::kVersionRetired: throw VersionRetired(what);
        case Status::kError: throw Error(what);
    }
    throw RpcError("protocol: throw_status on OK response");
}

/// Parsed view of one frame; payload borrows the frame buffer.
struct FrameView {
    MsgType type{};  // tag 0: no message (an unparsed frame)
    bool response = false;
    /// Request: destination node id. Response: Status.
    std::uint32_t dst_or_status = 0;
    /// Request-correlation id (0 on non-multiplexed paths).
    std::uint64_t corr = 0;
    /// Trace context (all zero when the operation is untraced).
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;
    std::uint8_t trace_flags = 0;
    ConstBytes payload;

    [[nodiscard]] NodeId dst() const noexcept { return dst_or_status; }
    [[nodiscard]] Status status() const noexcept {
        return static_cast<Status>(dst_or_status);
    }
};

/// Validate and parse a whole frame (header + payload in one buffer).
[[nodiscard]] inline FrameView parse_frame(ConstBytes frame) {
    WireReader r(frame);
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame decode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    if (r.u32() != kFrameMagic) {
        throw RpcError("frame decode: bad magic");
    }
    if (const std::uint8_t v = r.u8(); v != kWireVersion) {
        throw RpcError("frame decode: unsupported wire version " +
                       std::to_string(v));
    }
    const std::uint8_t kind = r.u8();
    if (kind > 1) {
        throw RpcError("frame decode: bad frame kind");
    }
    FrameView out;
    out.response = kind == 1;
    out.type = static_cast<MsgType>(r.u16());
    out.dst_or_status = r.u32();
    const std::uint32_t len = r.u32();
    out.corr = r.u64();
    out.trace_id = r.u64();
    out.span_id = r.u32();
    out.trace_flags = r.u8();
    (void)r.u8();  // 3 reserved bytes
    (void)r.u8();
    (void)r.u8();
    if (len > kMaxPayload) {
        throw RpcError("frame decode: payload length " + std::to_string(len) +
                       " exceeds limit");
    }
    if (len != r.remaining()) {
        throw RpcError("frame decode: payload length mismatch (header says " +
                       std::to_string(len) + ", frame carries " +
                       std::to_string(r.remaining()) + ")");
    }
    out.payload = frame.subspan(kFrameHeaderSize, len);
    return out;
}

namespace detail {

[[nodiscard]] inline Buffer seal(MsgType type, bool response,
                                 std::uint32_t dst_or_status,
                                 WireWriter&& payload,
                                 std::size_t tail_bytes = 0) {
    Buffer body = payload.take();
    if (body.size() + tail_bytes > kMaxPayload) {
        // Fail at the sender with a clear error — a receiver would just
        // drop the connection, and a >4 GiB body would silently
        // truncate in the header's 32-bit length field.
        throw InvalidArgument(
            std::string("rpc payload of ") +
            std::to_string(body.size() + tail_bytes) +
            " bytes exceeds the frame limit (" + to_string(type) + ")");
    }
    const std::uint32_t len =
        static_cast<std::uint32_t>(body.size() + tail_bytes);
    // Prepend the header in place — one memmove into the writer's spare
    // capacity instead of allocating and copying a second buffer (this
    // sits on the per-RPC hot path of both client and server).
    body.insert(body.begin(), kFrameHeaderSize, 0);
    std::uint8_t* h = body.data();
    std::memcpy(h, &kFrameMagic, 4);  // LE store, as WireWriter's fixed()
    h[4] = kWireVersion;
    h[5] = response ? 1 : 0;
    const std::uint16_t tag = static_cast<std::uint16_t>(type);
    std::memcpy(h + kFrameTypeOffset, &tag, 2);
    std::memcpy(h + 8, &dst_or_status, 4);
    std::memcpy(h + kFrameLenOffset, &len, 4);
    // Bytes 16..40 stay zero: the correlation id and trace context are
    // stamped later by set_frame_corr / set_frame_trace.
    return body;
}

}  // namespace detail

/// Read the correlation id straight out of a sealed frame.
[[nodiscard]] inline std::uint64_t frame_corr(ConstBytes frame) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame decode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    std::uint64_t corr = 0;
    std::memcpy(&corr, frame.data() + kFrameCorrOffset, sizeof corr);
    return corr;
}

/// Read the message-type tag straight out of a sealed frame (the TCP
/// server routes on it before any full parse).
[[nodiscard]] inline MsgType frame_type(ConstBytes frame) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame decode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    std::uint16_t tag = 0;
    std::memcpy(&tag, frame.data() + kFrameTypeOffset, sizeof tag);
    return static_cast<MsgType>(tag);
}

/// Stamp \p corr into a sealed frame (request at send time, response at
/// dispatch time).
inline void set_frame_corr(MutableBytes frame, std::uint64_t corr) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame encode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    std::memcpy(frame.data() + kFrameCorrOffset, &corr, sizeof corr);
}

/// Read the trace context out of a sealed frame without a full parse
/// (the tracing hot path touches only these 13 bytes).
[[nodiscard]] inline trace::TraceContext frame_trace(ConstBytes frame) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame decode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    trace::TraceContext ctx;
    std::memcpy(&ctx.trace_id, frame.data() + kFrameTraceOffset, 8);
    std::memcpy(&ctx.span_id, frame.data() + kFrameTraceOffset + 8, 4);
    ctx.flags = frame[kFrameTraceOffset + 12];
    return ctx;
}

/// Stamp a trace context into a sealed frame (requests at send time,
/// responses at dispatch time). Reserved bytes stay zero from seal.
inline void set_frame_trace(MutableBytes frame,
                            const trace::TraceContext& ctx) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("frame encode: short frame (" +
                       std::to_string(frame.size()) + " bytes)");
    }
    std::memcpy(frame.data() + kFrameTraceOffset, &ctx.trace_id, 8);
    std::memcpy(frame.data() + kFrameTraceOffset + 8, &ctx.span_id, 4);
    frame[kFrameTraceOffset + 12] = ctx.flags;
}

/// Read a sealed response frame's Status without a full parse (used by
/// the client-side span recorder; requests return their dst instead).
[[nodiscard]] inline Status frame_status(ConstBytes frame) noexcept {
    if (frame.size() < kFrameHeaderSize) {
        return Status::kRpcError;
    }
    std::uint32_t s = 0;
    std::memcpy(&s, frame.data() + 8, 4);
    return static_cast<Status>(s);
}

/// Seal a request frame addressed to logical node \p dst.
[[nodiscard]] inline Buffer seal_request(MsgType type, NodeId dst,
                                         WireWriter&& payload) {
    return detail::seal(type, false, dst, std::move(payload));
}

/// Seal a successful response frame.
[[nodiscard]] inline Buffer seal_response(MsgType type,
                                          WireWriter&& payload) {
    return detail::seal(type, true, static_cast<std::uint32_t>(Status::kOk),
                        std::move(payload));
}

/// Seal a successful response whose payload continues for \p tail_bytes
/// past the sealed buffer: the header's length field covers body + tail,
/// but only the body is materialized here. The caller ships the tail as
/// a separate iovec (zero-copy scatter-gather responses); the receiver
/// sees one ordinary contiguous frame.
[[nodiscard]] inline Buffer seal_response_with_tail(MsgType type,
                                                    WireWriter&& payload,
                                                    std::size_t tail_bytes) {
    return detail::seal(type, true, static_cast<std::uint32_t>(Status::kOk),
                        std::move(payload), tail_bytes);
}

/// Seal an error response; the payload is the error string.
[[nodiscard]] inline Buffer seal_error(MsgType type, Status status,
                                       std::string_view what) {
    WireWriter w(what.size() + 8);
    w.str(what);
    return detail::seal(type, true, static_cast<std::uint32_t>(status),
                        std::move(w));
}

}  // namespace blobseer::rpc
