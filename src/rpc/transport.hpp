/// \file transport.hpp
/// \brief The transport abstraction every encoded frame travels through.
///
/// A Transport delivers one sealed request frame (protocol.hpp) to a
/// logical node and eventually produces the sealed response frame.
/// Implementations:
///
///  * SimTransport  — routes frames through the in-process SimNetwork,
///                    preserving its bandwidth gates, latency model and
///                    fault injection while charging the *actual* encoded
///                    byte counts (sim_transport.hpp).
///  * TcpTransport  — POSIX sockets, one multiplexed connection per peer
///                    endpoint with correlation-id response matching
///                    (tcp_transport.hpp).
///
/// The primitive is asynchronous: call_async() returns a Future<Buffer>
/// that completes with the response frame, or fails with RpcError on a
/// delivery failure (dead node, partition, connection reset) — never
/// with a partial frame. A response frame may itself encode a service
/// error; decoding that is the stub layer's job (see Status). The
/// request frame is fully consumed (sent or copied) before call_async
/// returns, so the caller may free it immediately.
///
/// The sync surface (roundtrip) is a convenience wrapper over
/// call_async; SimTransport overrides it to dispatch inline on the
/// calling thread, exactly as the seed's direct calls did.

#pragma once

#include "common/buffer.hpp"
#include "common/future.hpp"
#include "common/types.hpp"

namespace blobseer::rpc {

class Transport {
  public:
    virtual ~Transport() = default;

    /// Start delivering \p frame to logical node \p dst; the returned
    /// future completes with the response frame (or RpcError). Many
    /// calls may be in flight at once — responses complete out of
    /// order as the peer answers them.
    [[nodiscard]] virtual Future<Buffer> call_async(NodeId dst,
                                                    ConstBytes frame) = 0;

    /// Deliver \p frame to logical node \p dst; block until the response
    /// frame arrives and return it.
    [[nodiscard]] virtual Buffer roundtrip(NodeId dst, ConstBytes frame) {
        return call_async(dst, frame).get();
    }
};

}  // namespace blobseer::rpc
