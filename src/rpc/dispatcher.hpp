/// \file dispatcher.hpp
/// \brief Server-side RPC skeleton: decodes request frames and invokes
///        the real service objects.
///
/// One Dispatcher fronts a whole deployment: it maps logical node ids to
/// the service objects living there (version manager, provider manager,
/// data providers, metadata providers) and routes each request frame by
/// its message-type tag plus destination node. Service exceptions are
/// caught and encoded as error responses (protocol.hpp Status), so a
/// server-side throw resurfaces client-side as the same exception type —
/// the dispatcher itself never lets an exception escape.
///
/// Both transports share this object: SimTransport invokes it inline on
/// the calling thread (after charging the simulated wire), and the TCP
/// server invokes it on its worker pool, fed by the epoll reactor's io
/// threads. Service objects are thread-safe, so no additional locking
/// happens here.

#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/types.hpp"
#include "rpc/messages.hpp"
#include "rpc/protocol.hpp"

namespace blobseer::provider {
class DataProvider;
class ProviderManager;
}  // namespace blobseer::provider

namespace blobseer::dht {
class MetadataProvider;
}

namespace blobseer::version {
class VersionManager;
}

namespace blobseer::rpc {

/// One sealed response: a contiguous head (frame header + body bytes)
/// plus an optional borrowed tail the head's length field already covers.
/// Handlers that serve large payloads (chunk reads) return the payload as
/// the tail — a SharedSlice pointing into the chunk store's memory — so
/// the bytes are never copied into the frame; a scatter-gather transport
/// writes head and tail with one writev. Transports without scatter-
/// gather call flatten(), which is exactly the copy the zero-copy path
/// avoids (counted by rpc_bytes_copied_total).
struct RpcResponse {
    Buffer head;
    SharedSlice tail;

    RpcResponse() = default;
    // Implicit: most handlers seal plain contiguous frames.
    RpcResponse(Buffer h) : head(std::move(h)) {}  // NOLINT
    RpcResponse(Buffer h, SharedSlice t)
        : head(std::move(h)), tail(std::move(t)) {}

    /// Total wire size of the frame.
    [[nodiscard]] std::size_t size() const noexcept {
        return head.size() + tail.size();
    }

    /// Collapse into one contiguous frame (copies the tail).
    [[nodiscard]] Buffer flatten() && {
        if (!tail.empty()) {
            head.insert(head.end(), tail.bytes.begin(), tail.bytes.end());
            tail = {};
        }
        return std::move(head);
    }
};

class Dispatcher {
  public:
    Dispatcher() = default;

    Dispatcher(const Dispatcher&) = delete;
    Dispatcher& operator=(const Dispatcher&) = delete;

    // ---- registration (cluster bootstrap; not thread-safe) --------------

    /// Register one version-manager shard. A deployment registers N of
    /// them; requests route by destination node like any other service.
    void add_version_manager(NodeId node, version::VersionManager* vm) {
        version_managers_[node] = vm;
    }
    void set_provider_manager(NodeId node, provider::ProviderManager* pm) {
        pm_node_ = node;
        pm_ = pm;
    }
    void add_data_provider(NodeId node, provider::DataProvider* dp) {
        data_providers_[node] = dp;
    }
    void add_metadata_provider(NodeId node, dht::MetadataProvider* mp) {
        meta_providers_[node] = mp;
    }

    /// Install the topology advertised to remote clients. client_id in
    /// the template is ignored; each kTopology request gets a fresh one.
    void set_topology(Topology t, NodeId first_client_id) {
        const std::scoped_lock lock(topo_mu_);
        topology_ = std::move(t);
        next_client_id_.store(first_client_id);
    }

    /// Replace the advertised topology without resetting the client-id
    /// sequence. Membership changes (an external provider announcing)
    /// call this at runtime, concurrently with kTopology requests.
    void refresh_topology(Topology t) {
        const std::scoped_lock lock(topo_mu_);
        t.client_id = topology_.client_id;
        topology_ = std::move(t);
    }

    /// Snapshot of the currently advertised topology.
    [[nodiscard]] Topology topology() const {
        const std::scoped_lock lock(topo_mu_);
        return topology_;
    }

    /// Liveness gate applied to every request's destination node (the
    /// control pseudo-node excepted). When installed and returning
    /// false, the request fails with RpcError exactly like a simulated
    /// dead endpoint — this is what gives TcpTransport deployments the
    /// same fault semantics SimNetwork enforces in-process.
    void set_fault_check(std::function<bool(NodeId)> alive) {
        fault_check_ = std::move(alive);
    }

    /// Decode one request frame, invoke the addressed service, return the
    /// sealed response frame. Never throws: every failure becomes an
    /// error response.
    ///
    /// Every dispatch records per-op-family telemetry (latency histogram,
    /// request/error counters, registry-owned and therefore shared by all
    /// dispatchers in the process) and, when the frame carries a trace
    /// context, installs it around the handler and records the server
    /// half of the span.
    [[nodiscard]] Buffer dispatch(ConstBytes frame) noexcept {
        return dispatch(frame, Clock::now());
    }

    /// Same, with the instant the transport finished reading the frame —
    /// the gap to now is the dispatch-queue wait the span reports.
    /// Flattens the scatter-gather response into one contiguous frame
    /// (the copied tail bytes count into rpc_bytes_copied_total).
    [[nodiscard]] Buffer dispatch(ConstBytes frame,
                                  TimePoint received_at) noexcept;

    /// Scatter-gather dispatch: the zero-copy entry point. Chunk-read
    /// responses carry their payload as a borrowed tail; everything else
    /// arrives with an empty tail. Same never-throws contract.
    [[nodiscard]] RpcResponse dispatch_sg(ConstBytes frame,
                                          TimePoint received_at) noexcept;

  private:
    /// Per-MsgType telemetry, resolved from the registry on first use and
    /// cached so the steady-state cost is two atomic loads per dispatch.
    struct OpTelemetry {
        std::atomic<Histogram*> latency{nullptr};
        std::atomic<Counter*> requests{nullptr};
        std::atomic<Counter*> errors{nullptr};
    };

    [[nodiscard]] OpTelemetry* telemetry_for(MsgType type) noexcept;

    [[nodiscard]] RpcResponse handle(const FrameView& f);

    [[nodiscard]] RpcResponse handle_data_provider(const FrameView& f);
    [[nodiscard]] Buffer handle_version_manager(const FrameView& f);
    [[nodiscard]] Buffer handle_meta_provider(const FrameView& f);
    [[nodiscard]] Buffer handle_provider_manager(const FrameView& f);

    NodeId pm_node_ = kInvalidNode;
    provider::ProviderManager* pm_ = nullptr;
    std::unordered_map<NodeId, version::VersionManager*> version_managers_;
    std::unordered_map<NodeId, provider::DataProvider*> data_providers_;
    std::unordered_map<NodeId, dht::MetadataProvider*> meta_providers_;

    mutable std::mutex topo_mu_;  // guards topology_ (refreshed at runtime)
    Topology topology_;
    std::atomic<NodeId> next_client_id_{1u << 20};
    std::function<bool(NodeId)> fault_check_;
    /// Indexed by MsgType tag (tags are small by construction; anything
    /// out of range — a corrupt frame — just skips telemetry).
    std::array<OpTelemetry, 128> op_telemetry_;
};

}  // namespace blobseer::rpc
