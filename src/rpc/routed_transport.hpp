/// \file routed_transport.hpp
/// \brief A Transport that routes per destination node.
///
/// The repair worker and the manager-side daemons talk to two kinds of
/// peers at once: services co-hosted in this process (reached through
/// the deployment's primary transport) and external data providers that
/// joined at runtime over TCP (each reachable through its own
/// TcpTransport). RoutedTransport dispatches each call by destination:
/// an installed override wins, everything else falls through to the
/// primary. Routes are added concurrently with in-flight calls (a
/// provider announcing while repairs run), so the table is locked;
/// transports themselves are thread-safe.

#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "rpc/transport.hpp"

namespace blobseer::rpc {

class RoutedTransport final : public Transport {
  public:
    explicit RoutedTransport(Transport& primary) : primary_(primary) {}

    /// Route calls addressed to \p node through \p transport instead of
    /// the primary. Replaces any previous route for the node.
    void add_route(NodeId node, std::shared_ptr<Transport> transport) {
        const std::scoped_lock lock(mu_);
        routes_[node] = std::move(transport);
    }

    void remove_route(NodeId node) {
        const std::scoped_lock lock(mu_);
        routes_.erase(node);
    }

    [[nodiscard]] Future<Buffer> call_async(NodeId dst,
                                            ConstBytes frame) override {
        const auto route = pick(dst);  // pins the override across the call
        return (route ? *route : primary_).call_async(dst, frame);
    }

    [[nodiscard]] Buffer roundtrip(NodeId dst, ConstBytes frame) override {
        const auto route = pick(dst);
        return (route ? *route : primary_).roundtrip(dst, frame);
    }

  private:
    [[nodiscard]] std::shared_ptr<Transport> pick(NodeId dst) {
        const std::scoped_lock lock(mu_);
        const auto it = routes_.find(dst);
        return it != routes_.end() ? it->second : nullptr;
    }

    Transport& primary_;
    std::mutex mu_;
    std::unordered_map<NodeId, std::shared_ptr<Transport>> routes_;
};

}  // namespace blobseer::rpc
