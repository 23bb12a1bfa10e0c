/// \file metadata_provider.hpp
/// \brief Metadata-provider service: one DHT member storing tree nodes.
///
/// Besides the key-value map, the provider models *service capacity*
/// (ops/second): every put/get occupies the server for 1/capacity seconds,
/// serialized across callers. This is the resource whose saturation makes
/// a centralized metadata server the bottleneck the paper's §IV-C
/// experiment demonstrates — tiny payloads mean the NIC never saturates;
/// the serialized request handling does.

#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/bandwidth_gate.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "meta/meta_store.hpp"

namespace blobseer::dht {

class MetadataProvider {
  public:
    /// \param ops_per_second service capacity; 0 = infinite (unit tests).
    /// Stores nodes in RAM by default; pass a LogMetaStore for the
    /// persistent-metadata configuration of paper §IV-B.
    MetadataProvider(NodeId node, std::uint64_t ops_per_second,
                     std::unique_ptr<meta::LocalMetaStore> store =
                         std::make_unique<meta::InMemoryMetaStore>())
        : node_(node),
          service_gate_(ops_per_second),
          store_(std::move(store)) {
        const MetricLabels labels{{"service", "meta-provider"},
                                  {"node", std::to_string(node_)}};
        bind_service_stats(metrics_, stats_, labels);
        metrics_.callback("meta_nodes_stored", labels,
                          [this] { return store_->count(); });
    }

    [[nodiscard]] NodeId node() const noexcept { return node_; }

    /// Service capacity; nonzero means every op may sleep in the gate.
    [[nodiscard]] std::uint64_t ops_per_second() const noexcept {
        return service_gate_.rate();
    }

    /// Store a batch. Capacity and stats are charged per node, so a
    /// batch of n costs the server what n single puts would.
    void put_many(std::span<const meta::KeyedNode> nodes) {
        service_gate_.transmit(nodes.size());
        store_->put_many(nodes);
        stats_.ops.add(nodes.size());
        for (const meta::KeyedNode& n : nodes) {
            stats_.bytes_in.add(n.node.serialized_size());
        }
    }

    [[nodiscard]] std::optional<meta::MetaNode> try_get(
        const meta::MetaKey& key) {
        service_gate_.transmit(1);
        stats_.ops.add();
        return store_->try_get(key);
    }

    void erase(const meta::MetaKey& key) {
        service_gate_.transmit(1);
        store_->erase(key);
        stats_.ops.add();
    }

    /// Crash simulation: volatile state is lost (everything for a RAM
    /// store; only the cache for a disk store — reads then fall back to
    /// the surviving files or to DHT replicas).
    void lose_state() { store_->lose_volatile(); }

    [[nodiscard]] std::size_t stored_nodes() const { return store_->count(); }
    [[nodiscard]] const ServiceStats& stats() const noexcept { return stats_; }

  private:
    const NodeId node_;
    BandwidthGate service_gate_;  // rate = ops/second, 1 token per op
    std::unique_ptr<meta::LocalMetaStore> store_;
    ServiceStats stats_;
    /// Registry bindings; declared last so they unbind before stats_
    /// and the store the callback samples.
    MetricsGroup metrics_;
};

}  // namespace blobseer::dht
