/// \file meta_dht.hpp
/// \brief Client-side view of the metadata DHT.
///
/// Implements meta::MetaStore over the metadata providers: each node key
/// is consistent-hashed to its owners; puts go to every replica, gets try
/// owners in order and fail over on provider death. A put_many (a whole
/// version's tree) travels as one batch per owning provider, all in
/// flight at once. Every operation is a real encode → transport → decode
/// round trip (rpc::ServiceClient), so the metadata traffic the tree
/// algorithms generate is charged at its actual serialized size under
/// SimTransport and travels real sockets under TcpTransport.
///
/// With a single registered provider this degenerates into the
/// *centralized* metadata scheme the paper compares against (§IV-C) — the
/// baseline configuration reuses this class unchanged.

#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "dht/ring.hpp"
#include "meta/meta_store.hpp"
#include "rpc/service_client.hpp"

namespace blobseer::dht {

class MetaDht final : public meta::MetaStore {
  public:
    /// \param svc        RPC stubs carrying this client's identity.
    /// \param ring       DHT membership (not owned; must outlive this).
    /// \param replication copies per node key (>= 1).
    MetaDht(rpc::ServiceClient& svc, const Ring& ring,
            std::uint32_t replication)
        : svc_(svc),
          ring_(ring),
          replication_(replication == 0 ? 1 : replication) {}

    /// Store every node on each of its owners: one batch per owning
    /// provider, all batches in flight at once, so a version's whole
    /// tree costs one round trip. A node succeeds if at least one of its
    /// owners' batches landed; otherwise this throws RpcError naming the
    /// first node left without a copy.
    void put_many(std::span<const meta::KeyedNode> nodes) override {
        // owners_of[i] indexes the batches carrying node i.
        std::vector<NodeId> batch_owner;
        std::vector<std::vector<meta::KeyedNode>> batches;
        std::vector<std::vector<std::size_t>> owners_of(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            for (const NodeId owner :
                 ring_.owners(nodes[i].key.hash(), replication_)) {
                const auto it = std::find(batch_owner.begin(),
                                          batch_owner.end(), owner);
                const auto b = static_cast<std::size_t>(
                    it - batch_owner.begin());
                if (it == batch_owner.end()) {
                    batch_owner.push_back(owner);
                    batches.emplace_back();
                }
                batches[b].push_back(nodes[i]);
                owners_of[i].push_back(b);
            }
        }
        std::vector<Future<void>> sent(batches.size());
        for (std::size_t b = 0; b < batches.size(); ++b) {
            try {
                sent[b] = svc_.meta_put_batch_async(batch_owner[b],
                                                    batches[b]);
            } catch (const RpcError& e) {
                // call_async can fail synchronously (connection
                // refused): same per-replica tolerance as an async
                // failure.
                log_debug("meta-dht", std::string("put batch failed: ") +
                                          e.what());
            }
        }
        std::vector<bool> landed(batches.size(), false);
        for (std::size_t b = 0; b < batches.size(); ++b) {
            if (!sent[b].valid()) {
                continue;
            }
            try {
                sent[b].get();
                landed[b] = true;
            } catch (const RpcError& e) {
                // A dead replica target is tolerable as long as every
                // node lands somewhere; readers fail over the same way.
                log_debug("meta-dht", std::string("put batch failed: ") +
                                          e.what());
            }
        }
        puts_.add(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (std::none_of(owners_of[i].begin(), owners_of[i].end(),
                             [&](std::size_t b) { return landed[b]; })) {
                throw RpcError("no metadata replica stored for " +
                               nodes[i].key.to_string());
            }
        }
    }

    [[nodiscard]] meta::MetaNode get(const meta::MetaKey& key) override {
        const auto owners = ring_.owners(key.hash(), replication_);
        gets_.add();
        std::string last_error = "no owners";
        for (const NodeId owner : owners) {
            try {
                return svc_.meta_get(owner, key);
            } catch (const RpcError& e) {
                last_error = e.what();
            } catch (const NotFoundError& e) {
                last_error = e.what();
            }
        }
        throw NotFoundError("metadata " + key.to_string() + " unavailable (" +
                            last_error + ")");
    }

    [[nodiscard]] std::optional<meta::MetaNode> try_get(
        const meta::MetaKey& key) override {
        const auto owners = ring_.owners(key.hash(), replication_);
        for (const NodeId owner : owners) {
            try {
                auto r = svc_.meta_try_get(owner, key);
                if (r) {
                    return r;
                }
            } catch (const RpcError&) {
                // try next replica
            }
        }
        return std::nullopt;
    }

    void erase(const meta::MetaKey& key) override {
        const auto owners = ring_.owners(key.hash(), replication_);
        for (const NodeId owner : owners) {
            try {
                svc_.meta_erase(owner, key);
            } catch (const RpcError&) {
                // best effort
            }
        }
    }

    [[nodiscard]] std::uint64_t puts() const { return puts_.get(); }
    [[nodiscard]] std::uint64_t gets() const { return gets_.get(); }

  private:
    rpc::ServiceClient& svc_;
    const Ring& ring_;
    const std::uint32_t replication_;

    Counter puts_;
    Counter gets_;
};

}  // namespace blobseer::dht
