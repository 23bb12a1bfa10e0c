/// \file service_client.hpp
/// \brief Typed client stubs: one method per RPC, encode → transport →
///        decode.
///
/// This is the only place where request bodies are encoded and response
/// bodies decoded on the client side; BlobSeerClient and MetaDht call
/// these methods and never touch frames themselves. Error responses are
/// re-thrown as the original exception type (protocol.hpp Status
/// mapping), so callers keep the exact failure-handling semantics they
/// had with direct in-process calls: RpcError means "the node or wire
/// failed, fail over", NotFoundError means "the replica lacks the data",
/// and so on.
///
/// The hot data-path RPCs (put_chunk, get_chunk, check_chunk,
/// chunk_decref) additionally come as *_async variants returning
/// futures: many may be in flight on one multiplexed connection, and a
/// failed delivery surfaces as the same exception — from the future's
/// get() instead of the call itself. The sync methods are plain .get()
/// wrappers over them. Metadata reads are meta_try_get alone (MetaDht
/// throws the miss); metadata writes exist only as meta_put_batch_async:
/// MetaDht sends one batch per owning provider and waits on them all.
/// Chunk reads travel the same way as
/// get_chunk_batch_async, one request per provider a read uses and per
/// reply cap; get_chunk/get_chunk_async are one-key wrappers over it.
/// Arguments are fully encoded before an async call returns, so callers
/// may release payload buffers immediately.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chunk/chunk_key.hpp"
#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/future.hpp"
#include "common/types.hpp"
#include "dht/ring.hpp"
#include "meta/meta_node.hpp"
#include "meta/write_descriptor.hpp"
#include "provider/data_provider.hpp"
#include "provider/provider_manager.hpp"
#include "rpc/messages.hpp"
#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"
#include "version/version_manager.hpp"

namespace blobseer::rpc {

class ServiceClient {
  public:
    /// \param vm_nodes version-manager shard nodes, indexed by shard
    ///        (per-blob calls route by blob_shard(id)); \param pm_node
    ///        the provider manager. \param self this client's node id —
    ///        it seeds the shard choice for create_blob so different
    ///        clients spread their blobs over different shards.
    ServiceClient(Transport& transport, std::vector<NodeId> vm_nodes,
                  NodeId pm_node, NodeId self = kInvalidNode);

    [[nodiscard]] Transport& transport() noexcept { return transport_; }

    /// The deployment's version-manager shard nodes (shard-indexed).
    [[nodiscard]] const std::vector<NodeId>& vm_nodes() const noexcept {
        return vm_nodes_;
    }

    /// Shard node owning \p blob. Throws InvalidArgument when the id
    /// names a shard this deployment does not run.
    [[nodiscard]] NodeId vm_node_of(BlobId blob) const;

    // ---- version manager -------------------------------------------------

    [[nodiscard]] version::BlobInfo create_blob(std::uint64_t chunk_size,
                                                std::uint32_t replication);
    /// Single-shard clone (source and destination on the owning shard of
    /// \p src). Multi-shard deployments use the client-driven
    /// get_version + pin + clone_from protocol instead (DESIGN.md §10.3).
    [[nodiscard]] version::BlobInfo clone_blob(BlobId src, Version version);
    /// Create a blob aliasing the resolved published snapshot \p origin
    /// on a shard picked by the create-routing policy.
    [[nodiscard]] version::BlobInfo clone_from(std::uint64_t chunk_size,
                                               std::uint32_t replication,
                                               const meta::TreeRef& origin);
    [[nodiscard]] version::BlobInfo blob_info(BlobId blob);
    [[nodiscard]] version::AssignResult assign(
        BlobId blob, std::optional<std::uint64_t> offset, std::uint64_t size);
    void commit(BlobId blob, Version v);
    [[nodiscard]] version::VersionInfo get_version(BlobId blob, Version v);
    [[nodiscard]] version::VersionInfo wait_published(BlobId blob, Version v,
                                                      Duration timeout);
    [[nodiscard]] std::vector<version::VersionManager::VersionSummary>
    history(BlobId blob, Version from, Version to);
    /// Returns true when this call created the pin (false = already
    /// pinned); see VersionManager::pin.
    bool pin(BlobId blob, Version v);
    void unpin(BlobId blob, Version v);
    [[nodiscard]] version::VersionManager::RetireInfo retire(
        BlobId blob, Version keep_from);
    [[nodiscard]] meta::WriteDescriptor descriptor_of(BlobId blob, Version v);

    // ---- provider manager ------------------------------------------------

    [[nodiscard]] provider::PlacementPlan place(std::uint64_t n_chunks,
                                                std::uint32_t replication,
                                                std::uint64_t chunk_bytes);

    // ---- provider membership & repair (protocol v6) ----------------------

    /// Report a suspected-dead provider. The manager corroborates the
    /// report against recent heartbeats; returns true iff the suspect is
    /// (now) considered dead.
    bool report_failure(NodeId suspect);

    /// External provider daemon handshake: register by stable name and
    /// receive the node id to serve under (the same id again on re-join).
    [[nodiscard]] provider::ProviderManager::JoinResult provider_join(
        const std::string& name);

    /// Advertise a joined provider's dial endpoint and full inventory;
    /// this is what activates it for placement.
    void provider_announce(NodeId node, const std::string& host,
                           std::uint32_t port,
                           const std::vector<provider::ChunkHolding>&
                               inventory);

    /// One heartbeat with inventory deltas since the last acknowledged
    /// beat. Returns false when the manager does not know the node
    /// (manager restart: the provider must re-join).
    [[nodiscard]] bool provider_beat(
        NodeId node, std::uint64_t seq,
        const std::vector<provider::ChunkHolding>& added,
        const std::vector<chunk::ChunkKey>& removed);

    // ---- observability (protocol v7) -------------------------------------

    /// Full metrics-registry snapshot of the process serving \p node
    /// (default: the control pseudo-node, i.e. whatever process answers
    /// the default endpoint — address a data node to scrape an external
    /// provider daemon instead).
    [[nodiscard]] MetricsSnapshot metrics_dump(NodeId node = kControlNode);

    /// Drain the span ring of the process serving \p node. \p trace_id 0
    /// matches all traces; \p max 0 means "everything retained".
    [[nodiscard]] std::vector<trace::SpanRecord> trace_dump(
        std::uint64_t trace_id = 0, std::uint64_t max = 0,
        NodeId node = kControlNode);

    // ---- data providers --------------------------------------------------

    /// Upload one chunk replica to \p dp. \p via != kInvalidNode charges
    /// the transfer to that node (pipelined replication). Sync form of
    /// put_chunk_async.
    void put_chunk(NodeId dp, const chunk::ChunkKey& key, ConstBytes payload,
                   NodeId via = kInvalidNode);

    /// Start uploading one chunk replica; the future completes when the
    /// provider acknowledged (or failed) the store.
    [[nodiscard]] Future<void> put_chunk_async(NodeId dp,
                                               const chunk::ChunkKey& key,
                                               ConstBytes payload,
                                               NodeId via = kInvalidNode);

    struct ChunkSlice {
        Buffer bytes;               ///< the requested slice
        std::uint64_t chunk_size;   ///< total stored payload of the chunk
    };

    /// One provider's answer to a chunk-get-batch: an entry per
    /// requested key, in request order. Served slices are views into the
    /// one response frame — nothing is copied out of it.
    struct ChunkBatch {
        Buffer frame;                         ///< the whole response
        std::vector<ChunkReadEntry> entries;  ///< one per requested key
        std::vector<std::size_t> offsets;     ///< each slice's frame offset

        /// Bytes of key \p i (empty unless entries[i] is kServed).
        [[nodiscard]] ConstBytes slice(std::size_t i) const {
            return ConstBytes(frame).subspan(offsets[i],
                                             entries[i].length);
        }
    };

    /// Fetch slices of many chunks from one provider in one request.
    /// Each key gets its own status: a replica that lacks a chunk says
    /// kNotFound for that key only, and keys past the reply's byte cap
    /// (kChunkBatchReplyCap) come back kNotServed for the caller to
    /// re-issue. A failed delivery fails the whole future.
    [[nodiscard]] Future<ChunkBatch> get_chunk_batch_async(
        NodeId dp, std::span<const ChunkRead> reads);

    /// Fetch \p size bytes at \p offset of a chunk (size 0 = the whole
    /// chunk): a batch of one key, its slice moved to the front of the
    /// reply frame. The reply is clamped to the stored payload;
    /// chunk_size lets the caller detect truncated replicas. A missing
    /// chunk throws NotFoundError. Sync form of get_chunk_async.
    [[nodiscard]] ChunkSlice get_chunk(NodeId dp, const chunk::ChunkKey& key,
                                       std::uint64_t offset,
                                       std::uint64_t size);

    /// Start fetching a chunk slice.
    [[nodiscard]] Future<ChunkSlice> get_chunk_async(
        NodeId dp, const chunk::ChunkKey& key, std::uint64_t offset,
        std::uint64_t size);

    // ---- content-addressed data-provider operations (protocol v5) --------

    /// Check-before-push: true iff \p dp already holds the chunk. On a
    /// hit with \p want_incref the provider records this caller's
    /// reference, so the caller must NOT push (and later releases the
    /// reference with chunk_decref). \p size_hint is the payload size
    /// the caller would have pushed (provider dedup accounting).
    [[nodiscard]] bool check_chunk(NodeId dp, const chunk::ChunkKey& key,
                                   bool want_incref,
                                   std::uint64_t size_hint);
    [[nodiscard]] Future<bool> check_chunk_async(NodeId dp,
                                                 const chunk::ChunkKey& key,
                                                 bool want_incref,
                                                 std::uint64_t size_hint);

    /// Streaming upload: open a transfer of \p total bytes, append
    /// in-order slices, then complete (the provider verifies size and,
    /// for content keys, the SHA-256 before the chunk becomes visible).
    [[nodiscard]] std::uint64_t push_start(NodeId dp,
                                           const chunk::ChunkKey& key,
                                           std::uint64_t total);
    void push_some(NodeId dp, std::uint64_t xfer, std::uint64_t offset,
                   ConstBytes bytes, NodeId via = kInvalidNode);
    void push_end(NodeId dp, std::uint64_t xfer);

    /// Whole streaming upload: push \p payload in kStreamSliceBytes
    /// frames.
    void push_chunk(NodeId dp, const chunk::ChunkKey& key, ConstBytes payload,
                    NodeId via = kInvalidNode);

    /// Whole streaming download: a loop of one-key ranged get_chunk
    /// reads of kStreamSliceBytes each (the first reply carries the
    /// chunk size).
    [[nodiscard]] Buffer pull_chunk(NodeId dp, const chunk::ChunkKey& key);

    /// Release one reference to a chunk; returns the remaining count
    /// (0 = the provider reclaimed it).
    std::uint64_t chunk_decref(NodeId dp, const chunk::ChunkKey& key);
    [[nodiscard]] Future<std::uint64_t> chunk_decref_async(
        NodeId dp, const chunk::ChunkKey& key);

    // ---- metadata providers ----------------------------------------------

    /// Store a batch of nodes on one metadata provider (all the nodes of
    /// a version that provider owns) in one request.
    [[nodiscard]] Future<void> meta_put_batch_async(
        NodeId mp, std::span<const meta::KeyedNode> nodes);
    [[nodiscard]] std::optional<meta::MetaNode> meta_try_get(
        NodeId mp, const meta::MetaKey& key);
    void meta_erase(NodeId mp, const meta::MetaKey& key);

  private:
    /// Round-trip one request; returns the whole response frame after
    /// checking its status (error statuses throw).
    [[nodiscard]] Buffer invoke(MsgType type, NodeId dst, WireWriter&& body,
                                NodeId via = kInvalidNode);

    /// Start one request; the future completes with the raw response
    /// frame (status still unchecked — the decode adapter does that).
    [[nodiscard]] Future<Buffer> invoke_async(MsgType type, NodeId dst,
                                              WireWriter&& body,
                                              NodeId via = kInvalidNode);

    /// Shard node for the next create_blob/clone_from: consistent-hash
    /// the (client, creation#) pair over the shard ring so creations
    /// spread without any cross-client coordination.
    [[nodiscard]] NodeId pick_create_node();

    Transport& transport_;
    const std::vector<NodeId> vm_nodes_;
    const NodeId pm_node_;
    const NodeId self_;
    /// Ring over vm_nodes_ (empty when there is only one shard).
    dht::Ring vm_ring_;
    std::atomic<std::uint64_t> create_seq_{0};
};

/// Fetch the cluster topology over a transport (the bootstrap RPC of a
/// remote client; addressed to rpc::kControlNode, not to a real node).
[[nodiscard]] Topology fetch_topology(Transport& transport);

}  // namespace blobseer::rpc
