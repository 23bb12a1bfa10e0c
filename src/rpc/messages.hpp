/// \file messages.hpp
/// \brief Codecs for the composite message bodies of every BlobSeer RPC.
///
/// Each put_x/get_x pair is the single source of truth for how type x
/// travels on the wire; client stubs (service_client.hpp) and server
/// skeletons (dispatcher.cpp) both call them, so an encode/decode
/// mismatch is structurally impossible. get_x functions validate enums
/// and sizes and throw RpcError on malformed input — they are exercised
/// by the round-trip and corruption property tests.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chunk/chunk_key.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "meta/meta_node.hpp"
#include "meta/write_descriptor.hpp"
#include "provider/provider_manager.hpp"
#include "rpc/wire.hpp"
#include "version/version_manager.hpp"

namespace blobseer::rpc {

// ---- scalar wrappers -------------------------------------------------------

void put_chunk_key(WireWriter& w, const chunk::ChunkKey& k);
[[nodiscard]] chunk::ChunkKey get_chunk_key(WireReader& r);

void put_meta_key(WireWriter& w, const meta::MetaKey& k);
[[nodiscard]] meta::MetaKey get_meta_key(WireReader& r);

void put_meta_node(WireWriter& w, const meta::MetaNode& n);
[[nodiscard]] meta::MetaNode get_meta_node(WireReader& r);

/// kMetaPutBatch payload: a varint count, then (key, node) records. The
/// decoder rejects an empty batch and a count the payload cannot hold.
void put_meta_batch(WireWriter& w, std::span<const meta::KeyedNode> nodes);
[[nodiscard]] std::vector<meta::KeyedNode> get_meta_batch(WireReader& r);

/// One key of a kChunkGetBatch request: \p size bytes at \p offset of
/// the chunk (size 0 = to its end; the reply clamps to the stored
/// payload).
struct ChunkRead {
    chunk::ChunkKey key{};
    std::uint64_t offset = 0;
    std::uint64_t size = 0;

    friend bool operator==(const ChunkRead&, const ChunkRead&) = default;
};

/// kChunkGetBatch request payload: a varint count, then (key, offset,
/// size) records. The decoder rejects an empty batch, a count the
/// payload cannot hold and a truncated record.
void put_chunk_reads(WireWriter& w, std::span<const ChunkRead> reads);
[[nodiscard]] std::vector<ChunkRead> get_chunk_reads(WireReader& r);

/// Outcome of one key in a kChunkGetBatch reply.
enum class ChunkReadStatus : std::uint8_t {
    kServed = 0,     ///< its slice follows in the reply's tail bytes
    kNotFound = 1,   ///< this replica does not hold the chunk
    kNotServed = 2,  ///< past the reply's byte cap: ask again
};

/// One (status, chunk_size, length) entry of a kChunkGetBatch reply
/// head. chunk_size is the stored payload of a served chunk (0
/// otherwise), length the bytes of its slice among the tails.
struct ChunkReadEntry {
    ChunkReadStatus status = ChunkReadStatus::kNotServed;
    std::uint64_t chunk_size = 0;
    std::uint64_t length = 0;

    friend bool operator==(const ChunkReadEntry&,
                           const ChunkReadEntry&) = default;
};

void put_chunk_read_entry(WireWriter& w, const ChunkReadEntry& e);
/// Rejects an unknown status and a length on an unserved key.
[[nodiscard]] ChunkReadEntry get_chunk_read_entry(WireReader& r);

void put_tree_ref(WireWriter& w, const meta::TreeRef& t);
[[nodiscard]] meta::TreeRef get_tree_ref(WireReader& r);

void put_write_descriptor(WireWriter& w, const meta::WriteDescriptor& d);
[[nodiscard]] meta::WriteDescriptor get_write_descriptor(WireReader& r);

void put_blob_info(WireWriter& w, const version::BlobInfo& b);
[[nodiscard]] version::BlobInfo get_blob_info(WireReader& r);

void put_version_status(WireWriter& w, version::VersionStatus s);
[[nodiscard]] version::VersionStatus get_version_status(WireReader& r);

void put_version_info(WireWriter& w, const version::VersionInfo& v);
[[nodiscard]] version::VersionInfo get_version_info(WireReader& r);

void put_assign_result(WireWriter& w, const version::AssignResult& a);
[[nodiscard]] version::AssignResult get_assign_result(WireReader& r);

void put_version_summary(WireWriter& w,
                         const version::VersionManager::VersionSummary& s);
[[nodiscard]] version::VersionManager::VersionSummary get_version_summary(
    WireReader& r);

void put_retire_info(WireWriter& w,
                     const version::VersionManager::RetireInfo& i);
[[nodiscard]] version::VersionManager::RetireInfo get_retire_info(
    WireReader& r);

void put_placement_plan(WireWriter& w, const provider::PlacementPlan& p);
[[nodiscard]] provider::PlacementPlan get_placement_plan(WireReader& r);

void put_node_ids(WireWriter& w, const std::vector<NodeId>& v);
[[nodiscard]] std::vector<NodeId> get_node_ids(WireReader& r);

// ---- membership & repair (protocol v6) -------------------------------------

void put_chunk_holding(WireWriter& w, const provider::ChunkHolding& h);
[[nodiscard]] provider::ChunkHolding get_chunk_holding(WireReader& r);

void put_chunk_holdings(WireWriter& w,
                        const std::vector<provider::ChunkHolding>& v);
[[nodiscard]] std::vector<provider::ChunkHolding> get_chunk_holdings(
    WireReader& r);

void put_chunk_keys(WireWriter& w,
                    const std::vector<chunk::ChunkKey>& v);
[[nodiscard]] std::vector<chunk::ChunkKey> get_chunk_keys(WireReader& r);

// ---- observability (protocol v7) -------------------------------------------

void put_metric_sample(WireWriter& w, const MetricSample& s);
[[nodiscard]] MetricSample get_metric_sample(WireReader& r);

void put_metrics_snapshot(WireWriter& w, const MetricsSnapshot& snap);
[[nodiscard]] MetricsSnapshot get_metrics_snapshot(WireReader& r);

void put_span_record(WireWriter& w, const trace::SpanRecord& s);
[[nodiscard]] trace::SpanRecord get_span_record(WireReader& r);

void put_span_records(WireWriter& w,
                      const std::vector<trace::SpanRecord>& v);
[[nodiscard]] std::vector<trace::SpanRecord> get_span_records(WireReader& r);

// ---- control plane ---------------------------------------------------------

/// Everything a remote client needs to bootstrap against a cluster it
/// cannot see: service node ids, DHT membership, replication parameters
/// and a freshly allocated client identity.
struct Topology {
    /// Version-manager shard nodes, indexed by shard (blob_shard(id)
    /// names the owning entry). Single-shard deployments advertise one.
    std::vector<NodeId> vm_nodes;
    NodeId pm_node = kInvalidNode;
    std::vector<NodeId> data_nodes;
    std::vector<NodeId> meta_nodes;
    std::uint32_t meta_replication = 1;
    std::uint32_t default_replication = 1;
    std::uint64_t publish_timeout_ms = 30000;
    /// Client node id allocated by the server for the requesting client.
    NodeId client_id = kInvalidNode;
    /// Chunk-uid allocation epoch of this deployment boot. Client ids
    /// restart from the same base after a daemon restart, so without an
    /// epoch a restarted deployment would re-mint pre-restart chunk
    /// uids and idempotent puts would silently keep the old bytes.
    std::uint64_t uid_epoch = 0;
    /// v5: deployment stores chunks content-addressed — clients hash
    /// locally, place by digest and use check-before-push dedup.
    bool content_addressed = false;

    /// v6: dial endpoint of a data provider that runs as its own daemon
    /// (in-process providers live behind the main endpoint and are not
    /// listed). Remote clients add these as transport routes so chunk
    /// RPCs reach the provider directly.
    struct ProviderEndpoint {
        NodeId node = kInvalidNode;
        std::string host;
        std::uint32_t port = 0;

        friend bool operator==(const ProviderEndpoint&,
                               const ProviderEndpoint&) = default;
    };
    std::vector<ProviderEndpoint> provider_endpoints;

    friend bool operator==(const Topology&, const Topology&) = default;
};

void put_topology(WireWriter& w, const Topology& t);
[[nodiscard]] Topology get_topology(WireReader& r);

}  // namespace blobseer::rpc
