/// \file config.hpp
/// \brief Cluster-wide configuration.
///
/// One struct drives every deployment knob the experiments sweep:
/// provider counts (striping width), metadata decentralization degree,
/// placement strategy, durability and cache tiers, replication, network
/// costs and client-side caching. Each bench's header says which knobs
/// it varies.

#pragma once

#include <cstdint>
#include <filesystem>

#include "common/clock.hpp"
#include "net/sim_network.hpp"
#include "provider/provider_manager.hpp"

namespace blobseer::core {

struct ClusterConfig {
    /// Number of data providers (striping width).
    std::size_t data_providers = 8;
    /// Number of metadata providers forming the DHT; 1 = the centralized
    /// baseline of §IV-C.
    std::size_t metadata_providers = 4;

    /// Number of version-manager shards. Each shard owns the blobs whose
    /// id it minted (the shard index rides in the top byte of every
    /// BlobId) and serializes only them; clients route per-blob calls to
    /// the owning shard. 1 = the paper's single version manager, and is
    /// bit-compatible with the unsharded blob-id space.
    std::size_t num_version_managers = 1;

    /// Chunk replica copies for new blobs (per-blob override at create()).
    std::uint32_t default_replication = 1;
    /// Copies of each metadata tree node in the DHT.
    std::uint32_t meta_replication = 1;

    provider::PlacementStrategy placement =
        provider::PlacementStrategy::kRoundRobin;

    /// Content-addressed storage (DESIGN.md §11): clients address chunks
    /// by SHA-256 digest, place them by consistent-hashing the digest
    /// over the data providers, skip transfers the target already holds
    /// (check-before-push) and reference-count every chunk so deletion
    /// reclaims space without corrupting deduplicated data.
    bool content_addressed = false;

    /// Interconnect model (latency + per-NIC bandwidth).
    net::NetworkConfig network;

    /// Service capacity of each metadata provider in ops/second
    /// (0 = infinite). The knob that makes centralization hurt.
    std::uint64_t meta_ops_per_second = 0;

    /// Persistence (paper §IV-B). false: the RAM-only prototype of §IV-A
    /// — RamStore chunks, in-memory metadata, an unjournaled version
    /// manager. true: every service persists under disk_root — LogStore
    /// chunks (disk_root / "dp-<i>"), LogMetaStore metadata ("mp-<i>")
    /// and a version manager journaled through a log engine ("vm-<i>",
    /// replayed when the cluster is constructed), so a full restart on
    /// the same disk_root recovers every published blob end-to-end.
    bool durable = false;
    /// Root directory of durable state.
    std::filesystem::path disk_root = "/tmp/blobseer-store";
    /// Byte budget of the RAM cache tier over each durable chunk store;
    /// 0 = no RAM tier.
    std::uint64_t ram_cache_budget = 0;
    /// Byte budget of the compressed file-cache tier (DESIGN.md §14)
    /// between the RAM tier and each durable chunk store; 0 = no file
    /// tier. Evicted RAM entries are demoted here (LZ4-compressed,
    /// CRC-checked) and promoted back on hit. The cache is disposable —
    /// deleting its directory loses no data. Needs a RAM tier; a tier
    /// over a non-durable store is rejected (Cluster throws
    /// InvalidArgument).
    std::uint64_t file_cache_budget = 0;
    /// Root directory for per-provider file caches (provider i uses
    /// file_cache_dir / "dp-<i>"). Empty = put them under
    /// disk_root / "file-cache".
    std::filesystem::path file_cache_dir;
    /// Recompress cold records of durable chunk stores at compaction
    /// time (engine format v2, DESIGN.md §14.3). Off by default so
    /// existing deployments keep producing byte-identical v1 files.
    bool compress_cold_segments = false;

    /// Client-side metadata cache capacity in nodes; 0 disables (the
    /// ablation of §IV-A / experiment E2).
    std::size_t client_meta_cache_nodes = 4096;
    /// Threads driving whole client-level async operations.
    std::size_t client_io_threads = 4;
    /// Bound on chunk RPCs one client write/read keeps in flight at
    /// once (the async window; see ClientEnv::max_inflight_chunks).
    std::size_t client_max_inflight_chunks = 64;
    /// Minted clients originate a sampled distributed trace per
    /// top-level write/append/read (ClientEnv::trace).
    bool client_trace = false;

    /// How long a reader waits for a pending version to publish before
    /// giving up, and how long the unaligned-append path waits for its
    /// predecessor.
    Duration publish_timeout = seconds(30);

    /// Membership (DESIGN.md §12). A provider missing heartbeats for
    /// this long is declared dead and its chunks enter the repair queue;
    /// 0 disables the sweep (tests drive check_heartbeats with virtual
    /// time, and in-process providers never beat).
    Duration heartbeat_timeout = Duration::zero();
    /// Background repair-worker drain period; 0 = no background worker
    /// (tests call Cluster::drain_repairs() synchronously).
    Duration repair_interval = Duration::zero();

    /// Seed for every deterministic random decision in the cluster.
    std::uint64_t seed = 42;
};

}  // namespace blobseer::core
