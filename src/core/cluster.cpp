#include "core/cluster.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "cache/compressed_file_cache.hpp"
#include "chunk/log_store.hpp"
#include "chunk/ram_store.hpp"
#include "chunk/tiered_store.hpp"
#include "core/client.hpp"
#include "engine/log_engine.hpp"
#include "engine/segment_file.hpp"
#include "meta/log_meta_store.hpp"
#include "rpc/sim_transport.hpp"
#include "rpc/tcp_transport.hpp"

namespace blobseer::core {

namespace {

/// The two storage combinations that mean nothing: a cache tier over a
/// store that is itself RAM, and a file tier with no RAM tier to demote
/// into it.
void check_storage(const ClusterConfig& cfg) {
    if (!cfg.durable &&
        (cfg.ram_cache_budget != 0 || cfg.file_cache_budget != 0)) {
        throw InvalidArgument(
            "cache tiers need a durable store (set durable or zero the "
            "ram/file cache budgets)");
    }
    if (cfg.file_cache_budget != 0 && cfg.ram_cache_budget == 0) {
        throw InvalidArgument("a file-cache tier needs a RAM tier above it");
    }
}

/// Read-bump-rewrite the boot counter at \p path (plain decimal file,
/// written tmp+fsync+rename: a torn or failed write must never roll the
/// epoch back, or a later boot would re-enter an already-used uid
/// space). First boot returns 1; see BlobSeerClient::next_uid for why a
/// durable deployment needs a fresh uid epoch per boot.
std::uint64_t bump_uid_epoch(const std::filesystem::path& path) {
    std::uint64_t epoch = 0;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        // Only "no file yet" may mean first boot: treating a transient
        // open failure as epoch 0 would re-enter used uid spaces.
        if (errno != ENOENT) {
            throw Error("cannot read " + path.string() + ": " +
                        std::strerror(errno));
        }
    } else {
        unsigned long long v = 0;
        const int got = std::fscanf(f, "%llu", &v);
        std::fclose(f);
        if (got != 1) {
            throw Error("corrupt uid-epoch file " + path.string() +
                        "; refusing to reset the chunk-uid namespace");
        }
        epoch = v;
    }
    ++epoch;
    if (epoch >= (1u << 12)) {
        throw Error("uid epoch exhausted after 4095 boots of " +
                    path.string() + "; migrate to a fresh disk root");
    }
    const auto tmp = std::filesystem::path(path.string() + ".tmp");
    {
        // SegmentFile throws on short writes and fsync failures — a
        // disk-full boot aborts instead of renaming a truncated epoch.
        auto file = engine::SegmentFile::open(tmp, true);
        file->truncate(0);
        const std::string text = std::to_string(epoch) + "\n";
        file->append(ConstBytes(
            reinterpret_cast<const std::uint8_t*>(text.data()),
            text.size()));
        file->sync();
    }
    std::filesystem::rename(tmp, path);
    // Make the rename itself durable: without a directory fsync a power
    // failure could resurface the old epoch after clients already
    // minted uids under the new one.
    const int dir_fd =
        ::open(path.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd < 0 || ::fsync(dir_fd) != 0) {
        const int err = errno;
        if (dir_fd >= 0) {
            ::close(dir_fd);
        }
        throw Error("cannot fsync " + path.parent_path().string() + ": " +
                    std::strerror(err));
    }
    ::close(dir_fd);
    return epoch;
}

std::unique_ptr<meta::LocalMetaStore> make_meta_store(
    const ClusterConfig& cfg, std::size_t index) {
    if (!cfg.durable) {
        return std::make_unique<meta::InMemoryMetaStore>();
    }
    return std::make_unique<meta::LogMetaStore>(
        cfg.disk_root / ("mp-" + std::to_string(index)));
}

}  // namespace

std::unique_ptr<chunk::ChunkStore> make_chunk_store(const ClusterConfig& cfg,
                                                    const std::string& name) {
    check_storage(cfg);
    if (!cfg.durable) {
        return std::make_unique<chunk::RamStore>();
    }
    const std::string dir = "dp-" + name;
    engine::EngineConfig ecfg;
    ecfg.dir = cfg.disk_root / dir;
    ecfg.compress_on_compact = cfg.compress_cold_segments;
    auto log = std::make_unique<chunk::LogStore>(std::move(ecfg));
    if (cfg.ram_cache_budget == 0) {
        return log;
    }
    std::unique_ptr<cache::CompressedFileCache> file_cache;
    if (cfg.file_cache_budget != 0) {
        cache::FileCacheConfig fcfg;
        fcfg.dir = (cfg.file_cache_dir.empty() ? cfg.disk_root / "file-cache"
                                               : cfg.file_cache_dir) /
                   dir;
        fcfg.budget_bytes = cfg.file_cache_budget;
        file_cache = std::make_unique<cache::CompressedFileCache>(fcfg);
    }
    return std::make_unique<chunk::TieredStore>(
        std::move(log), cfg.ram_cache_budget, std::move(file_cache));
}

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      net_(config.network),
      pm_(config.placement, config.seed) {
    check_storage(config_);
    if (config_.durable) {
        // A durable deployment's next boot on this disk_root will re-mint
        // client ids; chunk idempotence then needs disjoint uid spaces
        // per boot (LogStore keeps the FIRST bytes put under a key).
        std::filesystem::create_directories(config_.disk_root);
        uid_epoch_ = bump_uid_epoch(config_.disk_root / "uid-epoch");
    }

    const std::size_t n_vms =
        std::max<std::size_t>(1, config_.num_version_managers);
    if (n_vms > kMaxBlobShards) {
        throw InvalidArgument("num_version_managers " +
                              std::to_string(n_vms) + " exceeds the " +
                              std::to_string(kMaxBlobShards) +
                              "-shard blob-id namespace");
    }
    vms_.reserve(n_vms);
    vm_nodes_.reserve(n_vms);
    for (std::size_t i = 0; i < n_vms; ++i) {
        vms_.push_back(std::make_unique<version::VersionManager>(
            static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(n_vms)));
        if (config_.durable) {
            engine::EngineConfig jc;
            jc.dir = config_.disk_root / ("vm-" + std::to_string(i));
            // Replay depends on append order, so the compactor (which
            // relocates records) stays off; the journals are tiny anyway.
            jc.background_compaction = false;
            vm_journals_.push_back(std::make_shared<engine::LogEngine>(jc));
            vms_.back()->attach_journal(vm_journals_.back());
        }
        vm_nodes_.push_back(
            net_.add_node("version-manager-" + std::to_string(i)));
    }
    pm_node_ = net_.add_node("provider-manager");

    data_providers_.reserve(config_.data_providers);
    for (std::size_t i = 0; i < config_.data_providers; ++i) {
        const NodeId node = net_.add_node("dp-" + std::to_string(i));
        data_providers_.push_back(std::make_unique<provider::DataProvider>(
            node, make_chunk_store(config_, std::to_string(i))));
        dp_by_node_[node] = data_providers_.back().get();
        pm_.register_provider(node);
    }

    meta_providers_.reserve(config_.metadata_providers);
    for (std::size_t i = 0; i < config_.metadata_providers; ++i) {
        const NodeId node = net_.add_node("mp-" + std::to_string(i));
        meta_providers_.push_back(std::make_unique<dht::MetadataProvider>(
            node, config_.meta_ops_per_second, make_meta_store(config_, i)));
        mp_by_node_[node] = meta_providers_.back().get();
        ring_.add_node(node);
    }

    // Wire every service into the RPC skeleton. Remote client ids start
    // far above any simulated node id so the two spaces never collide.
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        dispatcher_.add_version_manager(vm_nodes_[i], vms_[i].get());
    }
    dispatcher_.set_provider_manager(pm_node_, &pm_);
    for (const auto& [node, dp] : dp_by_node_) {
        dispatcher_.add_data_provider(node, dp);
    }
    for (const auto& [node, mp] : mp_by_node_) {
        dispatcher_.add_metadata_provider(node, mp);
    }
    dispatcher_.set_topology(topology(), 1u << 20);
    // Requests to a killed node must fail identically whether they come
    // through SimTransport (the network refuses) or a real TCP socket
    // (the dispatcher refuses). Ids outside the simulated space (remote
    // clients, external providers) are always reachable.
    dispatcher_.set_fault_check([this](NodeId node) {
        return node >= net_.node_count() || net_.is_alive(node);
    });

    // ---- membership & repair (protocol v6) ------------------------------
    pm_.set_repair_floor(config_.default_replication);
    if (config_.durable) {
        // Durable deployments also persist the pending-repair set, so a
        // manager restart mid-outage resumes instead of forgetting.
        pm_.open_repair_journal(
            (config_.disk_root / "pm-repair.journal").string());
    }
    for (auto& dp : data_providers_) {
        const NodeId node = dp->node();
        // In-process providers feed the location index synchronously —
        // the moral equivalent of a heartbeat with a zero-length delay.
        dp->set_inventory_observer([this, node](const chunk::ChunkKey& key,
                                                std::uint64_t bytes,
                                                bool stored) {
            if (stored) {
                pm_.note_chunk_stored(node, key, bytes);
            } else {
                pm_.note_chunk_removed(node, key);
            }
        });
    }
    repair_node_ = net_.add_node("repair-worker");
    repair_sim_ = std::make_unique<rpc::SimTransport>(net_, repair_node_,
                                                      dispatcher_);
    repair_transport_ = std::make_unique<rpc::RoutedTransport>(*repair_sim_);
    provider::RepairWorker::Options repair_options;
    repair_options.content_addressed = config_.content_addressed;
    repair_worker_ = std::make_unique<provider::RepairWorker>(
        pm_, *repair_transport_, vm_nodes_, pm_node_, repair_node_,
        repair_options);
    pm_.set_announce_hook([this](NodeId node, const std::string& host,
                                 std::uint32_t port) {
        // An external daemon announced: give the repair worker a wire to
        // it and advertise it to future remote clients.
        repair_transport_->add_route(
            node, std::make_shared<rpc::TcpTransport>(
                      host, static_cast<std::uint16_t>(port)));
        dispatcher_.refresh_topology(topology());
    });
    if (config_.heartbeat_timeout > Duration::zero()) {
        pm_.set_heartbeat_timeout_ms(static_cast<std::uint64_t>(
            duration_cast<milliseconds>(config_.heartbeat_timeout)
                .count()));
        heartbeat_thread_ = std::jthread([this](std::stop_token stop) {
            const Duration tick =
                std::max<Duration>(config_.heartbeat_timeout / 4,
                                   milliseconds(10));
            std::mutex mu;
            std::unique_lock lock(mu);
            while (!stop.stop_requested()) {
                (void)pm_.check_heartbeats();
                (void)heartbeat_cv_.wait_for(lock, stop, tick,
                                             [] { return false; });
            }
        });
    }
    if (config_.repair_interval > Duration::zero()) {
        repair_worker_->start(config_.repair_interval);
    }
}

Cluster::~Cluster() = default;

rpc::Topology Cluster::topology() const {
    rpc::Topology t;
    t.vm_nodes = vm_nodes_;
    t.pm_node = pm_node_;
    t.data_nodes.reserve(data_providers_.size());
    for (const auto& dp : data_providers_) {
        t.data_nodes.push_back(dp->node());
    }
    t.meta_nodes.reserve(meta_providers_.size());
    for (const auto& mp : meta_providers_) {
        t.meta_nodes.push_back(mp->node());
    }
    t.meta_replication = config_.meta_replication;
    t.default_replication = config_.default_replication;
    t.publish_timeout_ms = static_cast<std::uint64_t>(
        duration_cast<milliseconds>(config_.publish_timeout).count());
    t.uid_epoch = uid_epoch_;
    t.content_addressed = config_.content_addressed;
    // Announced external providers are part of the data plane: clients
    // place onto them and dial them directly at the carried endpoint.
    for (const auto& ep : pm_.external_endpoints()) {
        t.data_nodes.push_back(ep.node);
        t.provider_endpoints.push_back({ep.node, ep.host, ep.port});
    }
    return t;
}

std::unique_ptr<BlobSeerClient> Cluster::make_client(
    const std::string& name) {
    const NodeId node =
        net_.add_node(name + "-" + std::to_string(next_client_++));
    ClientEnv env;
    env.transport =
        std::make_shared<rpc::SimTransport>(net_, node, dispatcher_);
    env.self = node;
    env.vm_nodes = vm_nodes_;
    env.pm_node = pm_node_;
    env.data_nodes.reserve(data_providers_.size());
    for (const auto& dp : data_providers_) {
        env.data_nodes.push_back(dp->node());
    }
    env.content_addressed = config_.content_addressed;
    env.meta_ring = ring_;
    env.meta_replication = config_.meta_replication;
    env.default_replication = config_.default_replication;
    env.meta_cache_nodes = config_.client_meta_cache_nodes;
    env.io_threads = config_.client_io_threads;
    env.max_inflight_chunks = config_.client_max_inflight_chunks;
    env.publish_timeout = config_.publish_timeout;
    env.uid_epoch = uid_epoch_;
    env.trace = config_.client_trace;
    return std::make_unique<BlobSeerClient>(std::move(env));
}

void Cluster::kill_data_provider(std::size_t i, bool lose_volatile) {
    provider::DataProvider& dp = data_provider(i);
    net_.kill(dp.node());
    // Heartbeat loss: the provider manager stops placing data there and
    // queues every chunk the death left under-replicated. Enqueue while
    // the index still lists the victim as holder (before any wipe) so
    // the death scan sees its keys.
    pm_.mark_dead(dp.node());
    if (lose_volatile) {
        dp.lose_volatile_state();
        // The copies are gone for good, not just unreachable: repair
        // must not count them again after a rejoin.
        pm_.drop_holdings(dp.node());
    }
}

void Cluster::recover_data_provider(std::size_t i) {
    provider::DataProvider& dp = data_provider(i);
    net_.recover(dp.node());
    pm_.mark_alive(dp.node());
}

void Cluster::kill_metadata_provider(std::size_t i, bool lose_state) {
    dht::MetadataProvider& mp = metadata_provider(i);
    net_.kill(mp.node());
    if (lose_state) {
        mp.lose_state();
    }
}

void Cluster::recover_metadata_provider(std::size_t i) {
    net_.recover(metadata_provider(i).node());
}

void Cluster::degrade_data_provider(std::size_t i, double factor,
                                    Duration extra_latency) {
    net_.degrade(data_provider(i).node(), factor, extra_latency);
}

void Cluster::restore_data_provider(std::size_t i) {
    net_.restore(data_provider(i).node());
}

}  // namespace blobseer::core
