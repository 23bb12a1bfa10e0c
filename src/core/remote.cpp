#include "core/remote.hpp"

#include "rpc/service_client.hpp"
#include "rpc/tcp_transport.hpp"

namespace blobseer::core {

ClientEnv connect_tcp(const std::string& host, std::uint16_t port,
                      const RemoteOptions& options) {
    auto transport = std::make_shared<rpc::TcpTransport>(host, port);
    const rpc::Topology topo = rpc::fetch_topology(*transport);

    // External data providers live in their own daemons, not behind the
    // manager's address; the topology carries their endpoints (v6).
    for (const auto& ep : topo.provider_endpoints) {
        transport->add_peer(
            ep.node,
            rpc::Endpoint{ep.host, static_cast<std::uint16_t>(ep.port)});
    }

    ClientEnv env;
    env.transport = std::move(transport);
    env.self = topo.client_id;
    env.vm_nodes = topo.vm_nodes;
    env.pm_node = topo.pm_node;
    env.data_nodes = topo.data_nodes;
    env.content_addressed = topo.content_addressed;
    for (const NodeId node : topo.meta_nodes) {
        env.meta_ring.add_node(node);
    }
    env.meta_replication = topo.meta_replication;
    env.default_replication = topo.default_replication;
    env.meta_cache_nodes = options.meta_cache_nodes;
    env.io_threads = options.io_threads;
    env.max_inflight_chunks = options.max_inflight_chunks;
    env.publish_timeout = milliseconds(topo.publish_timeout_ms);
    env.uid_epoch = topo.uid_epoch;
    return env;
}

}  // namespace blobseer::core
