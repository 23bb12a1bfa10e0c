/// \file testing_util.hpp
/// \brief Shared helpers for integration tests: fast cluster configs (no
///        simulated network costs), pattern-data helpers, and the
///        reference weaving input for tree-builder tests.

#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.hpp"
#include "core/client.hpp"
#include "core/cluster.hpp"
#include "meta/write_descriptor.hpp"
#include "version/version_manager.hpp"

namespace blobseer::testing {

/// Cluster with zero network cost — correctness tests should not wait on
/// simulated wires.
inline core::ClusterConfig fast_config() {
    core::ClusterConfig cfg;
    cfg.network.latency = Duration::zero();
    cfg.network.node_bandwidth_bps = 0;
    cfg.data_providers = 4;
    cfg.metadata_providers = 2;
    cfg.publish_timeout = seconds(5);
    return cfg;
}

/// Write `size` pattern bytes tagged by (blob, tag) at `offset`; the tag
/// lets the reader verify which write produced the data.
inline Buffer tagged(BlobId blob, std::uint64_t tag, std::uint64_t offset,
                     std::size_t size) {
    return make_pattern(blob, tag, offset, size);
}

/// Assert helper: true iff every byte of \p data matches the (blob, tag)
/// pattern starting at \p offset.
inline bool matches(BlobId blob, std::uint64_t tag, std::uint64_t offset,
                    ConstBytes data) {
    return verify_pattern(blob, tag, offset, data) == -1;
}

/// The concurrent descriptors a writer weaves without the version
/// manager's border refs (meta::BuildInput::concurrent, the reference
/// path): every non-aborted version between the assign's published base
/// and the assigned version, ascending. Call before any abort that
/// follows the assign.
inline std::vector<meta::WriteDescriptor> concurrent_of(
    const version::VersionManager& vm, BlobId blob,
    const version::AssignResult& ar) {
    const Version published = ar.base.blob == blob ? ar.base.version : 0;
    std::vector<meta::WriteDescriptor> out;
    for (const auto& s : vm.history(blob, published + 1, ar.version - 1)) {
        if (s.status != version::VersionStatus::kAborted) {
            out.push_back(vm.descriptor_of(blob, s.version));
        }
    }
    return out;
}

}  // namespace blobseer::testing
