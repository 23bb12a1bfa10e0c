/// \file repair_worker.hpp
/// \brief Drains the provider manager's repair queue by re-replicating
///        chunks between data providers.
///
/// The worker is a client of the data-provider protocol: it reads a
/// whole chunk from a live holder with one chunk-get-batch and stores it
/// on the destination the manager planned with one chunk-put. CAS chunks
/// are first offered with check-before-push (a destination that already
/// holds the digest costs no transfer). All policy (which key,
/// which source, which destination, when a key is converged) lives in
/// ProviderManager::repair_plan; the worker only moves bytes.
///
/// Two modes: drain_once() synchronously empties the queue (tests and
/// benchmarks drive this against virtual time), and start() runs a
/// background thread draining every repair_interval (deployments).

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "provider/provider_manager.hpp"
#include "rpc/service_client.hpp"

namespace blobseer::provider {

class RepairWorker {
  public:
    struct Options {
        /// Deployment stores chunks content-addressed: repair offers
        /// check-before-push to the destination before shipping bytes.
        bool content_addressed = false;
        /// Failed attempts per key within one drain before deferring.
        std::size_t max_attempts = 2;
    };

    RepairWorker(ProviderManager& pm, rpc::Transport& transport,
                 std::vector<NodeId> vm_nodes, NodeId pm_node, NodeId self,
                 Options options)
        : pm_(pm),
          svc_(transport, std::move(vm_nodes), pm_node, self),
          options_(options) {}

    RepairWorker(ProviderManager& pm, rpc::Transport& transport,
                 std::vector<NodeId> vm_nodes, NodeId pm_node, NodeId self)
        : RepairWorker(pm, transport, std::move(vm_nodes), pm_node, self,
                       Options()) {}

    ~RepairWorker() { stop(); }

    RepairWorker(const RepairWorker&) = delete;
    RepairWorker& operator=(const RepairWorker&) = delete;

    /// Synchronously work the queue until it is empty or everything
    /// left is deferred. Returns the number of replica copies created.
    std::uint64_t drain_once() {
        const std::scoped_lock drain_lock(drain_mu_);
        std::uint64_t copies = 0;
        // Keys that failed transfer this drain; bounded retries, then
        // deferral — a drain always terminates.
        std::unordered_map<chunk::ChunkKey, std::size_t,
                           chunk::ChunkKeyHash>
            attempts;
        while (const auto key = pm_.next_repair()) {
            copies += repair_one(*key, attempts);
        }
        return copies;
    }

    /// Run the worker in the background, draining every \p interval.
    void start(Duration interval) {
        stop();
        thread_ = std::jthread([this, interval](std::stop_token stop) {
            std::mutex mu;
            std::unique_lock lock(mu);
            while (!stop.stop_requested()) {
                lock.unlock();
                try {
                    (void)drain_once();
                } catch (const std::exception& e) {
                    log_warn("repair", std::string("drain failed: ") +
                                           e.what());
                }
                lock.lock();
                (void)wake_.wait_for(lock, stop, interval,
                                     [] { return false; });
            }
        });
    }

    void stop() {
        if (thread_.joinable()) {
            thread_.request_stop();
            wake_.notify_all();
            thread_.join();
        }
    }

    /// Replica copies created / payload bytes moved since boot.
    [[nodiscard]] std::uint64_t chunks_repaired() const {
        return chunks_repaired_.get();
    }
    [[nodiscard]] std::uint64_t bytes_repaired() const {
        return bytes_repaired_.get();
    }

  private:
    /// Work one key to its terminal state for this drain: converged
    /// (finish), parked (defer), or requeued after a failed attempt.
    /// Returns the copies created.
    std::uint64_t repair_one(
        const chunk::ChunkKey& key,
        std::unordered_map<chunk::ChunkKey, std::size_t,
                           chunk::ChunkKeyHash>& attempts) {
        std::uint64_t copies = 0;
        for (;;) {
            const auto plan = pm_.repair_plan(key);
            using Action = ProviderManager::RepairPlan::Action;
            if (plan.action == Action::kSkip) {
                pm_.finish_repair(key, copies > 0);
                return copies;
            }
            if (plan.action == Action::kDefer) {
                pm_.defer_repair(key);
                return copies;
            }
            if (copy_once(key, plan)) {
                pm_.note_repaired(key, plan.dest, plan.bytes);
                chunks_repaired_.add();
                bytes_repaired_.add(plan.bytes);
                ++copies;
                continue;  // the key may still want more replicas
            }
            if (++attempts[key] < options_.max_attempts) {
                pm_.retry_repair(key);
            } else {
                pm_.defer_repair(key);
            }
            return copies;
        }
    }

    /// Move one replica: read it from the first source that answers, put
    /// it on the planned destination. Returns false when every source
    /// failed or the destination rejected the copy.
    bool copy_once(const chunk::ChunkKey& key,
                   const ProviderManager::RepairPlan& plan) {
        // CAS fast path: the destination may already hold the digest
        // (e.g. cross-blob dedup) — then the repair is one metadata-free
        // round-trip and zero payload bytes.
        if (options_.content_addressed && key.is_content()) {
            try {
                if (svc_.check_chunk(plan.dest, key, false, plan.bytes)) {
                    return true;
                }
            } catch (const Error& e) {
                log_debug("repair", std::string("dest check failed: ") +
                                        e.what());
                return false;
            }
        }
        Buffer payload;
        bool pulled = false;
        for (const NodeId source : plan.sources) {
            try {
                // Whole chunk in one read: the first key of a batch is
                // served whatever its size.
                payload = std::move(svc_.get_chunk(source, key, 0, 0).bytes);
                pulled = true;
                break;
            } catch (const Error& e) {
                log_debug("repair", std::string("pull from ") +
                                        std::to_string(source) +
                                        " failed: " + e.what());
            }
        }
        if (!pulled) {
            return false;
        }
        try {
            svc_.put_chunk(plan.dest, key, ConstBytes(payload));
        } catch (const Error& e) {
            log_debug("repair", std::string("push to ") +
                                    std::to_string(plan.dest) +
                                    " failed: " + e.what());
            return false;
        }
        return true;
    }

    ProviderManager& pm_;
    rpc::ServiceClient svc_;
    const Options options_;

    std::mutex drain_mu_;  // serializes drains (background vs manual)
    std::condition_variable_any wake_;
    std::jthread thread_;

    Counter chunks_repaired_;
    Counter bytes_repaired_;
};

}  // namespace blobseer::provider
