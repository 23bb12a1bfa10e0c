/// \file provider_manager.hpp
/// \brief The provider manager: decides where chunks go and keeps them
///        replicated.
///
/// Paper §I-B.2: "a provider manager decides which chunks are stored on
/// which data providers when writes or appends are issued" and §I-B.3:
/// "A configurable chunk distribution strategy is employed ... (for
/// example, round-robin can be used to achieve load-balancing)."
///
/// Three strategies are provided; all of them honor liveness and the QoS
/// health feedback of §IV-E (a provider classified as "dangerous" by the
/// behaviour model is deprioritized until it recovers).
///
/// Since protocol v6 the manager also runs active membership and repair
/// (DESIGN.md §12): external provider daemons join by name, announce
/// their endpoint + inventory and heartbeat with inventory deltas;
/// missed beats mark them dead, client failure reports are corroborated
/// against recent beats, and every liveness transition feeds a
/// LocationIndex + RepairQueue pair so a RepairWorker can restore the
/// replica count of every affected chunk. All membership state shares
/// one mutex with placement — the operations are tiny relative to the
/// data path they protect.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "provider/location_index.hpp"
#include "provider/repair_queue.hpp"

namespace blobseer::provider {

enum class PlacementStrategy : std::uint8_t {
    kRoundRobin,  ///< even spread; the paper's load-balancing default
    kRandom,      ///< uniform random (baseline for ablations)
    kLoadAware,   ///< least-assigned-bytes first
};

[[nodiscard]] inline const char* to_string(PlacementStrategy s) noexcept {
    switch (s) {
        case PlacementStrategy::kRoundRobin: return "round-robin";
        case PlacementStrategy::kRandom: return "random";
        case PlacementStrategy::kLoadAware: return "load-aware";
    }
    return "?";
}

/// Replica targets for each chunk of one write: plan[i] lists the
/// providers that must receive chunk i (distinct nodes, size = min(
/// replication, live providers)).
using PlacementPlan = std::vector<std::vector<NodeId>>;

class ProviderManager {
    /// mu_ held. Liveness predicate for the index's target calibration.
    /// Defined before its call sites: the deduced (lambda) return type
    /// must be known where the inventory paths below use it.
    [[nodiscard]] auto holder_alive() const {
        return [this](NodeId n) {
            const auto* e = find_entry(n);
            return e != nullptr && e->alive;
        };
    }

  public:
    explicit ProviderManager(PlacementStrategy strategy,
                             std::uint64_t seed = 42)
        : strategy_(strategy), rng_(seed) {
        metrics_.counter("pm_placements_total", {}, placements_);
        // Repair gauges are callbacks into the queue under mu_; the
        // registry never runs them while holding mu_ (snapshot takes its
        // own lock first and nothing under mu_ calls the registry), so
        // the order registry-lock -> mu_ is acyclic.
        metrics_.callback("repair_backlog", {}, [this] {
            const std::scoped_lock lock(mu_);
            return queue_->backlog();
        });
        metrics_.callback("repair_enqueued_total", {}, [this] {
            const std::scoped_lock lock(mu_);
            return queue_->counters().enqueued;
        });
        metrics_.callback("repair_completed_total", {}, [this] {
            const std::scoped_lock lock(mu_);
            return queue_->counters().completed;
        });
        metrics_.callback("repair_skipped_total", {}, [this] {
            const std::scoped_lock lock(mu_);
            return queue_->counters().skipped;
        });
        metrics_.callback("repair_failed_total", {}, [this] {
            const std::scoped_lock lock(mu_);
            return queue_->counters().failed;
        });
        metrics_.callback("repair_deferred_total", {}, [this] {
            const std::scoped_lock lock(mu_);
            return queue_->counters().deferred;
        });
        metrics_.callback("repair_backlog_peak", {}, [this] {
            const std::scoped_lock lock(mu_);
            return queue_->counters().high_water;
        });
        metrics_.callback("repair_under_replicated", {},
                          [this] { return under_replicated(); });
        metrics_.callback("pm_providers", {}, [this] {
            const std::scoped_lock lock(mu_);
            return entries_.size();
        });
        // One collector for the membership rows: providers join under
        // mu_, and binding per provider there would invert the
        // registry-lock -> mu_ order.
        metrics_.collector("pm_provider",
                           [this] { return membership_rows(now_ms()); });
    }

    /// Register an in-process data provider node (observed
    /// synchronously; never expected to heartbeat).
    void register_provider(NodeId node) {
        const std::scoped_lock lock(mu_);
        Entry e;
        e.node = node;
        entries_.push_back(std::move(e));
    }

    [[nodiscard]] std::size_t provider_count() const {
        const std::scoped_lock lock(mu_);
        return entries_.size();
    }

    /// Plan placement of \p n_chunks chunks of \p chunk_bytes each with
    /// the given replication factor. Throws RpcError when no live,
    /// healthy provider exists.
    [[nodiscard]] PlacementPlan place(std::uint64_t n_chunks,
                                      std::uint32_t replication,
                                      std::uint64_t chunk_bytes) {
        const std::scoped_lock lock(mu_);
        std::vector<std::size_t> eligible;
        eligible.reserve(entries_.size());
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].alive && entries_[i].health >= min_health_) {
                eligible.push_back(i);
            }
        }
        if (eligible.empty()) {
            // Degraded fallback: prefer an unhealthy-but-live provider
            // over failing the write outright.
            for (std::size_t i = 0; i < entries_.size(); ++i) {
                if (entries_[i].alive) {
                    eligible.push_back(i);
                }
            }
        }
        if (eligible.empty()) {
            throw RpcError("no live data providers");
        }
        const std::uint32_t copies = static_cast<std::uint32_t>(std::min<
            std::size_t>(replication, eligible.size()));

        PlacementPlan plan(n_chunks);
        for (auto& targets : plan) {
            targets = pick(eligible, copies, chunk_bytes);
        }
        placements_.add(n_chunks);
        return plan;
    }

    // ---- liveness & QoS feedback ---------------------------------------

    void mark_dead(NodeId node) { set_alive(node, false); }
    void mark_alive(NodeId node) { set_alive(node, true); }

    [[nodiscard]] bool is_alive(NodeId node) const {
        const std::scoped_lock lock(mu_);
        return entry_of(node).alive;
    }

    /// QoS feedback (paper §IV-E): health in [0,1]; providers below the
    /// eligibility threshold are avoided by placement until they recover.
    void set_health(NodeId node, double health) {
        const std::scoped_lock lock(mu_);
        entry_of(node).health = std::clamp(health, 0.0, 1.0);
    }

    [[nodiscard]] double health(NodeId node) const {
        const std::scoped_lock lock(mu_);
        return entry_of(node).health;
    }

    /// Bytes this manager has routed to \p node so far (the load signal
    /// the load-aware strategy balances).
    [[nodiscard]] std::uint64_t assigned_bytes(NodeId node) const {
        const std::scoped_lock lock(mu_);
        return entry_of(node).assigned_bytes;
    }

    [[nodiscard]] std::uint64_t placements() const {
        return placements_.get();
    }

    [[nodiscard]] PlacementStrategy strategy() const noexcept {
        return strategy_;
    }

    // ---- membership (protocol v6) --------------------------------------

    /// Monotonic wall reference for the heartbeat timestamps. Tests pass
    /// explicit times instead (virtual time), so suspicion logic never
    /// depends on real sleeps.
    [[nodiscard]] static std::uint64_t now_ms() {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /// Missed-beat threshold; also the suspicion window within which a
    /// client's failure report is out-voted by a recent heartbeat.
    void set_heartbeat_timeout_ms(std::uint64_t ms) {
        const std::scoped_lock lock(mu_);
        heartbeat_timeout_ms_ = ms;
    }

    struct JoinResult {
        NodeId node = kInvalidNode;
        bool rejoin = false;  ///< the name was seen before
    };

    /// An external provider daemon registers by stable name. Rejoining
    /// under the same name reclaims the same node id, which is what
    /// makes a restart look like a recovery instead of a new node.
    [[nodiscard]] JoinResult join(const std::string& name) {
        const std::scoped_lock lock(mu_);
        for (auto& e : entries_) {
            if (!e.name.empty() && e.name == name) {
                return {e.node, true};
            }
        }
        Entry e;
        e.node = next_external_id_++;
        e.name = name;
        e.alive = false;  // announce() activates it
        e.expected = true;
        entries_.push_back(std::move(e));
        return {entries_.back().node, false};
    }

    /// Endpoint + full-inventory announcement; activates the provider
    /// for placement and triggers the join-side repair scan. Fires the
    /// announce hook (outside the lock) so the deployment can add wire
    /// routes and refresh its advertised topology.
    void announce(NodeId node, const std::string& host, std::uint32_t port,
                  const std::vector<ChunkHolding>& inventory,
                  std::uint64_t at_ms = now_ms()) {
        {
            const std::scoped_lock lock(mu_);
            Entry& e = entry_of(node);
            e.host = host;
            e.port = port;
            e.expected = true;
            e.last_beat_ms = static_cast<std::int64_t>(at_ms);
            // Activate before applying the inventory (the node's own
            // liveness must not suppress target calibration), but run
            // the join-side repair scan after it (holdings count).
            const bool was_dead = !e.alive;
            e.alive = true;
            for (const ChunkHolding& h : inventory) {
                index_.note_stored(h.key, node, h.bytes, holder_alive());
            }
            if (was_dead) {
                handle_join(node);
            }
        }
        std::function<void(NodeId, const std::string&, std::uint32_t)> hook;
        {
            const std::scoped_lock lock(mu_);
            hook = announce_hook_;
        }
        if (hook) {
            hook(node, host, port);
        }
    }

    /// One heartbeat with incremental inventory deltas. Returns false
    /// when the node is unknown (manager restarted: the provider must
    /// re-join). A beat from a provider previously marked dead revives
    /// it — flap handling: the revival runs the same join-side scan,
    /// and queue dedup plus the worker's converged-check make any
    /// overlap with an in-flight repair a no-op.
    [[nodiscard]] bool heartbeat(NodeId node, std::uint64_t seq,
                                 const std::vector<ChunkHolding>& added,
                                 const std::vector<chunk::ChunkKey>& removed,
                                 std::uint64_t at_ms = now_ms()) {
        const std::scoped_lock lock(mu_);
        Entry* e = find_entry(node);
        if (e == nullptr || e->name.empty()) {
            return false;
        }
        e->last_beat_ms = static_cast<std::int64_t>(at_ms);
        e->beat_seq = seq;
        ++e->beats;
        const bool was_dead = !e->alive;
        e->alive = true;
        for (const ChunkHolding& h : added) {
            index_.note_stored(h.key, node, h.bytes, holder_alive());
        }
        for (const chunk::ChunkKey& key : removed) {
            index_.note_removed(key, node);
        }
        if (was_dead) {
            handle_join(node);
        }
        return true;
    }

    /// Sweep for missed beats: every expected provider whose last beat
    /// is older than the timeout is marked dead (with the death-side
    /// repair scan). Returns the newly dead nodes.
    std::vector<NodeId> check_heartbeats(std::uint64_t at_ms = now_ms()) {
        const std::scoped_lock lock(mu_);
        std::vector<NodeId> dead;
        if (heartbeat_timeout_ms_ == 0) {
            return dead;
        }
        for (auto& e : entries_) {
            if (!e.expected || !e.alive || e.last_beat_ms < 0) {
                continue;
            }
            const std::uint64_t last =
                static_cast<std::uint64_t>(e.last_beat_ms);
            if (at_ms > last && at_ms - last > heartbeat_timeout_ms_) {
                e.alive = false;
                handle_death(e.node);
                dead.push_back(e.node);
            }
        }
        return dead;
    }

    /// A client failed to reach \p suspect and reports it. The report is
    /// corroborated against membership: a heartbeating provider whose
    /// last beat is inside the suspicion window out-votes the reporter
    /// (the client likely hit a transient path problem), otherwise the
    /// report marks the provider dead and triggers repair. Providers
    /// that never heartbeat (in-process ones) have no alibi, so a single
    /// report kills them — the pre-v6 mark_dead semantics. Returns true
    /// iff the suspect is (now) considered dead.
    bool report_failure(NodeId suspect, NodeId reporter,
                        std::uint64_t at_ms = now_ms()) {
        (void)reporter;
        const std::scoped_lock lock(mu_);
        Entry* e = find_entry(suspect);
        if (e == nullptr) {
            return false;
        }
        if (!e->alive) {
            return true;  // already dead; repair is underway
        }
        if (e->expected && e->last_beat_ms >= 0 &&
            heartbeat_timeout_ms_ != 0) {
            const std::uint64_t last =
                static_cast<std::uint64_t>(e->last_beat_ms);
            if (at_ms >= last && at_ms - last <= heartbeat_timeout_ms_) {
                return false;  // fresh beat: the provider has an alibi
            }
        }
        e->alive = false;
        handle_death(suspect);
        return true;
    }

    /// Deployment hook fired after every announce (new endpoint joined).
    void set_announce_hook(
        std::function<void(NodeId, const std::string&, std::uint32_t)>
            hook) {
        const std::scoped_lock lock(mu_);
        announce_hook_ = std::move(hook);
    }

    /// Endpoints of every announced external provider (topology v6).
    struct ExternalEndpoint {
        NodeId node = kInvalidNode;
        std::string host;
        std::uint32_t port = 0;
    };
    [[nodiscard]] std::vector<ExternalEndpoint> external_endpoints() const {
        const std::scoped_lock lock(mu_);
        std::vector<ExternalEndpoint> out;
        for (const auto& e : entries_) {
            if (!e.name.empty() && e.port != 0) {
                out.push_back({e.node, e.host, e.port});
            }
        }
        return out;
    }

    // ---- repair --------------------------------------------------------

    /// Minimum live-replica target for every known chunk, regardless of
    /// its observed high-water holder count. Chunks written during an
    /// outage never reach full fanout; the floor lets repair finish the
    /// job once capacity returns.
    void set_repair_floor(std::size_t floor) {
        const std::scoped_lock lock(mu_);
        repair_floor_ = floor;
    }

    /// Persist the pending-repair set across manager restarts. Replays
    /// surviving records into the queue immediately.
    void open_repair_journal(const std::string& path) {
        const std::scoped_lock lock(mu_);
        auto journaled = std::make_unique<RepairQueue>(path);
        // Carry over anything already queued in-memory (normally none:
        // the journal is opened at boot, before membership changes).
        while (const auto key = queue_->pop()) {
            (void)journaled->enqueue(*key);
        }
        queue_ = std::move(journaled);
    }

    /// Inventory observers (in-process providers report synchronously;
    /// the dispatcher's announce/beat handlers call these for daemons).
    void note_chunk_stored(NodeId node, const chunk::ChunkKey& key,
                           std::uint64_t bytes) {
        const std::scoped_lock lock(mu_);
        index_.note_stored(key, node, bytes, holder_alive());
    }
    void note_chunk_removed(NodeId node, const chunk::ChunkKey& key) {
        const std::scoped_lock lock(mu_);
        index_.note_removed(key, node);
    }
    /// The node lost its data (volatile store wiped): forget holdings
    /// but keep targets, so repair knows what to restore.
    void drop_holdings(NodeId node) {
        const std::scoped_lock lock(mu_);
        index_.drop_node(node);
    }

    /// What the repair worker should do about \p key right now.
    struct RepairPlan {
        enum class Action : std::uint8_t {
            kSkip,   ///< converged (or key no longer tracked)
            kDefer,  ///< no live source or no live destination yet
            kCopy,   ///< pull from a source, push to dest
        };
        Action action = Action::kSkip;
        std::vector<NodeId> sources;  ///< live holders, preference order
        NodeId dest = kInvalidNode;
        std::uint64_t bytes = 0;
    };

    [[nodiscard]] std::optional<chunk::ChunkKey> next_repair() {
        const std::scoped_lock lock(mu_);
        return queue_->pop();
    }

    [[nodiscard]] RepairPlan repair_plan(const chunk::ChunkKey& key) const {
        const std::scoped_lock lock(mu_);
        RepairPlan plan;
        const std::size_t want = index_.target(key, repair_floor_);
        if (want == 0) {
            return plan;  // key vanished from the index: nothing to do
        }
        const std::vector<NodeId> holders = index_.holders(key);
        std::vector<NodeId> live;
        for (const NodeId n : holders) {
            const Entry* e = find_entry(n);
            if (e != nullptr && e->alive) {
                live.push_back(n);
            }
        }
        if (live.size() >= want) {
            return plan;  // converged
        }
        if (live.empty()) {
            // Every copy is on dead nodes: deferring keeps the key armed
            // for the holders' rejoin instead of spinning.
            plan.action = RepairPlan::Action::kDefer;
            return plan;
        }
        // Destination: the least-loaded live provider that holds no copy
        // (dead holders excluded too — their copy resurfaces on rejoin).
        NodeId dest = kInvalidNode;
        std::uint64_t dest_load = std::numeric_limits<std::uint64_t>::max();
        for (const auto& e : entries_) {
            if (!e.alive ||
                std::find(holders.begin(), holders.end(), e.node) !=
                    holders.end()) {
                continue;
            }
            const std::uint64_t load = index_.holdings_of(e.node);
            if (load < dest_load) {
                dest_load = load;
                dest = e.node;
            }
        }
        if (dest == kInvalidNode) {
            plan.action = RepairPlan::Action::kDefer;
            return plan;
        }
        plan.action = RepairPlan::Action::kCopy;
        plan.sources = std::move(live);
        plan.dest = dest;
        plan.bytes = index_.bytes_of(key);
        return plan;
    }

    /// One copy landed on \p dest; the worker calls repair_plan again to
    /// see whether the key needs more.
    void note_repaired(const chunk::ChunkKey& key, NodeId dest,
                       std::uint64_t bytes) {
        const std::scoped_lock lock(mu_);
        index_.note_repaired(key, dest, bytes);
    }

    void finish_repair(const chunk::ChunkKey& key, bool copied) {
        const std::scoped_lock lock(mu_);
        queue_->finish(key, copied);
    }
    void defer_repair(const chunk::ChunkKey& key) {
        const std::scoped_lock lock(mu_);
        queue_->defer(key);
    }
    void retry_repair(const chunk::ChunkKey& key) {
        const std::scoped_lock lock(mu_);
        queue_->retry(key);
    }

    [[nodiscard]] std::size_t repair_backlog() const {
        const std::scoped_lock lock(mu_);
        return queue_->backlog();
    }

    /// Keys currently below their live-replica target (full index
    /// scan; the repair_under_replicated series).
    [[nodiscard]] std::uint64_t under_replicated() const {
        const std::scoped_lock lock(mu_);
        std::uint64_t n = 0;
        index_.scan_under_replicated(
            repair_floor_, holder_alive(),
            [&n](const chunk::ChunkKey&, std::size_t, std::size_t) {
                ++n;
            });
        return n;
    }

    [[nodiscard]] std::size_t chunk_holdings(NodeId node) const {
        const std::scoped_lock lock(mu_);
        return index_.holdings_of(node);
    }

  private:
    struct Entry {
        NodeId node = kInvalidNode;
        std::uint64_t assigned_bytes = 0;
        bool alive = true;
        double health = 1.0;
        // v6 membership (external daemons only; in-process providers
        // keep the defaults).
        std::string name;
        std::string host;
        std::uint32_t port = 0;
        bool expected = false;        ///< should heartbeat
        std::int64_t last_beat_ms = -1;
        std::uint64_t beat_seq = 0;
        std::uint64_t beats = 0;
    };

    /// One row of pm_provider_* series per provider, labelled by node.
    /// The last-beat age is absent until the provider first beats.
    [[nodiscard]] std::vector<MetricSample> membership_rows(
        std::uint64_t at_ms) const {
        const std::scoped_lock lock(mu_);
        std::vector<MetricSample> out;
        out.reserve(entries_.size() * 6);
        for (const auto& e : entries_) {
            const auto row = [&](const char* name, MetricKind kind,
                                 std::uint64_t value) {
                MetricSample s;
                s.name = name;
                s.labels = {{"node", std::to_string(e.node)}};
                s.kind = kind;
                s.value = value;
                out.push_back(std::move(s));
            };
            row("pm_provider_alive", MetricKind::kCallback, e.alive ? 1 : 0);
            row("pm_provider_heartbeating", MetricKind::kCallback,
                e.expected ? 1 : 0);
            row("pm_provider_beats_total", MetricKind::kCounter, e.beats);
            if (e.last_beat_ms >= 0) {
                const auto last = static_cast<std::uint64_t>(e.last_beat_ms);
                row("pm_provider_last_beat_age_ms", MetricKind::kCallback,
                    at_ms > last ? at_ms - last : 0);
            }
            row("pm_provider_chunks", MetricKind::kCallback,
                index_.holdings_of(e.node));
            row("pm_provider_bytes", MetricKind::kCallback,
                index_.bytes_held_by(e.node));
        }
        return out;
    }

    void set_alive(NodeId node, bool alive) {
        const std::scoped_lock lock(mu_);
        Entry& e = entry_of(node);
        if (e.alive == alive) {
            return;
        }
        e.alive = alive;
        // Liveness transitions drive repair no matter who caused them
        // (heartbeat sweep, failure report, or a direct mark_dead).
        if (alive) {
            handle_join(node);
        } else {
            handle_death(node);
        }
    }

    /// mu_ held. A provider died: every key it held whose live count is
    /// now short of target needs repair.
    void handle_death(NodeId node) {
        for (const chunk::ChunkKey& key : index_.keys_of(node)) {
            if (live_holders(key) < index_.target(key, repair_floor_)) {
                (void)queue_->enqueue(key);
            }
        }
    }

    /// mu_ held. A provider (re)joined: deferred repairs get another
    /// chance, and any key still short of target is (re)enqueued — this
    /// is also what rebalances onto the new capacity, since repair_plan
    /// prefers the least-loaded destination.
    void handle_join(NodeId node) {
        (void)node;
        (void)queue_->rearm_deferred();
        index_.scan_under_replicated(
            repair_floor_, holder_alive(),
            [this](const chunk::ChunkKey& key, std::size_t, std::size_t) {
                (void)queue_->enqueue(key);
            });
    }

    /// mu_ held.
    [[nodiscard]] std::size_t live_holders(
        const chunk::ChunkKey& key) const {
        std::size_t live = 0;
        for (const NodeId n : index_.holders(key)) {
            const Entry* e = find_entry(n);
            live += (e != nullptr && e->alive) ? 1 : 0;
        }
        return live;
    }

    [[nodiscard]] Entry* find_entry(NodeId node) {
        for (auto& e : entries_) {
            if (e.node == node) {
                return &e;
            }
        }
        return nullptr;
    }
    [[nodiscard]] const Entry* find_entry(NodeId node) const {
        return const_cast<ProviderManager*>(this)->find_entry(node);
    }

    [[nodiscard]] Entry& entry_of(NodeId node) {
        Entry* e = find_entry(node);
        if (e == nullptr) {
            throw NotFoundError("provider " + std::to_string(node));
        }
        return *e;
    }

    [[nodiscard]] const Entry& entry_of(NodeId node) const {
        return const_cast<ProviderManager*>(this)->entry_of(node);
    }

    /// Pick \p copies distinct providers from \p eligible. Caller holds
    /// mu_.
    [[nodiscard]] std::vector<NodeId> pick(
        const std::vector<std::size_t>& eligible, std::uint32_t copies,
        std::uint64_t chunk_bytes) {
        std::vector<std::size_t> chosen;
        chosen.reserve(copies);
        switch (strategy_) {
            case PlacementStrategy::kRoundRobin:
                for (std::uint32_t k = 0; k < copies; ++k) {
                    chosen.push_back(
                        eligible[(rr_next_ + k) % eligible.size()]);
                }
                ++rr_next_;
                break;

            case PlacementStrategy::kRandom:
                while (chosen.size() < copies) {
                    const std::size_t c =
                        eligible[rng_.below(eligible.size())];
                    if (std::find(chosen.begin(), chosen.end(), c) ==
                        chosen.end()) {
                        chosen.push_back(c);
                    }
                }
                break;

            case PlacementStrategy::kLoadAware: {
                std::vector<std::size_t> sorted = eligible;
                std::sort(sorted.begin(), sorted.end(),
                          [this](std::size_t a, std::size_t b) {
                              return entries_[a].assigned_bytes <
                                     entries_[b].assigned_bytes;
                          });
                for (std::uint32_t k = 0; k < copies; ++k) {
                    chosen.push_back(sorted[k]);
                }
                break;
            }
        }
        std::vector<NodeId> out;
        out.reserve(chosen.size());
        for (const std::size_t idx : chosen) {
            entries_[idx].assigned_bytes += chunk_bytes;
            out.push_back(entries_[idx].node);
        }
        return out;
    }

    const PlacementStrategy strategy_;
    const double min_health_ = 0.25;

    mutable std::mutex mu_;  // guards entries_, rr_next_, rng_,
                             // index_, queue_, membership knobs
    std::vector<Entry> entries_;
    std::size_t rr_next_ = 0;
    Rng rng_;

    Counter placements_;

    // v6 membership + repair
    std::uint64_t heartbeat_timeout_ms_ = 0;  // 0 = sweeps disabled
    /// External provider ids mint from 2^21: above every simulated node
    /// id, disjoint from the dispatcher's remote-client base (2^20) for
    /// the first ~1M handshakes, and still inside the 24-bit uid space.
    NodeId next_external_id_ = 1u << 21;
    std::function<void(NodeId, const std::string&, std::uint32_t)>
        announce_hook_;
    LocationIndex index_;
    std::unique_ptr<RepairQueue> queue_ = std::make_unique<RepairQueue>();
    std::size_t repair_floor_ = 1;
    /// Registry bindings; declared last so they unbind before the state
    /// the callbacks sample.
    MetricsGroup metrics_;
};

}  // namespace blobseer::provider
