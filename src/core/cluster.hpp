/// \file cluster.hpp
/// \brief In-process BlobSeer deployment.
///
/// Owns every simulated process of one deployment (paper §I-B.2): the
/// version manager, the provider manager, N data providers and M metadata
/// providers, all registered on one simulated network. Clients are minted
/// with make_client(); each gets its own network node, metadata cache and
/// I/O thread pool, so "64 concurrent clients" in an experiment means 64
/// independent client objects driven from 64 threads.
///
/// Fault-injection helpers (kill/recover/degrade) wrap the network-level
/// primitives and keep the provider manager's liveness view in sync the
/// way heartbeats would.

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "dht/metadata_provider.hpp"
#include "dht/ring.hpp"
#include "net/sim_network.hpp"
#include "provider/data_provider.hpp"
#include "provider/provider_manager.hpp"
#include "provider/repair_worker.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/routed_transport.hpp"
#include "rpc/sim_transport.hpp"
#include "version/version_manager.hpp"

namespace blobseer::engine {
class LogEngine;
}  // namespace blobseer::engine

namespace blobseer::core {

class BlobSeerClient;

/// The chunk store cfg.store selects, rooted at disk_root / \p dir_name
/// (file cache, if any, at <file-cache root> / \p dir_name). Cluster
/// passes "dp-<index>", a standalone provider daemon "dp-<name>".
[[nodiscard]] std::unique_ptr<chunk::ChunkStore> make_chunk_store(
    const ClusterConfig& cfg, const std::string& dir_name);

class Cluster {
  public:
    explicit Cluster(ClusterConfig config);
    ~Cluster();

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    [[nodiscard]] const ClusterConfig& config() const noexcept {
        return config_;
    }

    // ---- service access (experiments and tests) -------------------------

    [[nodiscard]] net::SimNetwork& network() noexcept { return net_; }
    /// Version-manager shard \p i (shard 0 — the only one in unsharded
    /// deployments — when omitted). Throws on an out-of-range shard.
    [[nodiscard]] version::VersionManager& version_manager(
        std::size_t i = 0) {
        return *vms_.at(i);
    }
    [[nodiscard]] std::size_t version_manager_count() const noexcept {
        return vms_.size();
    }
    [[nodiscard]] provider::ProviderManager& provider_manager() noexcept {
        return pm_;
    }
    /// Node of version-manager shard 0 (single-shard callers).
    [[nodiscard]] NodeId version_manager_node() const noexcept {
        return vm_nodes_.front();
    }
    /// Shard-indexed version-manager nodes.
    [[nodiscard]] const std::vector<NodeId>& version_manager_nodes()
        const noexcept {
        return vm_nodes_;
    }
    [[nodiscard]] NodeId provider_manager_node() const noexcept {
        return pm_node_;
    }

    [[nodiscard]] std::size_t data_provider_count() const noexcept {
        return data_providers_.size();
    }
    [[nodiscard]] provider::DataProvider& data_provider(std::size_t i) {
        return *data_providers_.at(i);
    }
    [[nodiscard]] std::size_t metadata_provider_count() const noexcept {
        return meta_providers_.size();
    }
    [[nodiscard]] dht::MetadataProvider& metadata_provider(std::size_t i) {
        return *meta_providers_.at(i);
    }

    [[nodiscard]] const dht::Ring& meta_ring() const noexcept { return ring_; }

    /// Server-side RPC skeleton fronting every service of this
    /// deployment. SimTransport clients dispatch into it inline; a
    /// TcpRpcServer (blobseer_serverd) serves it over real sockets.
    [[nodiscard]] rpc::Dispatcher& dispatcher() noexcept {
        return dispatcher_;
    }

    /// The topology advertised to remote clients (kTopology RPC).
    [[nodiscard]] rpc::Topology topology() const;

    /// node-id -> service maps used by client stubs.
    [[nodiscard]] const std::unordered_map<NodeId, provider::DataProvider*>&
    data_provider_map() const noexcept {
        return dp_by_node_;
    }
    [[nodiscard]] const std::unordered_map<NodeId, dht::MetadataProvider*>&
    meta_provider_map() const noexcept {
        return mp_by_node_;
    }

    // ---- clients -----------------------------------------------------------

    /// Mint a client with its own network identity.
    [[nodiscard]] std::unique_ptr<BlobSeerClient> make_client(
        const std::string& name = "client");

    // ---- fault injection -----------------------------------------------------

    /// Kill data provider \p i. \p lose_volatile additionally wipes its
    /// RAM contents (RAM-backed stores lose everything; tiered stores
    /// only lose their caches).
    void kill_data_provider(std::size_t i, bool lose_volatile = false);
    void recover_data_provider(std::size_t i);

    void kill_metadata_provider(std::size_t i, bool lose_state = false);
    void recover_metadata_provider(std::size_t i);

    /// Degrade (slow down) a data provider, the QoS study's "flaky node".
    void degrade_data_provider(std::size_t i, double factor,
                               Duration extra_latency = {});
    void restore_data_provider(std::size_t i);

    // ---- membership & repair (protocol v6) -------------------------------

    /// Synchronously drain the repair queue; returns the replica copies
    /// created. Tests call this instead of waiting on the background
    /// worker (which only runs when config.repair_interval > 0).
    std::uint64_t drain_repairs() { return repair_worker_->drain_once(); }

    [[nodiscard]] provider::RepairWorker& repair_worker() noexcept {
        return *repair_worker_;
    }

  private:
    ClusterConfig config_;
    net::SimNetwork net_;

    /// Per-shard operation journals backing vms_ when
    /// durable_version_manager is set (each shard shares ownership of
    /// its own; see VersionManager::attach_journal).
    std::vector<std::shared_ptr<engine::LogEngine>> vm_journals_;
    /// Boot counter of this disk root (0 = volatile deployment): keeps
    /// chunk uids minted by restarted deployments disjoint from every
    /// earlier boot's (see BlobSeerClient::next_uid).
    std::uint64_t uid_epoch_ = 0;
    /// Version-manager shards, indexed by shard (= blob_shard of every
    /// blob they own).
    std::vector<std::unique_ptr<version::VersionManager>> vms_;
    std::vector<NodeId> vm_nodes_;

    provider::ProviderManager pm_;
    NodeId pm_node_ = kInvalidNode;

    std::vector<std::unique_ptr<provider::DataProvider>> data_providers_;
    std::vector<std::unique_ptr<dht::MetadataProvider>> meta_providers_;
    std::unordered_map<NodeId, provider::DataProvider*> dp_by_node_;
    std::unordered_map<NodeId, dht::MetadataProvider*> mp_by_node_;

    dht::Ring ring_;
    rpc::Dispatcher dispatcher_;
    /// Atomic: experiments mint clients from many threads at once.
    std::atomic<std::size_t> next_client_{0};

    // Membership & repair. Declared last: the worker and the heartbeat
    // sweeper reference every service above, so they must die first.
    NodeId repair_node_ = kInvalidNode;
    std::unique_ptr<rpc::SimTransport> repair_sim_;
    /// The worker's transport: simulated wire to in-process providers,
    /// per-node TCP routes to external daemons (added on announce).
    std::unique_ptr<rpc::RoutedTransport> repair_transport_;
    std::unique_ptr<provider::RepairWorker> repair_worker_;
    std::condition_variable_any heartbeat_cv_;
    std::jthread heartbeat_thread_;
};

}  // namespace blobseer::core
