/// \file deploy.hpp
/// \brief A real TCP deployment: one manager daemon with no in-process
///        data providers plus three `--provider` daemons joined to it,
///        each on an ephemeral loopback port over a fresh disk root.
///
/// Daemons are spawned from the thread that owns the Deployment with
/// PR_SET_PDEATHSIG, so they cannot outlive a crashed generator. The
/// destructor SIGTERMs and reaps every daemon and removes the disk root.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// Daemon flags a workload varies; everything else is fixed.
struct DaemonConfig {
    std::string store;  ///< --store backend
    bool cas = false;
    bool compress_cold = false;
    int ram_cache_mb = 0;   ///< 0 = flag omitted
    int file_cache_mb = 0;  ///< 0 = flag omitted
};

class Deployment {
  public:
    static constexpr int kProviders = 3;

    /// Spawn and wait until the manager listens and every provider has
    /// announced itself. Throws std::runtime_error (after cleaning up)
    /// when a daemon dies or never comes up.
    Deployment(const std::string& serverd, std::filesystem::path root,
               const DaemonConfig& cfg);
    ~Deployment();
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Manager flags and provider flags, as passed (for the run record).
    [[nodiscard]] const std::vector<std::string>& manager_flags() const {
        return manager_flags_;
    }
    [[nodiscard]] const std::vector<std::string>& provider_flags() const {
        return provider_flags_;
    }

    /// Empty when every daemon is alive, else which one exited and how.
    [[nodiscard]] std::string dead_daemon();

    /// user+sys CPU of all daemons, in microseconds.
    [[nodiscard]] std::uint64_t cpu_us() const;
    /// Sum of the daemons' peak resident set sizes (VmHWM), in KiB.
    [[nodiscard]] std::uint64_t peak_rss_kib() const;
    /// Bytes in the providers' engine directories (file cache excluded).
    [[nodiscard]] std::uint64_t provider_engine_bytes() const;

    /// SIGTERM, reap and remove the disk root. Returns an empty string
    /// when every daemon exited 0, else what went wrong. Idempotent.
    std::string stop();

  private:
    struct Daemon {
        std::string name;
        pid_t pid = -1;
        std::filesystem::path log;
        bool reaped = false;
    };

    void spawn(Daemon& d, const std::vector<std::string>& args);
    /// Poll \p d's log for a line containing \p marker; returns the line.
    std::string await_line(Daemon& d, const std::string& marker);

    std::filesystem::path root_;
    std::vector<Daemon> daemons_;  // [0] = manager
    std::vector<std::string> manager_flags_;
    std::vector<std::string> provider_flags_;
    std::uint16_t port_ = 0;
    bool stopped_ = false;
};

}  // namespace perfbench
