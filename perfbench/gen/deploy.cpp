#include "deploy.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string describe_status(int status) {
    if (WIFEXITED(status)) {
        return "exited with code " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
        return std::string("killed by signal ") + strsignal(WTERMSIG(status));
    }
    return "stopped";
}

}  // namespace

Deployment::Deployment(const std::string& serverd, fs::path root,
                       const DaemonConfig& cfg)
    : root_(std::move(root)) {
    fs::remove_all(root_);
    fs::create_directories(root_);

    std::vector<std::string> common = {"--bind", "127.0.0.1", "--port", "0",
                                       "--store", cfg.store};
    if (cfg.cas) {
        common.push_back("--cas");
    }
    if (cfg.compress_cold) {
        common.push_back("--compress-cold");
    }
    manager_flags_ = common;
    for (const char* f : {"--data-providers", "0", "--meta-providers", "4",
                          "--replication", "2"}) {
        manager_flags_.emplace_back(f);
    }
    provider_flags_ = common;
    if (cfg.ram_cache_mb > 0) {
        provider_flags_.push_back("--ram-cache-mb");
        provider_flags_.push_back(std::to_string(cfg.ram_cache_mb));
    }
    if (cfg.file_cache_mb > 0) {
        provider_flags_.push_back("--file-cache-mb");
        provider_flags_.push_back(std::to_string(cfg.file_cache_mb));
    }

    try {
        daemons_.push_back(Daemon{"manager", -1, root_ / "manager.log"});
        std::vector<std::string> margs = {serverd};
        margs.insert(margs.end(), manager_flags_.begin(), manager_flags_.end());
        margs.insert(margs.end(), {"--disk-root", (root_ / "manager").string()});
        spawn(daemons_[0], margs);
        const std::string line = await_line(daemons_[0], "listening on 127.0.0.1:");
        const auto at = line.find("127.0.0.1:") + 10;
        port_ = static_cast<std::uint16_t>(std::stoi(line.substr(at)));

        for (int i = 0; i < kProviders; ++i) {
            daemons_.push_back(Daemon{"p" + std::to_string(i), -1,
                                      root_ / ("p" + std::to_string(i) + ".log")});
        }
        for (int i = 1; i <= kProviders; ++i) {
            Daemon& d = daemons_[static_cast<std::size_t>(i)];
            std::vector<std::string> pargs = {serverd, "--provider", "--join",
                                              "127.0.0.1:" + std::to_string(port_),
                                              "--name", d.name};
            pargs.insert(pargs.end(), provider_flags_.begin(), provider_flags_.end());
            pargs.insert(pargs.end(), {"--disk-root", (root_ / "providers").string()});
            if (cfg.file_cache_mb > 0) {
                pargs.insert(pargs.end(),
                             {"--file-cache-dir", (root_ / "file-cache").string()});
            }
            spawn(d, pargs);
        }
        for (int i = 1; i <= kProviders; ++i) {
            (void)await_line(daemons_[static_cast<std::size_t>(i)], " listening on ");
        }
    } catch (...) {
        (void)stop();
        throw;
    }
}

Deployment::~Deployment() { (void)stop(); }

void Deployment::spawn(Daemon& d, const std::vector<std::string>& args) {
    // Everything the child touches is prepared before fork: between fork
    // and exec only async-signal-safe calls are allowed.
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const std::string log = d.log.string();
    const pid_t parent = getpid();

    const pid_t pid = fork();
    if (pid < 0) {
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) {
            _exit(127);
        }
        const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int null_fd = open("/dev/null", O_RDONLY);
        if (fd < 0 || null_fd < 0) {
            _exit(127);
        }
        dup2(null_fd, 0);
        dup2(fd, 1);
        dup2(fd, 2);
        close_range(3, ~0U, 0);  // no inherited client sockets
        execv(argv[0], argv.data());
        _exit(127);
    }
    d.pid = pid;
}

std::string Deployment::await_line(Daemon& d, const std::string& marker) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
        const std::string text = slurp(d.log);
        if (const auto at = text.find(marker); at != std::string::npos) {
            const auto begin = text.rfind('\n', at);
            const auto end = text.find('\n', at);
            if (end != std::string::npos) {
                return text.substr(begin == std::string::npos ? 0 : begin + 1,
                                   end - (begin == std::string::npos ? 0 : begin + 1));
            }
        }
        int status = 0;
        if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
            d.reaped = true;
            throw std::runtime_error("daemon " + d.name + " " +
                                     describe_status(status) +
                                     " during startup: " + slurp(d.log));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("daemon " + d.name + " never printed '" + marker +
                             "': " + slurp(d.log));
}

std::string Deployment::dead_daemon() {
    for (auto& d : daemons_) {
        if (d.reaped || d.pid < 0) {
            continue;
        }
        int status = 0;
        if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
            d.reaped = true;
            return "daemon " + d.name + " " + describe_status(status) + ": " +
                   slurp(d.log);
        }
    }
    return {};
}

std::uint64_t Deployment::cpu_us() const {
    const long ticks_per_s = sysconf(_SC_CLK_TCK);
    std::uint64_t ticks = 0;
    for (const auto& d : daemons_) {
        const std::string stat =
            slurp(fs::path("/proc") / std::to_string(d.pid) / "stat");
        const auto close = stat.rfind(')');
        if (close == std::string::npos) {
            throw std::runtime_error("cannot read CPU time of daemon " + d.name);
        }
        std::istringstream fields(stat.substr(close + 2));
        std::string field;
        // After "pid (comm) " the fields start at #3 (state); utime and
        // stime are #14 and #15.
        for (int i = 3; i <= 15 && fields >> field; ++i) {
            if (i >= 14) {
                ticks += std::stoull(field);
            }
        }
    }
    return ticks * 1'000'000ULL / static_cast<std::uint64_t>(ticks_per_s);
}

std::uint64_t Deployment::peak_rss_kib() const {
    std::uint64_t kib = 0;
    for (const auto& d : daemons_) {
        std::ifstream in(fs::path("/proc") / std::to_string(d.pid) / "status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0) {
                kib += std::stoull(line.substr(6));
            }
        }
    }
    return kib;
}

std::uint64_t Deployment::provider_engine_bytes() const {
    std::uint64_t bytes = 0;
    for (int i = 0; i < kProviders; ++i) {
        const fs::path dir = root_ / "providers" / ("dp-p" + std::to_string(i));
        if (!fs::exists(dir)) {
            continue;
        }
        for (const auto& e : fs::recursive_directory_iterator(dir)) {
            if (e.is_regular_file()) {
                bytes += e.file_size();
            }
        }
    }
    return bytes;
}

std::string Deployment::stop() {
    if (stopped_) {
        return {};
    }
    stopped_ = true;
    std::string problems;
    for (auto& d : daemons_) {
        if (d.pid > 0 && !d.reaped) {
            kill(d.pid, SIGTERM);
        }
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (auto& d : daemons_) {
        if (d.pid <= 0 || d.reaped) {
            continue;
        }
        int status = 0;
        while (waitpid(d.pid, &status, WNOHANG) != d.pid) {
            if (std::chrono::steady_clock::now() >= deadline) {
                kill(d.pid, SIGKILL);
                waitpid(d.pid, &status, 0);
                problems += "daemon " + d.name + " ignored SIGTERM; ";
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        d.reaped = true;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            problems += "daemon " + d.name + " " + describe_status(status) + "; ";
        }
    }
    std::error_code ec;
    fs::remove_all(root_, ec);
    return problems;
}

}  // namespace perfbench
