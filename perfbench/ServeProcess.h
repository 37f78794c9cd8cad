#ifndef PERFBENCH_SERVEPROCESS_H_
#define PERFBENCH_SERVEPROCESS_H_

/**
 * @file
 * A `batchzk serve` child process on an ephemeral loopback port: spawn,
 * read the bound port from its banner line, sample its CPU time and
 * peak RSS from /proc, and stop it (SIGTERM, then SIGKILL) and reap it.
 * The destructor always stops and reaps, so no child outlives the
 * benchmark.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "Workload.h"

extern char **environ;

namespace perfbench {

class ServeProcess
{
  public:
    ServeProcess() = default;
    ServeProcess(const ServeProcess &) = delete;
    ServeProcess &operator=(const ServeProcess &) = delete;
    ~ServeProcess() { stop(); }

    /**
     * Spawn `@p binary serve --port 0 ...` and wait up to @p timeout_ms
     * for its "serving on 127.0.0.1:PORT" banner. Returns the port.
     */
    std::optional<uint16_t>
    start(const std::string &binary, unsigned max_n_vars, size_t workers,
          double timeout_ms = 20000.0)
    {
        // Close-on-exec: only the dup2'ed stdout reaches the child.
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            return std::nullopt;
        std::vector<std::string> args = {
            binary,        "serve",
            "--port",      "0",
            "--log-gates", std::to_string(max_n_vars),
            "--threads",   std::to_string(workers)};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        out_fd_ = fds[0];
        if (rc != 0) {
            pid_ = -1;
            return std::nullopt;
        }
        double deadline = nowMs() + timeout_ms;
        std::string line;
        while (nowMs() < deadline) {
            pollfd pfd = {out_fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 10) <= 0)
                continue;
            char c;
            ssize_t n = ::read(out_fd_, &c, 1);
            if (n <= 0)
                return std::nullopt;
            if (c != '\n') {
                line.push_back(c);
                continue;
            }
            unsigned port = 0;
            if (std::sscanf(line.c_str(), "serving on 127.0.0.1:%u",
                            &port) == 1)
                return static_cast<uint16_t>(port);
            line.clear();
        }
        return std::nullopt;
    }

    /** utime + stime of the child so far, ms. */
    double
    cpuMs() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
        std::string s((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        auto close_paren = s.rfind(')');
        if (close_paren == std::string::npos)
            return -1.0;
        std::istringstream rest(s.substr(close_paren + 2));
        std::string field;
        unsigned long long utime = 0, stime = 0;
        for (int i = 3; i <= 15 && rest >> field; ++i) {
            if (i == 14)
                utime = std::stoull(field);
            if (i == 15)
                stime = std::stoull(field);
        }
        return static_cast<double>(utime + stime) * 1e3 /
               static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

    /** VmHWM (peak resident set) of the child, MB. */
    double
    peakRssMb() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (f >> key) {
            if (key == "VmHWM:") {
                double kb = 0;
                f >> kb;
                return kb / 1024.0;
            }
            std::string rest;
            std::getline(f, rest);
        }
        return -1.0;
    }

    /** SIGTERM, wait up to 10 s, then SIGKILL; always reaps. Returns
     *  true when the child exited with status 0 after SIGTERM. */
    bool
    stop()
    {
        bool clean = false;
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            int status = 0;
            double deadline = nowMs() + 10000.0;
            pid_t r = 0;
            while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
                   nowMs() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            if (r == 0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
            } else {
                clean = r == pid_ && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;
            }
            pid_ = -1;
        }
        if (out_fd_ >= 0) {
            ::close(out_fd_);
            out_fd_ = -1;
        }
        return clean;
    }

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SERVEPROCESS_H_
