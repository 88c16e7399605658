#pragma once
// Child processes and loopback sockets for the serve and cluster workloads.

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace mgbench {

// A child process started with posix_spawnp (safe from a multithreaded
// parent; argv[0] without a slash is looked up in PATH).  The destructor
// kills and reaps a child that is still running, so no error path leaves a
// process behind.
class Child {
 public:
  struct Options {
    // The child's stdout: -1 sends it to /dev/null, otherwise this fd.
    int stdout_fd = -1;
    // Inherited descriptors the child must not keep.
    std::vector<int> close_fds;
  };

  Child() = default;
  Child(const std::vector<std::string>& argv, const Options& opts);
  ~Child();
  Child(Child&& other) noexcept : pid_(std::exchange(other.pid_, -1)) {}
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Wait for exit up to `timeout_s`; a child still running then is killed.
  // Returns the exit code, or -1 when it was signalled or killed.
  int wait(double timeout_s);

 private:
  pid_t pid_ = -1;
};

// Path of the running executable (for re-executing mgbench in worker mode).
std::string self_exe();

// A listening loopback TCP socket on an OS-chosen port.  Created without
// close-on-exec so a spawned worker can inherit it.
int listen_loopback(int* port);

// Connect to 127.0.0.1:port (close-on-exec, TCP_NODELAY); -1 on failure.
int connect_loopback(int port);

// A currently free loopback port.
int free_port();

// Read everything from `fd` until EOF or `timeout_s`.
std::string read_all(int fd, double timeout_s);

// Peak resident set size in MB of this process (self) or of its reaped
// children (the largest one).
double peak_rss_mb(bool children);

}  // namespace mgbench
