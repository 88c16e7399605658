#include "proc.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "report.hpp"

extern char** environ;

namespace mgbench {

Child::Child(const std::vector<std::string>& argv, const Options& opts) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (opts.stdout_fd >= 0) {
    posix_spawn_file_actions_adddup2(&fa, opts.stdout_fd, 1);
  } else {
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  }
  for (const int fd : opts.close_fds) posix_spawn_file_actions_addclose(&fa, fd);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc =
      ::posix_spawnp(&pid_, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
}

Child::~Child() {
  if (pid_ > 0) wait(0.0);
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0) wait(0.0);
    pid_ = std::exchange(other.pid_, -1);
  }
  return *this;
}

int Child::wait(double timeout_s) {
  if (pid_ <= 0) return -1;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    if (now_s() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

namespace {

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

}  // namespace

int listen_loopback(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(0);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

int free_port() {
  int port = 0;
  const int fd = listen_loopback(&port);
  if (fd < 0) throw std::runtime_error("cannot bind a loopback port");
  ::close(fd);
  return port;
}

std::string read_all(int fd, double timeout_s) {
  std::string out;
  const double deadline = now_s() + timeout_s;
  char buf[4096];
  for (;;) {
    const double left = deadline - now_s();
    if (left <= 0.0) break;
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

double peak_rss_mb(bool children) {
  rusage ru{};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace mgbench
