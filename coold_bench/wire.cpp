#include "wire.h"

#include <fcntl.h>
#include <linux/magic.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace coold_bench {

double now_ms() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

Daemon::Daemon(std::string binary, std::string state_dir,
               std::string socket_path)
    : binary_(std::move(binary)),
      state_dir_(std::move(state_dir)),
      socket_path_(std::move(socket_path)) {}

Daemon::~Daemon() { kill9(); }

bool Daemon::spawn() {
  const std::string log_path = state_dir_ + ".log";
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // The daemon's own chatter goes to a log beside its state directory so
    // the benchmark's stdout stays one report.
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execl(binary_.c_str(), "coold", "--state-dir", state_dir_.c_str(),
            "--socket", socket_path_.c_str(), static_cast<char*>(nullptr));
    std::perror("execl coold");
    ::_exit(127);
  }
  return true;
}

void Daemon::kill9() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double Daemon::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

Daemon::Cpu Daemon::cpu() const {
  if (pid_ <= 0) return {};
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields 14 and 15 (utime, stime) in clock ticks; the command name in
  // field 2 may hold spaces, so count from its closing parenthesis.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  double utime = 0.0, stime = 0.0;
  if (!(fields >> utime >> stime)) return {};
  const double ms_per_tick = 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  return {utime * ms_per_tick, stime * ms_per_tick};
}

Conn::~Conn() { close(); }

bool Conn::connect(const std::string& path) {
  close();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  buffer_.clear();
  return true;
}

bool Conn::connect_retry(const std::string& path, double timeout_ms) {
  const double deadline = now_ms() + timeout_ms;
  while (!connect(path)) {
    if (now_ms() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Conn::send_frame(const std::string& frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Conn::read_available(std::vector<std::string>& lines) {
  char chunk[65536];
  ssize_t n = 0;
  do {
    n = ::read(fd_, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl = buffer_.find('\n'); nl != std::string::npos;
       nl = buffer_.find('\n', start)) {
    lines.emplace_back(buffer_, start, nl - start);
    start = nl + 1;
  }
  buffer_.erase(0, start);
  return true;
}

bool Conn::exchange(const std::string& frame, std::string& reply,
                    double timeout_ms) {
  if (!send_frame(frame + "\n")) return false;
  const double deadline = now_ms() + timeout_ms;
  std::vector<std::string> lines;
  std::vector<Conn*> self{this};
  while (lines.empty()) {
    const double left = deadline - now_ms();
    if (left <= 0) return false;
    if (wait_readable(self, left).empty()) continue;
    if (!read_available(lines)) return false;
  }
  reply = std::move(lines.front());
  return lines.size() == 1;
}

std::vector<std::size_t> wait_readable(const std::vector<Conn*>& conns,
                                       double timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(conns.size());
  for (const Conn* conn : conns) fds.push_back(pollfd{conn->fd(), POLLIN, 0});
  if (timeout_ms < 0) timeout_ms = 0;
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  timeout.tv_nsec = static_cast<long>(
      (timeout_ms - static_cast<double>(timeout.tv_sec) * 1000.0) * 1e6);
  std::vector<std::size_t> ready;
  const int n = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (n <= 0) return ready;
  for (std::size_t i = 0; i < fds.size(); ++i)
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) ready.push_back(i);
  return ready;
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  const double ms_per_tick = 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  return {(user + nice + system + irq + softirq) * ms_per_tick, steal * ms_per_tick};
}

std::string filesystem_name(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case EXT4_SUPER_MAGIC: return "ext4";
    case TMPFS_MAGIC: return "tmpfs";
    case OVERLAYFS_SUPER_MAGIC: return "overlayfs";
    case XFS_SUPER_MAGIC: return "xfs";
    case BTRFS_SUPER_MAGIC: return "btrfs";
    case 0x65735546UL: return "fuse";
    case 0x6e667364UL: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

}  // namespace coold_bench
