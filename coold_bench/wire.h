// The benchmark's side of the wire: a forked coold process and the Unix
// socket connections the client drives it through.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace coold_bench {

using Clock = std::chrono::steady_clock;

// Milliseconds on the steady clock since the first call in this process.
double now_ms();

// One coold process serving <state_dir> on <socket_path>, with every other
// setting (fsync, obs, sessions, snapshot cadence, threads) at its default.
class Daemon {
 public:
  Daemon(std::string binary, std::string state_dir, std::string socket_path);
  ~Daemon();  // SIGKILLs and reaps a still-running child

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // fork + exec. Returns false when the fork fails.
  bool spawn();
  // SIGKILL, then wait until the process has ended.
  void kill9();
  // Peak resident set (VmHWM) of the live process in MiB; 0 if unreadable.
  double peak_rss_mb() const;
  // CPU time of the live process (every thread, ended ones too) in
  // milliseconds, from /proc/<pid>/stat; -1 each if unreadable. The kernel
  // leaves out time the hypervisor gave to other guests (steal).
  struct Cpu {
    double user_ms = -1.0;
    double system_ms = -1.0;
  };
  Cpu cpu() const;

  const std::string& state_dir() const noexcept { return state_dir_; }

 private:
  std::string binary_;
  std::string state_dir_;
  std::string socket_path_;
  pid_t pid_ = -1;
};

// A connected Unix socket speaking line-delimited frames. Writes block;
// reads happen only when poll() reports the descriptor readable.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  // One connect attempt. Returns false (and stays closed) on failure.
  bool connect(const std::string& path);
  // Retries connect every millisecond until it succeeds or timeout_ms passes.
  bool connect_retry(const std::string& path, double timeout_ms);
  void close();
  int fd() const noexcept { return fd_; }

  bool send_frame(const std::string& frame_with_newline);
  // Reads what is available (one read call) and appends complete lines to
  // `lines`. Returns false when the peer closed or the read failed.
  bool read_available(std::vector<std::string>& lines);
  // Blocking convenience: send one frame and wait for one line.
  bool exchange(const std::string& frame, std::string& reply, double timeout_ms);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Waits until any of `conns` is readable or `timeout_ms` passes; returns the
// indices that are readable (sub-millisecond timeouts are honoured).
std::vector<std::size_t> wait_readable(const std::vector<Conn*>& conns,
                                       double timeout_ms);

// CPU time of this VM from /proc/stat, summed over CPUs, in milliseconds:
// time spent running (user, nice, system, irq, softirq) and time the
// hypervisor gave to other guests while this VM wanted to run ("steal").
struct CpuTimes {
  double busy_ms = 0.0;
  double steal_ms = 0.0;
};
CpuTimes cpu_times();

// Filesystem type name of the filesystem holding `path` (statfs).
std::string filesystem_name(const std::string& path);

}  // namespace coold_bench
