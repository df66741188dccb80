// Child processes of a run: the uctr_serve / uctr_router / uctr_selftrain
// binaries under test. Every process is stopped and reaped before the
// driver exits (the destructor kills and waits as a backstop).
#ifndef E2EBENCH_PROC_H_
#define E2EBENCH_PROC_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/result.h"
#include "util.h"

namespace e2e {

class Process {
 public:
  Process() = default;
  ~Process();
  Process(Process&& other) noexcept;
  Process& operator=(Process&& other) noexcept;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Starts argv[0] with stdout discarded and stderr written to
  /// `stderr_path` (truncated first).
  static uctr::Result<Process> Spawn(const std::vector<std::string>& argv,
                                     const std::string& stderr_path);

  /// Waits for the "listening on HOST:PORT" announcement on stderr and
  /// returns the port; fails when the process exits or `timeout_s` passes.
  uctr::Result<int> WaitForPort(double timeout_s);

  /// Sends `sig` (unless the process already exited), reaps it, and
  /// returns its exit status word. `peak_rss_mb` receives the process's
  /// peak resident set (ru_maxrss, i.e. VmHWM).
  int Stop(int sig, double* peak_rss_mb = nullptr);
  /// Waits for a normal exit without signalling; fails after `timeout_s`.
  /// `cpu_s` receives the process's user + system CPU time.
  uctr::Result<int> Wait(double timeout_s, double* peak_rss_mb = nullptr,
                         double* cpu_s = nullptr);

  /// User + system CPU time the running process has used so far
  /// (/proc/<pid>/stat), 0 when it cannot be read. Time the hypervisor
  /// stole is not charged to the process, so CPU per request stays steady
  /// while wall-clock rates swing with the host's load.
  double CpuSeconds() const;

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  const std::string& stderr_path() const { return stderr_path_; }

 private:
  int Reap(int options, double* peak_rss_mb, bool* reaped,
           double* cpu_s = nullptr);

  pid_t pid_ = -1;
  std::string stderr_path_;
};

}  // namespace e2e

#endif  // E2EBENCH_PROC_H_
