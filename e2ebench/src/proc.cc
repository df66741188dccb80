#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace e2e {

using uctr::Result;
using uctr::Status;

Process::~Process() {
  if (running()) Stop(SIGKILL);
}

Process::Process(Process&& other) noexcept
    : pid_(other.pid_), stderr_path_(std::move(other.stderr_path_)) {
  other.pid_ = -1;
}

Process& Process::operator=(Process&& other) noexcept {
  if (this != &other) {
    if (running()) Stop(SIGKILL);
    pid_ = other.pid_;
    stderr_path_ = std::move(other.stderr_path_);
    other.pid_ = -1;
  }
  return *this;
}

Result<Process> Process::Spawn(const std::vector<std::string>& argv,
                               const std::string& stderr_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    return Status::Unavailable(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The child dies
    // with the driver, so no server outlives an interrupted run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int in = open("/dev/null", O_RDONLY);
    int out = open("/dev/null", O_WRONLY);
    int err = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0 || err < 0) _exit(127);
    dup2(in, STDIN_FILENO);
    dup2(out, STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  Process p;
  p.pid_ = pid;
  p.stderr_path_ = stderr_path;
  return p;
}

int Process::Reap(int options, double* peak_rss_mb, bool* reaped,
                  double* cpu_s) {
  int status = 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  pid_t r;
  do {
    r = wait4(pid_, &status, options, &usage);
  } while (r < 0 && errno == EINTR);
  *reaped = r == pid_;
  if (*reaped || r < 0) {
    if (peak_rss_mb != nullptr) *peak_rss_mb = usage.ru_maxrss / 1024.0;
    if (cpu_s != nullptr) {
      *cpu_s = usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
               (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
    }
    pid_ = -1;
  }
  return status;
}

int Process::Stop(int sig, double* peak_rss_mb) {
  if (!running()) return 0;
  kill(pid_, sig);
  bool reaped = false;
  return Reap(0, peak_rss_mb, &reaped);
}

Result<int> Process::Wait(double timeout_s, double* peak_rss_mb,
                          double* cpu_s) {
  auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (running()) {
    bool reaped = false;
    int status = Reap(WNOHANG, peak_rss_mb, &reaped, cpu_s);
    if (reaped) return status;
    if (Clock::now() > deadline) {
      return Status::DeadlineExceeded("process did not exit in time");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::Internal("process already reaped");
}

double Process::CpuSeconds() const {
  if (!running()) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Result<int> Process::WaitForPort(double timeout_s) {
  auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  const std::string marker = "listening on ";
  while (Clock::now() < deadline) {
    std::ifstream in(stderr_path_);
    std::stringstream text;
    text << in.rdbuf();
    std::string s = text.str();
    size_t pos = s.find(marker);
    if (pos != std::string::npos) {
      size_t end = s.find('\n', pos);
      if (end != std::string::npos) {
        std::string addr =
            s.substr(pos + marker.size(), end - pos - marker.size());
        size_t colon = addr.rfind(':');
        if (colon != std::string::npos) {
          return std::stoi(addr.substr(colon + 1));
        }
      }
    }
    bool reaped = false;
    Reap(WNOHANG, nullptr, &reaped);
    if (reaped) {
      return Status::Unavailable("process exited before listening; see " +
                             stderr_path_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Status::DeadlineExceeded("no listening announcement in " +
                                  stderr_path_);
}

}  // namespace e2e
