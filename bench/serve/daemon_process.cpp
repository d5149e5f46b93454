#include "daemon_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace bench {

namespace {

constexpr int kStartTimeoutMs = 10000;
constexpr int kStopTimeoutMs = 10000;

/// Waits up to `timeoutMs` for `pid` to exit; true with *status when it did.
bool waitExit(pid_t pid, int timeoutMs, int* status) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return false;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

DaemonProcess::~DaemonProcess() { killAndReap(); }

bool DaemonProcess::start(const std::string& pawsdPath,
                          const std::string& socketPath,
                          const std::vector<std::string>& args,
                          const std::string& logPath, std::string* error) {
  int pipeFds[2];
  if (::pipe2(pipeFds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv = {pawsdPath, "--listen", "unix:" + socketPath,
                                   "--threads", "2", "--max-queued", "16"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipeFds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  const int rc = ::posix_spawn(&pid_, pawsdPath.c_str(), &actions, nullptr,
                               cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipeFds[1]);
  if (rc != 0) {
    ::close(pipeFds[0]);
    pid_ = -1;
    *error = "cannot spawn " + pawsdPath;
    return false;
  }
  stdoutFd_ = pipeFds[0];

  // pawsd announces itself with one "pawsd: listening on <address>" line.
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartTimeoutMs);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{stdoutFd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(stdoutFd_, buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  if (line.rfind("pawsd: listening on ", 0) != 0) {
    *error = "pawsd did not start (see " + logPath + ")";
    killAndReap();
    return false;
  }
  return true;
}

bool DaemonProcess::stop(std::string* error) {
  if (pid_ < 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const bool exited = waitExit(pid_, kStopTimeoutMs, &status);
  if (!exited) {
    killAndReap();
    *error = "pawsd did not drain within its stop timeout";
    return false;
  }
  pid_ = -1;
  ::close(stdoutFd_);
  stdoutFd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "pawsd exited abnormally";
    return false;
  }
  return true;
}

void DaemonProcess::killAndReap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdoutFd_ >= 0) {
    ::close(stdoutFd_);
    stdoutFd_ = -1;
  }
}

double DaemonProcess::cpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name start at field 3; utime
  // and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double DaemonProcess::peakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace bench
