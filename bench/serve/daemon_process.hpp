// The pawsd process under test: spawned with posix_spawn, announced on
// its stdout, stopped with SIGTERM (its graceful drain), and read through
// /proc for CPU time and peak resident memory.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace bench {

class DaemonProcess {
 public:
  DaemonProcess() = default;
  /// Kills and reaps a daemon still running (error paths only).
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Starts `pawsd --listen unix:<socketPath> <args...>` with stderr sent
  /// to `logPath`, and waits for its "listening on" line.
  bool start(const std::string& pawsdPath, const std::string& socketPath,
             const std::vector<std::string>& args, const std::string& logPath,
             std::string* error);

  /// SIGTERM, then waits for the drain; false unless it exits 0.
  bool stop(std::string* error);

  /// utime + stime of the whole process so far, seconds.
  [[nodiscard]] double cpuSeconds() const;
  /// VmHWM, MiB.
  [[nodiscard]] double peakRssMb() const;

 private:
  void killAndReap();

  pid_t pid_ = -1;
  int stdoutFd_ = -1;
};

}  // namespace bench
