// Child processes of the benchmark: the real ndss CLI tools, started the
// way an operator would start them.

#ifndef NDSS_BENCH_PROCESS_H_
#define NDSS_BENCH_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ndss_bench {

/// A running child. The kernel kills it if the benchmark dies first, and
/// the destructor kills and reaps it if it is still running.
class Process {
 public:
  /// Starts `binary` with `args`, stdout and stderr appended to `log_path`.
  /// Call from the main thread: the child's death signal is tied to the
  /// thread that forked it.
  static Process Start(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::string& log_path);

  Process() = default;
  Process(Process&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }
  Process& operator=(Process&& other) noexcept;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Waits for exit; returns the exit code (128 + signal when killed, -1
  /// when never started).
  int Wait();

  /// SIGTERM, then waits. Returns the exit code.
  int Stop();

 private:
  pid_t pid_ = -1;
};

/// Runs a tool to completion. On a nonzero exit prints the tool's log to
/// stderr and returns false.
bool RunTool(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path);

/// Peak resident set (VmHWM) of a live process, in MiB; -1 if unreadable.
double PeakRssMb(pid_t pid);

}  // namespace ndss_bench

#endif  // NDSS_BENCH_PROCESS_H_
