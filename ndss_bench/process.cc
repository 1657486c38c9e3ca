#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace ndss_bench {

Process Process::Start(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::string& log_path) {
  // Everything the child touches is prepared before fork: only
  // async-signal-safe calls may run between fork and exec.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  Process process;
  process.pid_ = pid;  // -1 when fork failed; Wait() then reports -1
  return process;
}

Process& Process::operator=(Process&& other) noexcept {
  if (this != &other) {
    if (running()) {
      ::kill(pid_, SIGKILL);
      Wait();
    }
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Process::~Process() {
  if (running()) {
    ::kill(pid_, SIGKILL);
    Wait();
  }
}

int Process::Wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) {
      pid_ = -1;
      return -1;
    }
  }
  pid_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int Process::Stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  return Wait();
}

bool RunTool(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path) {
  Process process = Process::Start(binary, args, log_path);
  const int code = process.Wait();
  if (code == 0) return true;
  std::cerr << "ndss_bench: " << binary << " exited with " << code << "\n";
  std::ifstream log(log_path);
  std::cerr << log.rdbuf();
  return false;
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = -1;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1;
}

}  // namespace ndss_bench
