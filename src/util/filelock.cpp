#include "util/filelock.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "util/cancel.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace sva {
namespace {

// Record our PID in the (just-locked) sidecar so a later acquirer can run
// the dead-holder takeover check.  Best effort: a torn or missing PID only
// disables takeover, never correctness.
void write_holder_pid(int fd) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%ld\n",
                              static_cast<long>(::getpid()));
  if (n <= 0) return;
  (void)::ftruncate(fd, 0);
  (void)::lseek(fd, 0, SEEK_SET);
  (void)::write(fd, buf, static_cast<std::size_t>(n));
}

// PID recorded in the sidecar, or -1 when unreadable/empty.
long read_holder_pid(const std::string& lock_path) {
  std::FILE* f = std::fopen(lock_path.c_str(), "rb");
  if (f == nullptr) return -1;
  char buf[32] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return -1;
  char* end = nullptr;
  const long pid = std::strtol(buf, &end, 10);
  return (end != buf && pid > 0) ? pid : -1;
}

bool process_alive(long pid) {
  // kill(pid, 0): 0 or EPERM means the process exists; ESRCH means dead.
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

int open_lock_file(const std::string& lock_path) {
  return ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
}

// The lock is acquired before the write that would otherwise create the
// target's directory (cold cache dir), so the sidecar's parent must be
// made here.  Racing creators are fine; only total failure matters.
void ensure_parent_dir(const std::string& lock_path) {
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(lock_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
}

}  // namespace

std::string lock_sidecar_path(const std::string& target_path) {
  return target_path + ".lock";
}

FileLock::FileLock(FileLock&& other) noexcept
    : fd_(other.fd_), lock_path_(std::move(other.lock_path_)) {
  other.fd_ = -1;
  other.lock_path_.clear();
}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = other.fd_;
    lock_path_ = std::move(other.lock_path_);
    other.fd_ = -1;
    other.lock_path_.clear();
  }
  return *this;
}

void FileLock::release() noexcept {
  if (fd_ < 0) return;
  // close() drops the flock; the sidecar stays (see header).
  ::close(fd_);
  fd_ = -1;
  lock_path_.clear();
}

FileLock FileLock::acquire(const std::string& target_path, int timeout_ms) {
  SVA_FAILPOINT("cache.lock");
  const std::string lock_path = lock_sidecar_path(target_path);
  const auto budget_ms = static_cast<std::uint64_t>(std::max(timeout_ms, 0));
  const Deadline deadline = Deadline::after_ms(budget_ms);
  const Deadline takeover_check = Deadline::after_ms(budget_ms / 2);
  bool takeover_done = false;
  int backoff_ms = 1;

  ensure_parent_dir(lock_path);
  int fd = open_lock_file(lock_path);
  if (fd < 0)
    throw Error("cannot open lock file '" + lock_path +
                "': " + std::strerror(errno));

  for (;;) {
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
      // Raced unlink (takeover by another process): our descriptor may
      // point at a dead inode whose lock nobody else can see.  Re-stat and
      // retry against the live sidecar if so.
      struct stat on_disk{}, ours{};
      if (::stat(lock_path.c_str(), &on_disk) == 0 &&
          ::fstat(fd, &ours) == 0 && on_disk.st_ino == ours.st_ino) {
        write_holder_pid(fd);
        FileLock lock;
        lock.fd_ = fd;
        lock.lock_path_ = lock_path;
        return lock;
      }
      ::close(fd);
      fd = open_lock_file(lock_path);
      if (fd < 0)
        throw Error("cannot reopen lock file '" + lock_path +
                    "': " + std::strerror(errno));
      continue;
    }
    if (errno != EWOULDBLOCK && errno != EINTR) {
      const int saved = errno;
      ::close(fd);
      throw Error("flock('" + lock_path + "') failed: " +
                  std::strerror(saved));
    }

    if (!takeover_done && takeover_check.expired()) {
      takeover_done = true;
      const long holder = read_holder_pid(lock_path);
      if (holder > 0 && holder != static_cast<long>(::getpid()) &&
          !process_alive(holder)) {
        // flock says busy but the recorded holder is dead: broken state on
        // an flock-emulating filesystem.  Unlink the sidecar and retry on
        // the fresh inode (live holders on real flock keep their lock --
        // it is bound to the old inode, which we no longer consult).
        log_warn("lock '", lock_path, "' held by dead pid ", holder,
                 "; taking over");
        diag_warn("filelock", "lock_takeover",
                  "stale lock '" + lock_path + "' (dead pid " +
                      std::to_string(holder) + ") removed");
        MetricsRegistry::global().counter("filelock.takeovers").add();
        (void)::unlink(lock_path.c_str());
        ::close(fd);
        fd = open_lock_file(lock_path);
        if (fd < 0)
          throw Error("cannot reopen lock file '" + lock_path +
                      "': " + std::strerror(errno));
        continue;
      }
    }
    if (deadline.expired()) {
      ::close(fd);
      throw Error("timed out after " + std::to_string(timeout_ms) +
                  " ms waiting for lock '" + lock_path + "'");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 10);
  }
}

FileLock FileLock::try_acquire(const std::string& target_path,
                               int timeout_ms) noexcept {
  try {
    return acquire(target_path, timeout_ms);
  } catch (const std::exception& e) {
    log_warn("lock acquisition failed: ", e.what());
    return FileLock();
  }
}

}  // namespace sva
