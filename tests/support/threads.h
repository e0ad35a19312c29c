// The process's live OS threads, for tests that check a component
// leaves none of its helper threads running.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <thread>

namespace dcprof::test {

/// Threads of this process (entries of /proc/self/task).
inline std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

/// True once at most `n` threads are live. A joined thread can linger in
/// /proc/self/task for a moment after pthread_join returns, so this
/// polls for up to `wait`; a thread still running stays listed.
inline bool threads_settle_to(
    std::size_t n, std::chrono::milliseconds wait = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + wait;
  while (live_threads() > n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The live threads a component's helpers must settle back to. The
/// ThreadSanitizer runtime starts a thread of its own at a process's
/// first pthread_create and keeps it, so a count taken before the
/// process made any thread would report that one as leaked: this starts
/// and joins one thread first, and gives it a moment to leave.
inline std::size_t thread_baseline() {
  const std::size_t before = live_threads();
  std::thread([] {}).join();
  threads_settle_to(before, std::chrono::milliseconds(200));
  return live_threads();
}

}  // namespace dcprof::test
