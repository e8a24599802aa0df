#pragma once
// The library's one fork/join: parallelFor(count, workers, fn) calls
// fn(i) exactly once for every i in [0, count) and returns after all
// calls have finished.
//
// `workers` is clamped to [1, count]. One worker runs the indices in
// ascending order on the calling thread and starts no thread — the
// reference order. More workers each claim the next unclaimed index from
// one atomic counter, so claims go out in ascending order but complete in
// any order; callers that need determinism give each index its own
// output slot and state. `fn` must not throw: an exception escaping a
// worker thread terminates the process.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace mesh {

template <typename Fn>
void parallelFor(std::size_t count, std::size_t workers, Fn&& fn) {
  workers =
      std::clamp<std::size_t>(workers, 1, std::max<std::size_t>(count, 1));
  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  // jthreads join when `threads` is destroyed — before `next`, and also
  // when starting a later thread throws.
  std::vector<std::jthread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) fn(i);
    });
  }
}

}  // namespace mesh
