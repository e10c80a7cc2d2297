// Free list of reusable byte buffers (the pooled spill-buffer list,
// docs/performance.md).
//
// Every map task owns a ShuffleWriter, and every ShuffleWriter owns a spill
// encode buffer that grows to the spill threshold. Without pooling, each
// task re-grows that buffer from zero — a per-task allocation tax that
// dominates small-block workloads (many tiny tasks). The pool lets a
// writer's destructor park its warmed buffer for the next writer anywhere
// in the process: steady state, no task touches the heap to encode spills.
//
// The mutex is a leaf (Rank::kBufferPool): Acquire/Release are a vector
// pop/push under the lock, nothing else.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace eclipse {

class BufferPool {
 public:
  /// The process-wide pool used by the shuffle path.
  static BufferPool& Global() {
    static BufferPool pool;
    return pool;
  }

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A pooled buffer (cleared, capacity retained from its previous life) or
  /// a fresh empty string when the pool is dry.
  std::string Acquire() {
    MutexLock lock(mu_);
    if (free_.empty()) return {};
    std::string b = std::move(free_.back());
    free_.pop_back();
    b.clear();
    return b;
  }

  /// Park `b` for reuse. Buffers beyond the pool cap or above the retained
  /// size ceiling are dropped (freed) instead of hoarded.
  void Release(std::string&& b) {
    // The lower bound is the SSO capacity: a string that never grew past
    // its inline buffer reports a small nonzero capacity() while owning no
    // heap memory — pooling it would hand out useless entries.
    if (b.capacity() <= std::string().capacity() ||
        b.capacity() > kMaxRetainedBytes) {
      return;
    }
    MutexLock lock(mu_);
    if (free_.size() >= kMaxPooled) return;
    free_.push_back(std::move(b));
  }

  std::size_t PooledCount() const {
    MutexLock lock(mu_);
    return free_.size();
  }

 private:
  // 64 buffers comfortably covers every slot thread holding one plus a
  // burst of transient writers; 64 MiB each bounds worst-case residency at
  // the spill-threshold scale real jobs use.
  static constexpr std::size_t kMaxPooled = 64;
  static constexpr std::size_t kMaxRetainedBytes = 64 * 1024 * 1024;

  mutable Mutex mu_{Rank::kBufferPool, "BufferPool::mu_"};
  std::vector<std::string> free_ GUARDED_BY(mu_);
};

}  // namespace eclipse
