// Low-overhead structured tracing for the EclipseMR engine and simulator.
//
// Every instrumented layer (job runner, shuffle, schedulers, cache, DHT FS,
// transports, and the DES simulator) emits events into the process-global
// Tracer. Emission is designed for the task hot path:
//
//  * tracing disabled — one relaxed-ish atomic load, nothing else: no clock
//    read, no allocation (asserted by test_obs.cc with a counting
//    operator new);
//  * tracing enabled — events are appended to a per-thread chunked buffer;
//    the appending thread takes no lock except on chunk rollover, so span
//    emission never contends with other threads (measured < 100 ns/event in
//    bench_micro). Names, categories, and string argument values must be
//    string literals (static storage) — events store only pointers and
//    integers, never owned strings.
//
// The captured timeline exports as Chrome trace-event JSON
// (chrome://tracing / Perfetto "JSON" format): real-engine spans are B/E
// duration pairs per (pid, tid) track, instantaneous decisions are 'i'
// events, and the discrete-event simulator emits complete 'X' events with
// explicit simulated timestamps — the *same* schema, so one tool
// (tools/trace_report.py, or obs::Summarize) reads both. `pid` is the
// emulated server id (kDriverPid for the driver/client endpoint), `tid` the
// emitting thread's registration order.
//
// See docs/observability.md for the full span/event/field reference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"

namespace eclipse::obs {

/// Track id used for driver-side events (job/phase spans, scheduler
/// decisions). Matches the Cluster's external client endpoint id so wire
/// traffic originated by the driver lands on the same track.
inline constexpr int kDriverPid = 1'000'000;

/// One event argument. `key` and `sval` must be string literals; a null
/// `sval` means the argument is the number `uval`.
struct TraceArg {
  const char* key = nullptr;
  const char* sval = nullptr;
  std::uint64_t uval = 0;
};

/// Numeric argument helper: U64("bytes", n).
inline TraceArg U64(const char* key, std::uint64_t v) { return TraceArg{key, nullptr, v}; }
/// String argument helper: Str("locality", "memory"). `v` must be a literal.
inline TraceArg Str(const char* key, const char* v) { return TraceArg{key, v, 0}; }

struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 4;

  std::uint64_t ts_us = 0;   // microseconds since the tracer epoch (or sim time)
  std::uint64_t dur_us = 0;  // 'X' events only
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int32_t pid = 0;   // emulated server id / kDriverPid
  std::uint32_t tid = 0;  // emitting thread registration id (0 for the sim)
  char phase = 'i';       // 'B', 'E', 'i', or 'X'
  std::uint8_t nargs = 0;
  std::array<TraceArg, kMaxArgs> args{};
};

/// Process-global trace collector. Start() clears previous events and opens
/// a new capture session; Stop() freezes it; Snapshot()/ExportChromeTrace()
/// read it back. Emission while stopped is a cheap no-op, so instrumentation
/// stays compiled in everywhere.
class Tracer {
 public:
  static Tracer& Global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Begin a fresh capture: resets the epoch, invalidates previously
  /// captured events, enables emission.
  void Start();

  /// Disable emission. Captured events remain readable until the next
  /// Start() or Clear().
  void Stop();

  /// Drop captured events without starting a new session.
  void Clear();

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Microseconds since the current session's epoch.
  std::uint64_t NowUs() const;

  /// Append one event stamped with the real clock. `phase` is 'B', 'E' or
  /// 'i'. No-op when disabled.
  void Emit(char phase, const char* cat, const char* name, int pid,
            std::initializer_list<TraceArg> args);

  /// Same, with args from a runtime-built array (TraceSpan's end path).
  void Emit(char phase, const char* cat, const char* name, int pid, const TraceArg* args,
            std::size_t nargs);

  /// Append one complete ('X') event on the calling thread's track, from
  /// `ts_us` (a NowUs() reading) to now. Unlike a TraceSpan it is never
  /// open: a capture stopped while the work runs lacks it instead of
  /// showing it cut off at the capture's end. No-op when disabled.
  void EmitComplete(std::uint64_t ts_us, const char* cat, const char* name, int pid,
                    std::initializer_list<TraceArg> args);

  /// Append one event with an explicit timestamp (and duration, for 'X'
  /// complete events) — the simulator's path. No-op when disabled.
  void EmitAt(std::uint64_t ts_us, std::uint64_t dur_us, char phase, const char* cat,
              const char* name, int pid, std::uint32_t tid,
              std::initializer_list<TraceArg> args);

  /// Copy of every event captured this session, sorted by timestamp
  /// (stable: a thread's own emission order is preserved among equal
  /// timestamps, so B precedes E and nested pairs stay matched).
  std::vector<TraceEvent> Snapshot() const;

  /// The full capture as Chrome trace-event JSON ({"traceEvents":[...]}).
  /// A span still open is closed at the capture's last timestamp, and the
  /// 'E' of a span begun before Start() is dropped, so the export passes
  /// ValidateChromeTrace whenever it is taken.
  std::string ExportChromeTrace() const;

  /// ExportChromeTrace() to a file.
  Status WriteChromeTrace(const std::string& path) const;

  /// Events discarded because a thread's buffer wrapped (the per-thread
  /// ring is bounded; oldest chunk is overwritten). Zero in healthy
  /// captures.
  std::uint64_t overwritten_chunks() const {
    return overwritten_chunks_.load(std::memory_order_relaxed);
  }

 private:
  // Sizing: a chunk is the lock-free append unit; a thread that fills
  // kMaxChunksPerLog chunks recycles its oldest (flight-recorder behavior)
  // rather than allocating unboundedly or dropping on the floor.
  static constexpr std::uint32_t kChunkEvents = 256;
  static constexpr std::size_t kMaxChunksPerLog = 256;

  struct Chunk {
    std::array<TraceEvent, kChunkEvents> ev;
    // Writer publishes each slot with a release store; readers acquire.
    std::atomic<std::uint32_t> used{0};
  };

  struct ThreadLog {
    Mutex mu{Rank::kTraceLog, "Tracer::ThreadLog::mu"};  // guards the chunk list *structure* (rollover, recycle, read)
    std::vector<std::unique_ptr<Chunk>> chunks GUARDED_BY(mu);
    Chunk* current = nullptr;          // owner thread only
    std::uint64_t session = 0;         // owner thread only
    std::atomic<std::uint64_t> session_published{0};  // readers compare
    std::uint32_t tid = 0;
  };

  Tracer() = default;

  // Thread-exit hook (defined in trace.cc): frees the exiting thread's chunk
  // memory while its ThreadLog shell stays in logs_.
  friend struct ThreadLogCleanup;

  ThreadLog* PrepareThreadLog(std::uint64_t session);
  Chunk* Rollover(ThreadLog* log);
  void Append(std::uint64_t ts_us, std::uint64_t dur_us, char phase, const char* cat,
              const char* name, int pid, const std::uint32_t* tid_override,
              const TraceArg* args, std::size_t nargs);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> session_{0};
  std::atomic<std::int64_t> epoch_ns_{0};
  std::atomic<std::uint64_t> overwritten_chunks_{0};

  mutable Mutex mu_{Rank::kTraceRegistry, "Tracer::mu_"};  // registry of per-thread logs; grows only
  std::vector<std::unique_ptr<ThreadLog>> logs_ GUARDED_BY(mu_);
  std::uint32_t next_tid_ GUARDED_BY(mu_) = 1;
};

/// RAII span: emits 'B' at construction and the matching 'E' at
/// destruction (on the same thread, so the pair shares a (pid, tid) track).
/// Arguments added between the two attach to the 'E' event; Perfetto merges
/// begin- and end-args onto the one slice.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, int pid,
            std::initializer_list<TraceArg> args = {});
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddArg(TraceArg arg);
  bool active() const { return active_; }

 private:
  const char* cat_;
  const char* name_;
  int pid_;
  bool active_;
  std::uint8_t nargs_ = 0;
  std::array<TraceArg, TraceEvent::kMaxArgs> args_{};
};

/// Structural validation of a Chrome trace-event JSON document (the subset
/// ExportChromeTrace produces): well-formed JSON, a traceEvents array whose
/// events carry the required fields, file-order timestamps non-decreasing,
/// every 'B' matched by an 'E' of the same name on its (pid, tid) track in
/// stack order, and 'X' durations present. tools/trace_report.py performs
/// the same checks out of process.
Status ValidateChromeTrace(const std::string& json);

}  // namespace eclipse::obs
