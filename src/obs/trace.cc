#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

namespace eclipse::obs {

// Thread-exit hook: defined at namespace scope (not in the anonymous
// namespace) so it can be befriended by Tracer and reach ThreadLog.
struct ThreadLogCleanup {
  static void Release(void* opaque) {
    auto* log = static_cast<Tracer::ThreadLog*>(opaque);
    MutexLock lock(log->mu);
    log->chunks.clear();
    log->current = nullptr;
    log->session_published.store(0, std::memory_order_release);
  }
};

namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread registration handle. The destructor runs at thread exit and
// releases the thread's chunk memory (its ThreadLog shell stays in the
// tracer's registry forever — the registry is append-only). Consequence: a
// capture must be exported before the emitting threads — e.g. a Cluster's
// worker pools — are destroyed, or their events are gone.
struct TlsSlot {
  void* log = nullptr;  // Tracer::ThreadLog*, opaque outside the Tracer
  ~TlsSlot() {
    if (log != nullptr) ThreadLogCleanup::Release(log);
  }
};

thread_local TlsSlot t_slot;

}  // namespace

Tracer& Tracer::Global() {
  // Leaked singleton: emitting threads and their thread_local destructors
  // may outlive any static-destruction order.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Start() {
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  overwritten_chunks_.store(0, std::memory_order_relaxed);
  session_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::Clear() {
  // Invalidate every captured event by opening an (empty) new session
  // without enabling emission. Chunk memory is reclaimed when each owning
  // thread next registers (or exits); it is never freed from here, because
  // an emitting thread may be mid-append in its current chunk.
  session_.fetch_add(1, std::memory_order_relaxed);
  overwritten_chunks_.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::NowUs() const {
  std::int64_t delta = SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed);
  return delta <= 0 ? 0 : static_cast<std::uint64_t>(delta) / 1000;
}

Tracer::ThreadLog* Tracer::PrepareThreadLog(std::uint64_t session) {
  auto* log = static_cast<ThreadLog*>(t_slot.log);
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    log = owned.get();
    {
      MutexLock lock(mu_);
      log->tid = next_tid_++;
      logs_.push_back(std::move(owned));
    }
    t_slot.log = log;
  }
  {
    MutexLock lock(log->mu);
    log->chunks.clear();  // previous session's events are already invalid
    log->chunks.push_back(std::make_unique<Chunk>());
    log->current = log->chunks.back().get();
    log->session_published.store(session, std::memory_order_release);
  }
  log->session = session;
  return log;
}

Tracer::Chunk* Tracer::Rollover(ThreadLog* log) {
  MutexLock lock(log->mu);
  if (log->chunks.size() < kMaxChunksPerLog) {
    log->chunks.push_back(std::make_unique<Chunk>());
  } else {
    // Flight-recorder wrap: recycle the oldest chunk. Its events vanish from
    // the capture; account for that so reports can flag truncation.
    auto oldest = std::move(log->chunks.front());
    log->chunks.erase(log->chunks.begin());
    oldest->used.store(0, std::memory_order_release);
    log->chunks.push_back(std::move(oldest));
    overwritten_chunks_.fetch_add(1, std::memory_order_relaxed);
  }
  log->current = log->chunks.back().get();
  return log->current;
}

void Tracer::Append(std::uint64_t ts_us, std::uint64_t dur_us, char phase, const char* cat,
                    const char* name, int pid, const std::uint32_t* tid_override,
                    const TraceArg* args, std::size_t nargs) {
  std::uint64_t session = session_.load(std::memory_order_relaxed);
  auto* log = static_cast<ThreadLog*>(t_slot.log);
  if (log == nullptr || log->session != session) log = PrepareThreadLog(session);

  Chunk* chunk = log->current;
  std::uint32_t used = chunk->used.load(std::memory_order_relaxed);
  if (used == kChunkEvents) {
    chunk = Rollover(log);
    used = 0;
  }
  TraceEvent& e = chunk->ev[used];
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.name = name;
  e.cat = cat;
  e.pid = pid;
  e.tid = tid_override != nullptr ? *tid_override : log->tid;
  e.phase = phase;
  e.nargs = 0;
  for (std::size_t i = 0; i < nargs && e.nargs < TraceEvent::kMaxArgs; ++i) {
    e.args[e.nargs++] = args[i];
  }
  chunk->used.store(used + 1, std::memory_order_release);
}

void Tracer::Emit(char phase, const char* cat, const char* name, int pid,
                  std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  Append(NowUs(), 0, phase, cat, name, pid, nullptr, args.begin(), args.size());
}

void Tracer::Emit(char phase, const char* cat, const char* name, int pid, const TraceArg* args,
                  std::size_t nargs) {
  if (!enabled()) return;
  Append(NowUs(), 0, phase, cat, name, pid, nullptr, args, nargs);
}

void Tracer::EmitComplete(std::uint64_t ts_us, const char* cat, const char* name, int pid,
                          std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  const std::uint64_t now = NowUs();
  Append(ts_us, now > ts_us ? now - ts_us : 0, 'X', cat, name, pid, nullptr, args.begin(),
         args.size());
}

void Tracer::EmitAt(std::uint64_t ts_us, std::uint64_t dur_us, char phase, const char* cat,
                    const char* name, int pid, std::uint32_t tid,
                    std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  Append(ts_us, dur_us, phase, cat, name, pid, &tid, args.begin(), args.size());
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<ThreadLog*> logs;
  {
    MutexLock lock(mu_);
    logs.reserve(logs_.size());
    for (const auto& l : logs_) logs.push_back(l.get());
  }
  std::uint64_t session = session_.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out;
  for (ThreadLog* log : logs) {
    MutexLock lock(log->mu);
    if (log->session_published.load(std::memory_order_acquire) != session) continue;
    for (const auto& chunk : log->chunks) {
      std::uint32_t used = chunk->used.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < used; ++i) out.push_back(chunk->ev[i]);
    }
  }
  // Stable: each thread's events arrive in emission order, so among equal
  // timestamps B precedes E and nested pairs stay matched per track.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  return out;
}

namespace {

void AppendEscaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(*s) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", *s);
          out += buf;
        } else {
          out += *s;
        }
    }
  }
}

}  // namespace

std::string Tracer::ExportChromeTrace() const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  auto append = [&](const TraceEvent& e) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"ph\":\"";
    out += e.phase;
    std::snprintf(buf, sizeof buf, "\",\"ts\":%llu,", static_cast<unsigned long long>(e.ts_us));
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof buf, "\"dur\":%llu,",
                    static_cast<unsigned long long>(e.dur_us));
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "\"pid\":%d,\"tid\":%u,\"cat\":\"", e.pid, e.tid);
    out += buf;
    AppendEscaped(out, e.cat != nullptr ? e.cat : "");
    out += "\",\"name\":\"";
    AppendEscaped(out, e.name != nullptr ? e.name : "");
    out += '"';
    if (e.nargs > 0) {
      out += ",\"args\":{";
      for (std::uint8_t i = 0; i < e.nargs; ++i) {
        if (i != 0) out += ',';
        out += '"';
        AppendEscaped(out, e.args[i].key != nullptr ? e.args[i].key : "");
        out += "\":";
        if (e.args[i].sval != nullptr) {
          out += '"';
          AppendEscaped(out, e.args[i].sval);
          out += '"';
        } else {
          std::snprintf(buf, sizeof buf, "%llu",
                        static_cast<unsigned long long>(e.args[i].uval));
          out += buf;
        }
      }
      out += '}';
    }
    out += '}';
  };
  // 'B' and 'E' are matched per (pid, tid) track. An 'E' with no open 'B'
  // (its span began before this session's Start(), or its 'B' sat in a
  // recycled chunk) is dropped. A 'B' still open at the end (its span
  // outlived Stop(), or the export was taken mid-span) is closed at the
  // capture's last timestamp. So a capture taken at any moment exports as a
  // valid trace.
  std::map<std::pair<int, std::uint32_t>, std::vector<const TraceEvent*>> open;
  for (const TraceEvent& e : events) {
    if (e.phase == 'B') {
      open[{e.pid, e.tid}].push_back(&e);
    } else if (e.phase == 'E') {
      auto& stack = open[{e.pid, e.tid}];
      if (stack.empty()) continue;
      stack.pop_back();
    }
    append(e);
  }
  for (auto& [track, stack] : open) {
    while (!stack.empty()) {
      TraceEvent end = *stack.back();
      stack.pop_back();
      end.phase = 'E';
      end.ts_us = events.back().ts_us;
      end.nargs = 0;
      append(end);
    }
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::Error(ErrorCode::kInternal, "cannot open " + path);
  f << ExportChromeTrace();
  f.close();
  if (!f) return Status::Error(ErrorCode::kInternal, "short write to " + path);
  return Status::Ok();
}

TraceSpan::TraceSpan(const char* cat, const char* name, int pid,
                     std::initializer_list<TraceArg> args)
    : cat_(cat), name_(name), pid_(pid), active_(Tracer::Global().enabled()) {
  if (active_) Tracer::Global().Emit('B', cat_, name_, pid_, args);
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  Tracer::Global().Emit('E', cat_, name_, pid_, args_.data(), nargs_);
}

void TraceSpan::AddArg(TraceArg arg) {
  if (!active_) return;
  if (nargs_ < args_.size()) args_[nargs_++] = arg;
}

Status ValidateChromeTrace(const std::string& json) {
  // Minimal recursive-descent JSON walk, specialized to surface the fields
  // the trace contract cares about.
  struct Parser {
    const char* p;
    const char* end;
    std::string err;

    bool Fail(const std::string& m) {
      if (err.empty()) err = m;
      return false;
    }
    void Ws() {
      while (p < end && (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')) ++p;
    }
    bool Lit(const char* s) {
      std::size_t n = std::char_traits<char>::length(s);
      if (static_cast<std::size_t>(end - p) < n || std::string_view(p, n) != s) {
        return Fail(std::string("expected literal ") + s);
      }
      p += n;
      return true;
    }
    bool Str(std::string* out) {
      if (p >= end || *p != '"') return Fail("expected string");
      ++p;
      while (p < end && *p != '"') {
        if (*p == '\\') {
          ++p;
          if (p >= end) return Fail("bad escape");
          if (*p == 'u') {
            if (end - p < 5) return Fail("bad \\u escape");
            p += 4;
          }
        }
        if (out != nullptr) out->push_back(*p);
        ++p;
      }
      if (p >= end) return Fail("unterminated string");
      ++p;
      return true;
    }
    bool Num(double* out) {
      const char* start = p;
      if (p < end && (*p == '-' || *p == '+')) ++p;
      while (p < end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' || *p == 'E' ||
                         *p == '-' || *p == '+')) {
        ++p;
      }
      if (p == start) return Fail("expected number");
      if (out != nullptr) *out = std::strtod(std::string(start, p).c_str(), nullptr);
      return true;
    }
    bool Value() {  // skip any value
      Ws();
      if (p >= end) return Fail("unexpected end");
      switch (*p) {
        case '"': return Str(nullptr);
        case '{': return Object(nullptr);
        case '[': return Array();
        case 't': return Lit("true");
        case 'f': return Lit("false");
        case 'n': return Lit("null");
        default: return Num(nullptr);
      }
    }
    bool Array() {
      if (*p != '[') return Fail("expected [");
      ++p;
      Ws();
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      for (;;) {
        if (!Value()) return false;
        Ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        return Fail("expected , or ] in array");
      }
    }
    // Parse an object; when `fields` is non-null, record scalar members.
    bool Object(std::map<std::string, std::pair<std::string, double>>* fields) {
      if (*p != '{') return Fail("expected {");
      ++p;
      Ws();
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      for (;;) {
        Ws();
        std::string key;
        if (!Str(&key)) return false;
        Ws();
        if (p >= end || *p != ':') return Fail("expected :");
        ++p;
        Ws();
        if (fields != nullptr && p < end && *p == '"') {
          std::string sval;
          if (!Str(&sval)) return false;
          (*fields)[key] = {sval, 0.0};
        } else if (fields != nullptr && p < end && *p != '{' && *p != '[' && *p != 't' &&
                   *p != 'f' && *p != 'n') {
          double num = 0.0;
          if (!Num(&num)) return false;
          (*fields)[key] = {"", num};
        } else {
          if (!Value()) return false;
          if (fields != nullptr) (*fields)[key] = {"", 0.0};
        }
        Ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        return Fail("expected , or } in object");
      }
    }
  };

  Parser ps{json.data(), json.data() + json.size(), {}};
  ps.Ws();
  if (ps.p >= ps.end || *ps.p != '{') {
    return Status::Error(ErrorCode::kCorruption, "trace: top level is not an object");
  }
  ++ps.p;
  bool saw_events = false;
  double last_ts = -1.0;
  std::map<std::pair<int, int>, std::vector<std::string>> stacks;

  auto validate_event = [&](Parser& q) -> bool {
    std::map<std::string, std::pair<std::string, double>> f;
    if (!q.Object(&f)) return false;
    for (const char* req : {"ph", "ts", "pid", "tid", "name", "cat"}) {
      if (f.find(req) == f.end()) return q.Fail(std::string("event missing field ") + req);
    }
    const std::string& ph = f["ph"].first;
    if (ph != "B" && ph != "E" && ph != "i" && ph != "X") {
      return q.Fail("event has unsupported phase '" + ph + "'");
    }
    double ts = f["ts"].second;
    if (ts < last_ts) return q.Fail("timestamps not monotonically ordered");
    last_ts = ts;
    auto track =
        std::make_pair(static_cast<int>(f["pid"].second), static_cast<int>(f["tid"].second));
    const std::string& name = f["name"].first;
    if (ph == "B") {
      stacks[track].push_back(name);
    } else if (ph == "E") {
      auto& stack = stacks[track];
      if (stack.empty()) return q.Fail("E event '" + name + "' without matching B");
      if (stack.back() != name) {
        return q.Fail("E event '" + name + "' does not match open B '" + stack.back() + "'");
      }
      stack.pop_back();
    } else if (ph == "X") {
      if (f.find("dur") == f.end()) return q.Fail("X event missing dur");
    }
    return true;
  };

  for (;;) {
    ps.Ws();
    std::string key;
    if (!ps.Str(&key)) break;
    ps.Ws();
    if (ps.p >= ps.end || *ps.p != ':') {
      ps.Fail("expected :");
      break;
    }
    ++ps.p;
    ps.Ws();
    if (key == "traceEvents") {
      saw_events = true;
      if (ps.p >= ps.end || *ps.p != '[') {
        ps.Fail("traceEvents is not an array");
        break;
      }
      ++ps.p;
      ps.Ws();
      if (ps.p < ps.end && *ps.p == ']') {
        ++ps.p;
      } else {
        bool ok = true;
        for (;;) {
          ps.Ws();
          if (!validate_event(ps)) {
            ok = false;
            break;
          }
          ps.Ws();
          if (ps.p < ps.end && *ps.p == ',') {
            ++ps.p;
            continue;
          }
          if (ps.p < ps.end && *ps.p == ']') {
            ++ps.p;
            break;
          }
          ps.Fail("expected , or ] in traceEvents");
          ok = false;
          break;
        }
        if (!ok) break;
      }
    } else {
      if (!ps.Value()) break;
    }
    ps.Ws();
    if (ps.p < ps.end && *ps.p == ',') {
      ++ps.p;
      continue;
    }
    if (ps.p < ps.end && *ps.p == '}') {
      ++ps.p;
      break;
    }
    ps.Fail("expected , or } at top level");
    break;
  }

  if (!ps.err.empty()) return Status::Error(ErrorCode::kCorruption, "trace: " + ps.err);
  if (!saw_events) return Status::Error(ErrorCode::kCorruption, "trace: no traceEvents array");
  for (const auto& [track, stack] : stacks) {
    if (!stack.empty()) {
      return Status::Error(ErrorCode::kCorruption,
                           "trace: unclosed span '" + stack.back() + "' on pid " +
                               std::to_string(track.first) + " tid " +
                               std::to_string(track.second));
    }
  }
  return Status::Ok();
}

}  // namespace eclipse::obs
