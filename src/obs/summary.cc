#include "obs/summary.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

namespace eclipse::obs {
namespace {

// A span reduced to its interval plus merged B/E (or X) arguments.
struct CompletedSpan {
  const char* name = nullptr;
  const char* cat = nullptr;
  char phase = 'X';  // 'X' for completed spans, 'i' for instants
  std::int32_t pid = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::array<TraceArg, 2 * TraceEvent::kMaxArgs> args{};
  std::size_t nargs = 0;
};

bool SameName(const char* a, const char* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return std::strcmp(a, b) == 0;
}

const TraceArg* FindArg(const CompletedSpan& s, const char* key) {
  for (std::size_t i = 0; i < s.nargs; ++i) {
    if (SameName(s.args[i].key, key)) return &s.args[i];
  }
  return nullptr;
}

std::uint64_t ArgU64(const CompletedSpan& s, const char* key, std::uint64_t fallback = 0) {
  const TraceArg* a = FindArg(s, key);
  return (a != nullptr && a->sval == nullptr) ? a->uval : fallback;
}

const char* ArgStr(const CompletedSpan& s, const char* key) {
  const TraceArg* a = FindArg(s, key);
  return a != nullptr ? a->sval : nullptr;
}

void MergeArgs(CompletedSpan& s, const TraceEvent& e) {
  for (std::uint8_t i = 0; i < e.nargs && s.nargs < s.args.size(); ++i) {
    s.args[s.nargs++] = e.args[i];
  }
}

// Pair B/E events per (pid, tid) track; pass through X and 'i' directly.
// Unclosed B spans (capture stopped mid-job) are dropped.
std::vector<CompletedSpan> CompleteSpans(const std::vector<TraceEvent>& events) {
  std::vector<CompletedSpan> out;
  std::map<std::pair<std::int32_t, std::uint32_t>, std::vector<CompletedSpan>> open;
  for (const TraceEvent& e : events) {
    switch (e.phase) {
      case 'B': {
        CompletedSpan s;
        s.name = e.name;
        s.cat = e.cat;
        s.pid = e.pid;
        s.ts_us = e.ts_us;
        MergeArgs(s, e);
        open[{e.pid, e.tid}].push_back(s);
        break;
      }
      case 'E': {
        auto& stack = open[{e.pid, e.tid}];
        // Tolerate malformed input by popping the nearest matching name.
        for (std::size_t i = stack.size(); i-- > 0;) {
          if (!SameName(stack[i].name, e.name)) continue;
          CompletedSpan s = stack[i];
          stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
          s.dur_us = e.ts_us >= s.ts_us ? e.ts_us - s.ts_us : 0;
          MergeArgs(s, e);
          out.push_back(s);
          break;
        }
        break;
      }
      case 'X':
      case 'i': {
        CompletedSpan s;
        s.name = e.name;
        s.cat = e.cat;
        s.phase = e.phase;
        s.pid = e.pid;
        s.ts_us = e.ts_us;
        s.dur_us = e.dur_us;
        MergeArgs(s, e);
        out.push_back(s);
        break;
      }
      default:
        break;
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const CompletedSpan& a, const CompletedSpan& b) {
    return a.ts_us < b.ts_us;
  });
  return out;
}

std::uint64_t Quantile(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  auto idx = static_cast<std::size_t>(pos + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

void AppendF(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void AppendF(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

double Pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

std::vector<JobSummary> Summarize(const std::vector<TraceEvent>& events) {
  std::vector<CompletedSpan> spans = CompleteSpans(events);

  std::vector<JobSummary> jobs;
  for (const CompletedSpan& s : spans) {
    if (s.phase != 'X' || !SameName(s.name, "job")) continue;
    JobSummary j;
    j.job_id = ArgU64(s, "job", jobs.size());
    j.start_us = s.ts_us;
    j.wall_us = s.dur_us;
    jobs.push_back(std::move(j));
  }

  auto by_id = [&jobs](std::uint64_t id) -> JobSummary* {
    for (JobSummary& j : jobs) {
      if (j.job_id == id) return &j;
    }
    return nullptr;
  };
  auto owner = [&jobs](std::uint64_t ts) -> JobSummary* {
    // Last job whose interval contains ts (jobs are start-ordered; overlap
    // only happens with concurrent drivers, where "last started" is the
    // best guess).
    JobSummary* hit = nullptr;
    for (JobSummary& j : jobs) {
      if (ts >= j.start_us && ts <= j.start_us + j.wall_us) hit = &j;
    }
    return hit;
  };

  // Begins of each job's reduce_phase and reduce_task spans, matched up
  // after the pass: a phase and its first task may share a timestamp, and
  // spans with equal timestamps keep their completion order.
  std::map<JobSummary*, std::vector<std::uint64_t>> phase_begins;
  std::map<JobSummary*, std::vector<std::uint64_t>> reduce_begins;
  for (const CompletedSpan& s : spans) {
    // Attribution: an explicit `job` argument is authoritative — with
    // concurrent jobs, intervals overlap and containment alone would lump
    // every span into the last-started job. Spans without the argument
    // (older captures, the DES simulator) fall back to interval containment.
    JobSummary* j = nullptr;
    if (!SameName(s.name, "job")) {
      if (const TraceArg* a = FindArg(s, "job"); a != nullptr && a->sval == nullptr) {
        j = by_id(a->uval);
      }
    }
    if (j == nullptr) j = owner(s.ts_us);
    if (j == nullptr) continue;
    if (SameName(s.name, "map_task")) {
      ++j->maps_total;
      j->map_task_us.push_back(s.dur_us);
      std::uint64_t bytes = ArgU64(s, "bytes");
      const char* locality = ArgStr(s, "locality");
      if (locality == nullptr) locality = "";
      if (std::strcmp(locality, "memory") == 0) {
        ++j->maps_memory;
        j->bytes_from_memory += bytes;
      } else if (std::strcmp(locality, "local_disk") == 0) {
        ++j->maps_local_disk;
        j->bytes_from_local_disk += bytes;
      } else if (std::strcmp(locality, "remote_disk") == 0) {
        ++j->maps_remote_disk;
        j->bytes_from_remote_disk += bytes;
      } else if (std::strcmp(locality, "skipped") == 0) {
        ++j->maps_skipped;
      }
    } else if (SameName(s.name, "reduce_task")) {
      ++j->reduces_total;
      j->reduce_task_us.push_back(s.dur_us);
      reduce_begins[j].push_back(s.ts_us);
    } else if (SameName(s.name, "reduce_phase")) {
      phase_begins[j].push_back(s.ts_us);
    } else if (SameName(s.name, "map_phase")) {
      ++j->map_waves;
    } else if (SameName(s.name, "spill")) {
      j->bytes_spilled += ArgU64(s, "bytes");
    } else if (SameName(s.name, "laf_repartition")) {
      ++j->laf_repartitions;
    } else if (SameName(s.name, "sched_assign")) {
      ++j->sched_assigns;
    }
  }
  for (auto& [j, begins] : reduce_begins) {
    const std::vector<std::uint64_t>& phases = phase_begins[j];  // ascending
    for (std::uint64_t begin : begins) {
      auto after = std::upper_bound(phases.begin(), phases.end(), begin);
      if (after != phases.begin()) j->reduce_start_delay_us.push_back(begin - *(after - 1));
    }
  }
  return jobs;
}

std::string RenderJobSummaries(const std::vector<JobSummary>& jobs) {
  std::string out;
  AppendF(out, "=== trace summary: %zu job(s) ===\n", jobs.size());
  for (const JobSummary& job : jobs) {
    AppendF(out, "job %llu: wall %.3f ms, %llu map task(s) in %llu wave(s), %llu reduce task(s)\n",
            static_cast<unsigned long long>(job.job_id),
            static_cast<double>(job.wall_us) / 1000.0,
            static_cast<unsigned long long>(job.maps_total),
            static_cast<unsigned long long>(job.map_waves),
            static_cast<unsigned long long>(job.reduces_total));
    AppendF(out,
            "  map locality: memory %llu (%.1f%%) | local-disk %llu (%.1f%%) | "
            "remote-disk %llu (%.1f%%) | skipped %llu\n",
            static_cast<unsigned long long>(job.maps_memory),
            Pct(job.maps_memory, job.maps_total),
            static_cast<unsigned long long>(job.maps_local_disk),
            Pct(job.maps_local_disk, job.maps_total),
            static_cast<unsigned long long>(job.maps_remote_disk),
            Pct(job.maps_remote_disk, job.maps_total),
            static_cast<unsigned long long>(job.maps_skipped));
    AppendF(out,
            "  bytes: from-memory %llu | local-disk %llu | remote-disk %llu | spilled %llu\n",
            static_cast<unsigned long long>(job.bytes_from_memory),
            static_cast<unsigned long long>(job.bytes_from_local_disk),
            static_cast<unsigned long long>(job.bytes_from_remote_disk),
            static_cast<unsigned long long>(job.bytes_spilled));
    auto render_lat = [&out](const char* label, std::vector<std::uint64_t> us) {
      if (us.empty()) return;
      std::sort(us.begin(), us.end());
      AppendF(out, "  %s us: p50 %llu | p95 %llu | p99 %llu | max %llu (n=%zu)\n", label,
              static_cast<unsigned long long>(Quantile(us, 0.50)),
              static_cast<unsigned long long>(Quantile(us, 0.95)),
              static_cast<unsigned long long>(Quantile(us, 0.99)),
              static_cast<unsigned long long>(us.back()), us.size());
    };
    render_lat("map task", job.map_task_us);
    render_lat("reduce task", job.reduce_task_us);
    if (!job.reduce_start_delay_us.empty()) {
      std::vector<std::uint64_t> us = job.reduce_start_delay_us;
      std::sort(us.begin(), us.end());
      AppendF(out, "  reduce start delay us: p50 %llu | p90 %llu | max %llu (n=%zu)\n",
              static_cast<unsigned long long>(Quantile(us, 0.50)),
              static_cast<unsigned long long>(Quantile(us, 0.90)),
              static_cast<unsigned long long>(us.back()), us.size());
    }
    AppendF(out, "  sched: %llu assign(s), %llu LAF repartition(s)\n",
            static_cast<unsigned long long>(job.sched_assigns),
            static_cast<unsigned long long>(job.laf_repartitions));
  }
  return out;
}

std::string RenderCurrentCapture() {
  return RenderJobSummaries(Summarize(Tracer::Global().Snapshot()));
}

}  // namespace eclipse::obs
