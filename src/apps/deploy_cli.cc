#include "apps/deploy_cli.h"

#include <cstdlib>
#include <cstring>
#include <sstream>

namespace eclipse::apps {

namespace {

const Flag kWorkerFlags[] = {
    {"--coordinator", "HOST:PORT", "127.0.0.1:9090",
     "Coordinator bootstrap endpoint to register with"},
    {"--listen-host", "HOST", "127.0.0.1", "Address the data listener binds"},
    {"--advertise-host", "HOST", "127.0.0.1",
     "Address peers should dial (differs from --listen-host behind NAT)"},
    {"--port", "N", "0", "Data listener port (0 = OS-assigned)"},
    {"--node", "N", "-1", "Requested node id (-1 = coordinator assigns)"},
    {"--heartbeat-ms", "N", "500", "Heartbeat interval to the coordinator"},
    {"--hello-timeout-ms", "N", "10000", "Handshake RPC deadline"},
    {"--help", nullptr, nullptr, "Print this help and exit"},
};

const Flag kCoordinatorFlags[] = {
    {"--port", "N", "9090", "Bootstrap listener port workers dial"},
    {"--listen-host", "HOST", "127.0.0.1", "Address the bootstrap/data listeners bind"},
    {"--workers", "N", "4", "Worker processes to wait for before starting the cluster"},
    {"--wait-ms", "N", "30000", "How long to wait for --workers registrations (-1 = forever)"},
    {"--heartbeat-ms", "N", "500", "Expected worker heartbeat interval"},
    {"--heartbeat-misses", "N", "6",
     "Consecutive missed heartbeats before a worker is declared failed"},
    {"--cache-mb", "N", "64", "Per-worker cache capacity (MiB), dictated via kWelcome"},
    {"--block-kb", "N", "64", "DHT-FS block size (KiB)"},
    {"--replication", "N", "3", "DHT-FS replication factor"},
    {"--vnodes", "N", "1", "Virtual ring positions per worker"},
    {"--scheduler", "laf|delay", "laf", "Shuffle scheduler (paper's LAF or delay scheduling)"},
    {"--job", "NAME", "wordcount", "Workload to run: wordcount or none (bring-up only)"},
    {"--input-kb", "N", "200", "Generated corpus size (KiB)"},
    {"--seed", "N", "42", "Corpus generator seed (same seed = same corpus = same output)"},
    {"--submitters", "N", "1", "Concurrent submitter threads"},
    {"--jobs-per-submitter", "N", "1", "Jobs each submitter runs"},
    {"--metrics-port", "N", "0",
     "Serve Prometheus text exposition over HTTP at /metrics (0 = off)"},
    {"--serve", nullptr, nullptr,
     "Stay up after the job until SIGINT/SIGTERM (for scraping --metrics-port)"},
    {"--keep-workers", nullptr, nullptr,
     "Do not broadcast shutdown to workers on exit (they outlive this coordinator)"},
    {"--help", nullptr, nullptr, "Print this help and exit"},
};

}  // namespace

const FlagSet& WorkerFlagSet() {
  static const FlagSet set{
      "eclipse-worker",
      "host one worker's data plane (DFS blocks + cache slice) and register "
      "with an eclipse-coordinator",
      kWorkerFlags, sizeof(kWorkerFlags) / sizeof(kWorkerFlags[0])};
  return set;
}

const FlagSet& CoordinatorFlagSet() {
  static const FlagSet set{
      "eclipse-coordinator",
      "bootstrap worker processes, form the cluster, and run MapReduce jobs "
      "across them",
      kCoordinatorFlags, sizeof(kCoordinatorFlags) / sizeof(kCoordinatorFlags[0])};
  return set;
}

std::string ParsedFlags::Str(const std::string& flag, const std::string& def) const {
  auto it = values.find(flag);
  return it == values.end() ? def : it->second;
}

long long ParsedFlags::Int(const std::string& flag, long long def) const {
  auto it = values.find(flag);
  if (it == values.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

ParsedFlags Parse(const FlagSet& set, int argc, char** argv) {
  ParsedFlags out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const Flag* flag = nullptr;
    for (std::size_t f = 0; f < set.count; ++f) {
      if (arg == set.flags[f].name) {
        flag = &set.flags[f];
        break;
      }
    }
    if (!flag) {
      out.error = "unknown flag: " + arg + " (see --help)";
      return out;
    }
    if (arg == "--help") {
      out.help = true;
      out.ok = true;
      return out;
    }
    if (flag->arg == nullptr) {  // boolean
      if (has_value) {
        out.error = arg + " takes no value";
        return out;
      }
      out.values[arg] = '1';
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        out.error = arg + " requires a value";
        return out;
      }
      value = argv[++i];
    }
    out.values[arg] = value;
  }
  out.ok = true;
  return out;
}

std::string Help(const FlagSet& set) {
  std::ostringstream os;
  os << "usage: " << set.binary << " [flags]\n  " << set.synopsis << "\n\nflags:\n";
  for (std::size_t f = 0; f < set.count; ++f) {
    const Flag& flag = set.flags[f];
    std::string left = flag.name;
    if (flag.arg) left += std::string(" ") + flag.arg;
    os << "  " << left;
    for (std::size_t pad = left.size(); pad < 28; ++pad) os << ' ';
    os << flag.help;
    if (flag.def) os << " (default " << flag.def << ")";
    os << "\n";
  }
  return os.str();
}

std::uint64_t OutputFingerprint(const std::vector<mr::KV>& output) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xFF) * 1099511628211ull;  // field separator
  };
  for (const auto& kv : output) {
    mix(kv.key);
    mix(kv.value);
  }
  return h;
}

bool SplitHostPort(const std::string& s, std::string* host, int* port) {
  auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) return false;
  char* end = nullptr;
  long p = std::strtol(s.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || p < 1 || p > 65535) return false;
  *host = s.substr(0, colon);
  *port = static_cast<int>(p);
  return true;
}

}  // namespace eclipse::apps
