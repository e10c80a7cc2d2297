#include "apps/proc_fleet.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mr/worker_host.h"

namespace eclipse::apps {

const char kFleetWorkerFlag[] = "--fleet-worker=";

void MaybeRunFleetWorker(int argc, char** argv) {
  int port = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFleetWorkerFlag, sizeof(kFleetWorkerFlag) - 1) == 0) {
      port = std::atoi(argv[i] + sizeof(kFleetWorkerFlag) - 1);
      break;
    }
  }
  if (port < 0) return;

  mr::WorkerHostOptions opts;
  opts.coordinator_host = "127.0.0.1";
  opts.coordinator_port = port;
  // The parent may run a long in-process reference phase before it brings
  // the coordinator up; keep retrying kHello well past the default.
  opts.hello_timeout_ms = 60'000;
  mr::WorkerHost host(opts);
  if (!host.Start()) {
    std::fprintf(stderr, "fleet worker (pid %d): %s\n", getpid(), host.error().c_str());
    std::_Exit(2);
  }
  std::_Exit(host.Serve());
}

bool ProcFleet::Spawn(const char* argv0, int n, int port) {
  char self[4096];
  ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len > 0) {
    self[len] = '\0';
  } else {
    std::snprintf(self, sizeof(self), "%s", argv0);
  }
  const std::string flag = kFleetWorkerFlag + std::to_string(port);
  for (int i = 0; i < n; ++i) {
    pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return false;
    }
    if (pid == 0) {
      ::execl(self, self, flag.c_str(), static_cast<char*>(nullptr));
      std::perror("execl");  // only reached when exec fails
      std::_Exit(127);
    }
    pids_.push_back(pid);
  }
  return true;
}

bool ProcFleet::ExpectCleanExit() {
  bool ok = true;
  for (pid_t pid : pids_) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) {
      std::fprintf(stderr, "fleet worker %d: waitpid failed\n", pid);
      ok = false;
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "fleet worker %d: exit status %d (want clean shutdown 0)\n",
                   pid, WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      ok = false;
    }
  }
  pids_.clear();
  return ok;
}

}  // namespace eclipse::apps
