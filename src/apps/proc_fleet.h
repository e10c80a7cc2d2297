// Self-exec worker fleet: turn any example or benchmark binary into a real
// multi-process deployment without depending on the eclipse-worker binary's
// install path.
//
// The pattern (used by examples/chaos_wordcount and examples/multi_tenant
// for their --procs modes, and by perfbench's tenants_procs workload):
//
//   int main(int argc, char** argv) {
//     apps::MaybeRunFleetWorker(argc, argv);   // child re-exec lands here
//     ...
//     auto coordinator = ...;                  // DeploymentCoordinator, port 0
//     apps::ProcFleet fleet;
//     fleet.Spawn(argv[0], 8, coordinator->bootstrap_port());  // fork+exec self 8x
//     ... Cluster over the coordinator ...
//     coordinator->ShutdownAll();
//     if (!fleet.ExpectCleanExit()) return 1;  // every worker must exit 0
//   }
//
// Each child is a genuine separate process (fork + immediate execv of
// /proc/self/exe, so no post-fork lock hazards) that runs a
// mr::WorkerHost against 127.0.0.1:port and exits with Serve()'s code:
// 0 = coordinator-requested shutdown, 1 = coordinator lost. The parent's
// ExpectCleanExit() therefore proves the shutdown drain worked end to end,
// not just that the job finished. See docs/deployment.md.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace eclipse::apps {

/// Flag the re-exec'd children carry: "--fleet-worker=PORT".
extern const char kFleetWorkerFlag[];

/// If argv contains --fleet-worker=PORT, run a WorkerHost against
/// 127.0.0.1:PORT and exit the process with Serve()'s return code (never
/// returns). Call first thing in main(), before argument validation.
void MaybeRunFleetWorker(int argc, char** argv);

/// Parent-side handle on the forked worker processes.
class ProcFleet {
 public:
  /// fork+exec this binary (resolved via /proc/self/exe, falling back to
  /// argv0) `n` times with --fleet-worker=port. Returns false if any fork
  /// fails (already-spawned children are still reaped by ExpectCleanExit).
  bool Spawn(const char* argv0, int n, int port);

  /// waitpid() every child; true only if all exited with status 0 (a clean
  /// coordinator-requested shutdown). Prints a diagnostic per misbehaving
  /// worker.
  bool ExpectCleanExit();

  std::size_t size() const { return pids_.size(); }

 private:
  std::vector<pid_t> pids_;
};

}  // namespace eclipse::apps
