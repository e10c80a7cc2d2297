// Post-failure re-replication, run by the resource manager.
//
// Paper §II-A: "If a server fails, the resource manager reconstructs the
// lost file blocks in a take-over server using the replicated data blocks."
// After membership removes a failed server, every key it owned is owned by
// its successor, and replica sets shift — this pass reads the namespace the
// survivors hold and copies whatever is missing so each file's metadata
// record and each of its blocks is back at the configured replication
// factor.
//
// Only files are restored. Every other object (spills, manifests, iteration
// checkpoints) keeps the replication it was written with: intermediate
// results are not replicated by default (§II-C), and a lost one is rebuilt
// by re-running its producer.
#pragma once

#include <cstddef>

#include "dfs/dfs_client.h"

namespace eclipse::dfs {

struct RecoveryReport {
  std::size_t blocks_copied = 0;
  std::size_t metadata_copied = 0;
  std::size_t blocks_lost = 0;     // file blocks no live server holds
  std::size_t blocks_dropped = 0;  // extraneous copies removed (join rebalance)
};

class FsRecovery {
 public:
  /// `self` is the resource manager's transport endpoint; `ring_provider`
  /// must already reflect the post-failure membership.
  FsRecovery(int self, net::Transport& transport, RingProvider ring_provider);

  /// List every live server's blocks and metadata once, then put each file's
  /// metadata record and its num_blocks blocks on every replica target that
  /// lacks them. With `drop_extraneous` (the server-join rebalance mode, §II:
  /// the resource manager also handles joins), a file block's copies on
  /// servers that are no longer in its replica set are deleted once every
  /// target has one — so ownership follows the ring as it grows.
  RecoveryReport Repair(std::size_t replication = 3, bool drop_extraneous = false);

 private:
  const int self_;
  net::Transport& transport_;
  RingProvider ring_;
};

}  // namespace eclipse::dfs
