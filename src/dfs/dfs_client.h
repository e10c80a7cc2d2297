// Client API of the DHT file system.
//
// Implements the paper's access protocol (§II-A, Fig. 2): hash the file name
// to find the metadata owner, read the metadata there (permission check
// happens at the owner), then fetch blocks directly from the servers whose
// hash-key ranges cover each block key — no central directory is ever
// consulted. Writes replicate metadata and blocks to the owner's predecessor
// and successor.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dfs/dfs_node.h"
#include "net/retry.h"
#include "net/transport.h"

namespace eclipse::dfs {

struct DfsClientOptions {
  Bytes default_block_size = 4_KiB;  // tests/examples scale; paper used 128 MiB
  std::size_t replication = 3;       // owner + successor + predecessor
  std::string user = "eclipse";
  /// Per-call retry policy (kUnavailable only; see net/retry.h). The
  /// default retries twice with millisecond backoff — enough to ride out a
  /// dropped frame, cheap enough that probing a genuinely dead server stays
  /// fast before falling through to the next replica.
  net::RetryPolicy retry;
};

class DfsClient {
 public:
  /// `self` identifies the calling endpoint on the transport (a worker node
  /// id, or any unused id for an external client).
  DfsClient(int self, net::Transport& transport, RingProvider ring_provider,
            DfsClientOptions options = {});

  // ---- Whole-file operations -------------------------------------------

  /// Partition `content` into fixed-size blocks and write the file: metadata
  /// to the metadata owner (+ replicas), each block to the servers owning
  /// its hash key (+ replicas). Fails AlreadyExists if `name` is taken.
  Status Upload(const std::string& name, const std::string& content);
  Status Upload(const std::string& name, const std::string& content, Bytes block_size,
                bool public_read);

  /// Read metadata (with the owner-side permission check) then every block.
  Result<std::string> ReadFile(const std::string& name);

  /// Remove a file: all block replicas, then all metadata replicas.
  Status Delete(const std::string& name);

  /// List every file in the namespace readable by this client's user. The
  /// namespace is decentralized (§II-A), so this unions the metadata held
  /// by all live servers and deduplicates the replicas. Sorted by name.
  std::vector<FileMetadata> ListFiles();

  // ---- Block-granular operations (the MapReduce engine's path) ----------

  Result<FileMetadata> GetMetadata(const std::string& name);

  /// Read one block, trying the owner first and then the other replicas.
  Result<std::string> ReadBlock(const FileMetadata& meta, std::uint64_t index);

  /// Same, reporting which server actually served the block in
  /// `*served_by` (unchanged on failure). The MapReduce engine uses this to
  /// classify a map task's locality: served_by == the worker's own id means
  /// the block came off local disk, anything else was a remote-disk read.
  Result<std::string> ReadBlock(const FileMetadata& meta, std::uint64_t index,
                                int* served_by);

  /// Read `len` bytes of block `index` starting at `offset` (clamped to the
  /// block end). The record reader uses this to peek at one boundary byte
  /// without transferring the whole previous block.
  Result<std::string> ReadBlockRange(const FileMetadata& meta, std::uint64_t index,
                                     Bytes offset, Bytes len);

  // ---- Intermediate results (§II-C/D) ------------------------------------

  /// Persist an intermediate result (or iteration output) under an explicit
  /// id and hash key. Not replicated by default; optional TTL.
  Status PutObject(const std::string& id, HashKey key, const std::string& data,
                   std::chrono::milliseconds ttl = std::chrono::milliseconds::zero(),
                   std::size_t replication = 1);

  /// Fetch an object stored with PutObject (or fail NotFound / Expired).
  /// The one-id case of GetObjects.
  Result<std::string> GetObject(const std::string& id, HashKey key);

  /// Fetch several objects stored under one hash key, one result per id in
  /// request order. The key's first replica is asked for every id in one
  /// call; each later replica only for the ids still missing. An id that
  /// comes back kExpired is not asked again, and a kExpired or
  /// kDeadlineExceeded call failure stops the walk.
  std::vector<Result<std::string>> GetObjects(const std::vector<std::string>& ids,
                                              HashKey key);

  /// Delete several objects stored under one hash key: one call to each of
  /// the key's first `replication` replicas carries every id, and a replica
  /// skips the ids it does not hold. Best effort: a replica the client's
  /// retry policy cannot reach keeps its copies. No call for no ids.
  void DeleteObjects(std::span<const std::string> ids, HashKey key,
                     std::size_t replication = 1);

  /// The one-id case of DeleteObjects.
  void DeleteObject(const std::string& id, HashKey key, std::size_t replication = 1);

  const DfsClientOptions& options() const { return options_; }

  /// The endpoint id this client calls from (a worker id, or an external
  /// client id).
  int self() const { return self_; }

 private:
  Result<net::Message> CallOk(int to, const net::Message& m);

  const int self_;
  net::Transport& transport_;
  RingProvider ring_;
  DfsClientOptions options_;
};

}  // namespace eclipse::dfs
