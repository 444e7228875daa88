#ifndef CHRONOCACHE_CORE_SESSION_H_
#define CHRONOCACHE_CORE_SESSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/lru_cache.h"

namespace chrono::core {

using ClientId = int;

/// \brief Session-semantics bookkeeping (§5.2): a middleware node's local
/// view of the database's per-relation versions (Vd) plus each client's
/// session vector (Vc). Cached results carry sparse version vectors (Vr);
/// a client may consume a cached result only if Vr[i] >= Vc[i] for every
/// relation i the result's query accessed, after which Vc absorbs Vr.
///
/// In multi-node deployments (§5.2, last paragraph) every remote database
/// access increments *all* entries of Vd, because other nodes may have
/// advanced the database state invisibly; results are then additionally
/// keyed by node id so version vectors are never compared across nodes.
class SessionManager {
 public:
  /// `multi_node` selects the conservative multi-node advancement rule.
  explicit SessionManager(bool multi_node) : multi_node_(multi_node) {}

  /// Dense id for a relation name (lazily assigned).
  int RelationId(const std::string& name);

  /// A client wrote the given relations: bump Vd and sync the writer's Vc
  /// so it observes its own writes.
  void OnClientWrite(ClientId client, const std::vector<std::string>& writes);

  /// Any remote database access in multi-node mode advances every relation.
  void OnRemoteAccess();

  /// Vd snapshot restricted to the given relations (tag for a new result).
  cache::VersionVector SnapshotFor(const std::vector<std::string>& reads);

  /// A client received a fresh result from the remote database: Vc = Vd
  /// (§5.2).
  void SyncClientToDb(ClientId client);

  /// May `client` consume a cached result with versions `vr`?
  bool CanUse(ClientId client, const cache::VersionVector& vr) const;

  /// Vc[i] = max(Vc[i], Vr[i]) after a cache read.
  void AbsorbResult(ClientId client, const cache::VersionVector& vr);

  uint64_t VersionOf(const std::string& relation) const;

 private:
  std::vector<uint64_t>& ClientVector(ClientId client);

  bool multi_node_;
  std::unordered_map<std::string, int> relation_ids_;
  std::vector<uint64_t> vd_;  // database versions, indexed by relation id
  std::unordered_map<ClientId, std::vector<uint64_t>> vc_;
};

}  // namespace chrono::core

#endif  // CHRONOCACHE_CORE_SESSION_H_
