// Lazy caching with invalidation (paper §3.3: "another may use lazy replication").
//
// The master holds the authoritative state. Cache replicas fetch state on demand and
// serve reads from the local copy while it is valid; on every write the master sends
// invalidations, and caches re-fetch lazily on the next read. Ideal for read-mostly
// objects whose state is large relative to the read traffic — the situation the GDN's
// popular-but-rarely-updated software packages are in.
//
// Cache tracking and the invalidation fan-out ride on the shared dso::ReplicaGroup
// layer; invalidations are epoch-stamped like every other group push. Caches hold
// the terminal kCache role — they are never electable (a cache may not even hold
// valid state), so this protocol has no master fail-over.
//
// Both classes sit on dso::ServingReplica (src/dso/replica_core.h), which
// serves dso.invoke / dso.get_state / dso.master_endpoint and the read path.
//
// Peer methods (beyond dso.invoke / dso.get_state / dso.master_endpoint):
//   ci.register   : endpoint -> version, epoch  (cache joins; no state transferred)
//   ci.unregister : endpoint -> empty
//   ci.fetch      : empty -> VersionedState     (cache -> master, on demand)
//   ci.invalidate : version, epoch -> PushAck   (master -> caches)

#ifndef SRC_DSO_CACHE_INVAL_H_
#define SRC_DSO_CACHE_INVAL_H_

#include <memory>

#include "src/dso/replica_core.h"

namespace globe::dso {

class CacheInvalMaster : public ServingReplica {
 public:
  CacheInvalMaster(sim::Transport* transport, sim::NodeId host,
                   std::unique_ptr<SemanticsObject> semantics,
                   WriteGuard write_guard = nullptr);

  size_t num_caches() const { return group_.num_members(); }
  uint64_t fetches_served() const { return fetches_served_; }

 private:
  sim::Endpoint MasterEndpoint() const override { return comm_.endpoint(); }
  // Reads and writes both execute at the master (caches forward writes here),
  // so both sample kinds are recorded here.
  void Write(const Invocation& invocation, sim::NodeId client,
             InvokeCallback done) override;

  uint64_t fetches_served_ = 0;
};

class CacheInvalCache : public ServingReplica {
 public:
  CacheInvalCache(sim::Transport* transport, sim::NodeId host,
                  std::unique_ptr<SemanticsObject> semantics, sim::Endpoint master,
                  WriteGuard write_guard = nullptr);

  void Start(std::function<void(Status)> done) override;
  void Shutdown(std::function<void(Status)> done) override;

  bool valid() const { return valid_; }
  uint64_t fetches() const { return fetches_; }

 private:
  sim::Endpoint MasterEndpoint() const override { return master_; }
  // Reads are served from the local copy, fetched first if invalidated.
  void Read(const Invocation& invocation, sim::NodeId client,
            InvokeCallback done) override;
  // Writes forward to the master, which dedups dso.invoke (retries are safe)
  // and records them, so they are never double-counted.
  void Write(const Invocation& invocation, sim::NodeId client,
             InvokeCallback done) override;
  // Ensures a valid local copy (fetching if necessary), then runs fn.
  void WithValidState(std::function<void(Status)> fn);

  sim::Endpoint master_;
  bool valid_ = false;
  uint64_t fetches_ = 0;
};

}  // namespace globe::dso

#endif  // SRC_DSO_CACHE_INVAL_H_
