// Active replication: every member applies every write (paper §3.3: "one object may
// actively replicate all the state at all the local representatives").
//
// Writes are totally ordered by a sequencer (the member with the master role): any
// member receiving a write forwards the marshalled invocation to the sequencer, which
// assigns it a version, applies it locally, and broadcasts it to all members. Members
// buffer out-of-order deliveries and apply strictly in version order — invocations,
// not state, travel on the wire, which is what distinguishes this protocol from
// master/slave for large objects with small updates.
//
// The write pipeline — fan-out, quorum votes, commit floor, rollback,
// registration, and sequencer fail-over on the shared dso::ReplicaGroup layer
// — is the shared dso::PrimaryBackupReplica core (src/dso/replica_core.h).
// What active replication adds is the update it fans out (the invocation) and
// its follower side: an ordered pending buffer that executes strictly in
// version order up to the commit floor, and a resync from the sequencer when
// the floor moves past a hole no later broadcast can fill.
//
// Peer methods (beyond the core's dso.invoke / dso.get_state /
// dso.master_endpoint / dso.lease):
//   ar.register : endpoint -> VersionedState      (member joins at the sequencer)
//   ar.order    : Invocation -> result bytes      (member -> sequencer)
//   ar.apply    : version, epoch, Invocation -> PushAck (sequencer -> members)

#ifndef SRC_DSO_ACTIVE_REPL_H_
#define SRC_DSO_ACTIVE_REPL_H_

#include <map>
#include <memory>

#include "src/dso/replica_core.h"

namespace globe::dso {

class ActiveReplMember : public PrimaryBackupReplica {
 public:
  // Sequencer: pass an empty sequencer endpoint (node == kNoNode). Member: pass
  // the sequencer's contact endpoint.
  ActiveReplMember(sim::Transport* transport, sim::NodeId host,
                   std::unique_ptr<SemanticsObject> semantics, sim::Endpoint sequencer,
                   WriteGuard write_guard = nullptr, FailoverConfig failover = {});

  bool is_sequencer() const { return group_.is_master(); }
  size_t num_members() const { return group_.num_members(); }

 private:
  // Broadcasts the ordered invocation, epoch-stamped, to every member.
  void FanOutUpdate(const Invocation& invocation, uint64_t committed,
                    uint64_t commit_point,
                    std::function<void(const FanOutResult&)> done) override;
  // Executes the buffered writes the commit floor has reached; a floor past
  // the contiguous suffix exposes a hole only a snapshot can fill.
  void ApplyCommitted(uint64_t floor) override;
  void DiscardUncommitted() override { pending_.clear(); }
  // Applied version plus the contiguous buffered suffix (a member with a hole
  // cannot count anything past it — it could not materialize those if elected).
  uint64_t DurableVersion() const override {
    uint64_t durable = version_;
    while (pending_.find(durable + 1) != pending_.end()) {
      ++durable;
    }
    return durable;
  }
  const sim::TypedMethod<EndpointMessage, VersionedState>& RegisterMethod()
      const override;
  const sim::TypedMethod<Invocation, Bytes>& ForwardMethod() const override;
  const Vocabulary& Words() const override;

  // Member side: applies broadcast writes strictly in version order. In quorum
  // mode a write executes only once the commit floor reaches it; above the
  // floor it stays buffered in pending_ — held durably, reported in
  // DurableVersion, executed when a later apply or lease raises the floor.
  Status ApplyOrdered(uint64_t write_version, const Invocation& invocation);
  // Executes every buffered consecutive write the commit floor has reached;
  // returns the first apply error (the write stays buffered for retry).
  Status DrainPending();
  // A member that learns a commit floor past its contiguous suffix has a hole
  // it can never fill from broadcasts alone: resync from the sequencer.
  void MaybeResync();

  std::map<uint64_t, Invocation> pending_;  // out-of-order buffer (members)
  bool resync_in_flight_ = false;
};

}  // namespace globe::dso

#endif  // SRC_DSO_ACTIVE_REPL_H_
