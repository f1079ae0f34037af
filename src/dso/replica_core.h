// The shared core beneath the hosted replication protocols.
//
// ServingReplica is what every hosted replica of master/slave, active
// replication and cache/invalidate has in common: the semantics and
// communication subobjects, the replica group, the write guard, the version
// counter and the telemetry hook; the ReplicationObject accessors; and the
// protocol-agnostic dso.invoke / dso.get_state / dso.master_endpoint handlers,
// with the retired refusal and the local read path in front of every protocol.
//
// PrimaryBackupReplica is the one write pipeline of the primary-backup
// protocols (paper §7: master/slave, and active replication). One primary
// executes each write, then fans an update out to its followers. The protocols
// differ only in what the update carries — the new state (ms.state_push) or
// the invocation (ar.apply) — and in how a follower holds an update that lies
// above the commit floor. Everything else lives here, once:
//   - lease-only writes: execute, fan out, ack once every member answered;
//     with fail-over on, a member that never confirmed refuses the ack (the
//     acked-write floor) and a fenced fan-out means this primary was deposed;
//   - quorum writes (FailoverConfig::quorum): serialized through one queue,
//     refused up front when the reachable group cannot form a majority,
//     counted by durable-version votes, acked only after the commit floor was
//     published to the GLS arbiter, and rolled back (state and version slot)
//     on any failure;
//   - the registration handshake, which hands a joining follower the
//     pre-write snapshot while a quorum round is in flight, never state that
//     may yet roll back;
//   - the dso.lease handler and the receive side of every update: write
//     guard, epoch fence, commit floor.

#ifndef SRC_DSO_REPLICA_CORE_H_
#define SRC_DSO_REPLICA_CORE_H_

#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "src/dso/comm.h"
#include "src/dso/protocols.h"
#include "src/dso/replica_group.h"
#include "src/dso/subobjects.h"
#include "src/dso/wire.h"

namespace globe::dso {

class ServingReplica : public ReplicationObject {
 public:
  void Invoke(const Invocation& invocation, InvokeCallback done) override {
    InvokeFrom(invocation, comm_.endpoint().node, std::move(done));
  }
  uint64_t version() const override { return version_; }
  uint64_t epoch() const override { return group_.epoch(); }
  void set_epoch(uint64_t e) override { group_.set_epoch(e); }
  std::optional<gls::ContactAddress> contact_address() const override {
    return gls::ContactAddress{comm_.endpoint(), protocol_,
                               ToReplicaRole(group_.role())};
  }
  SemanticsObject* semantics() override { return semantics_.get(); }
  void set_version(uint64_t v) override { version_ = v; }
  const ReplicaGroup* group() const override { return &group_; }
  void set_access_hook(AccessHook hook) override { access_hook_ = std::move(hook); }

 protected:
  ServingReplica(sim::Transport* transport, sim::NodeId host,
                 std::unique_ptr<SemanticsObject> semantics, WriteGuard write_guard,
                 gls::ProtocolId protocol, GroupRole role);

  // Where this replica sends writes (answered by dso.master_endpoint).
  virtual sim::Endpoint MasterEndpoint() const = 0;
  // Reads execute on the local copy and are recorded where they are served.
  virtual void Read(const Invocation& invocation, sim::NodeId client,
                    InvokeCallback done);
  // Writes execute, queue or forward as the protocol requires; they are
  // recorded only where they execute, so a forwarded write counts once.
  virtual void Write(const Invocation& invocation, sim::NodeId client,
                     InvokeCallback done) = 0;

  // Invoke with the originating client known.
  void InvokeFrom(const Invocation& invocation, sim::NodeId client,
                  InvokeCallback done);
  // Once dso.retire latched, refuses `done` and returns true. Refusing reads
  // too is the point: a retired replica must never serve dead state silently.
  bool RefusedAsRetired(const InvokeCallback& done);
  void RecordWrite(const Invocation& invocation, sim::NodeId client) {
    if (access_hook_) {
      access_hook_(AccessSample{true, invocation.args.size(), client});
    }
  }

  CommunicationObject comm_;
  std::unique_ptr<SemanticsObject> semantics_;
  WriteGuard write_guard_;
  ReplicaGroup group_;
  uint64_t version_ = 0;
  AccessHook access_hook_;

 private:
  gls::ProtocolId protocol_;
};

class PrimaryBackupReplica : public ServingReplica {
 public:
  // The primary claims or resumes GLS mastership (with fail-over on); a
  // follower registers with the primary, installs its snapshot and starts its
  // lease watch.
  void Start(std::function<void(Status)> done) override;
  void Shutdown(std::function<void(Status)> done) override;

 protected:
  // How refusal messages name this protocol's primary and its updates. The
  // refusals travel on the wire, so the words are part of the protocol.
  struct Vocabulary {
    std::string_view primary;   // "not <primary>"
    std::string_view deposed;   // "no longer <deposed>: deposed by epoch N"
    std::string_view executed;  // "write <executed> but not fully replicated"
    std::string_view updates;   // "F of P <updates> unconfirmed"
  };

  // Per-attempt deadline of an update fan-out: a dead member must not wedge
  // the primary.
  static constexpr sim::SimTime kUpdateDeadline = 5 * sim::kSecond;

  // A follower passes its primary's endpoint; a primary passes {kNoNode, 0}.
  PrimaryBackupReplica(sim::Transport* transport, sim::NodeId host,
                       std::unique_ptr<SemanticsObject> semantics,
                       WriteGuard write_guard, gls::ProtocolId protocol,
                       GroupRole role, sim::Endpoint primary,
                       FailoverConfig failover);

  // ---- What each protocol supplies.

  // Fans the write just executed (now at version_) out to every member with
  // group_.FanOut, stamped with `committed` as the commit floor. An ack counts
  // as a vote only when its durable version reaches `commit_point` (0: every
  // accept counts).
  virtual void FanOutUpdate(const Invocation& invocation, uint64_t committed,
                            uint64_t commit_point,
                            std::function<void(const FanOutResult&)> done) = 0;
  // Follower side: executes the held updates the commit floor has reached.
  virtual void ApplyCommitted(uint64_t floor) = 0;
  // Follower side: drops every held update (a snapshot or an election
  // superseded them).
  virtual void DiscardUncommitted() = 0;
  // Applied version plus the held suffix this replica could serve if elected;
  // reported in update acks, lease acks and claims.
  virtual uint64_t DurableVersion() const = 0;
  // The method a follower joins with, and the one it forwards writes through
  // (the primary dedups it, so the retry budget cannot double-execute).
  virtual const sim::TypedMethod<EndpointMessage, VersionedState>& RegisterMethod()
      const = 0;
  virtual const sim::TypedMethod<Invocation, Bytes>& ForwardMethod() const = 0;
  virtual const Vocabulary& Words() const = 0;

  // ---- Shared pieces for the protocols' own handlers.

  // Receive side of an update: write guard, epoch fence, a primary's refusal
  // and the commit floor the update carries; then `apply` holds or executes
  // the update, and the ack reports the durable version.
  template <typename Apply>
  Result<PushAck> AcceptUpdate(const sim::RpcContext& ctx, uint64_t epoch,
                               uint64_t committed, Apply apply) {
    if (write_guard_) {
      RETURN_IF_ERROR(write_guard_(ctx));
    }
    PushAck ack = group_.FenceIncoming(epoch);
    if (ack.accepted == 0) {
      return ack;  // stale primary: refuse, report our epoch
    }
    if (group_.is_master()) {
      // Two primaries under one epoch should not exist; refuse rather than
      // let a peer overwrite the authoritative copy.
      return PushAck{0, group_.epoch()};
    }
    group_.RecordCommit(committed);
    RETURN_IF_ERROR(apply());
    ack.durable_version = DurableVersion();
    return ack;
  }
  // The registration handler: adds the member and hands out the snapshot.
  Result<VersionedState> AdmitMember(const EndpointMessage& request);
  // A write that reached the primary: queued behind the in-flight quorum
  // round in quorum mode, executed at once otherwise.
  void WriteAtPrimary(const Invocation& invocation, sim::NodeId client,
                      InvokeCallback done);
  // Registration handshake: join at the primary, adopt its snapshot and epoch.
  void RegisterWithPrimary(std::function<void(Status)> done);

  // Meaningful while this replica is a follower.
  const sim::Endpoint& primary() const { return primary_; }

 private:
  // A write waiting for the single in-flight quorum round. Quorum mode
  // serializes writes: the commit floor must be published in version order,
  // and the rollback point only exists for one write at a time.
  struct QueuedWrite {
    Invocation invocation;
    sim::NodeId client;
    InvokeCallback done;
  };
  // An executed write waiting for its fan-out (and, in quorum mode, its
  // commit-floor publication) before the client hears the result.
  struct PendingAck {
    InvokeCallback done;
    Result<Bytes> result;
  };

  sim::Endpoint MasterEndpoint() const override;
  void Write(const Invocation& invocation, sim::NodeId client,
             InvokeCallback done) override;
  void Forward(const Invocation& invocation, InvokeCallback done);
  // Lease-only write: executes, fans out, responds once every remaining
  // member answered.
  void ExecuteWrite(const Invocation& invocation, sim::NodeId client,
                    InvokeCallback done);
  // Quorum write pump: pops the next queued write, refuses it up front if the
  // reachable group cannot assemble a quorum, otherwise executes it, fans the
  // update out with the write as its commit point, publishes the commit floor
  // on quorum and only then acks.
  void PumpWrites();
  // Rolls the in-flight quorum write back and refuses it definitively.
  void RefuseQuorumWrite(PendingAck* pending, std::string why);
  // Restores the pre-write snapshot after a failed quorum round. Safe to reuse
  // the version slot afterwards: every update of the failed round either
  // settled or exhausted its per-attempt deadline before the fan-out
  // completed, so no stale same-version datagram is still in flight.
  void RollbackWrite();

  sim::Endpoint primary_;
  std::deque<QueuedWrite> write_queue_;  // primary side, quorum mode
  bool write_in_flight_ = false;
  // Rollback point of the in-flight quorum write; also what registration
  // snapshots hand out mid-write, so a joining follower never adopts state
  // that may yet roll back.
  Bytes pre_write_state_;
  uint64_t pre_write_version_ = 0;
};

}  // namespace globe::dso

#endif  // SRC_DSO_REPLICA_CORE_H_
