// Master/slave replication: the second protocol of the first Globe release (paper
// §7) and the one the GDN architecture leans on ("a Globe Object Server acting as
// master replica in a master/slave replication protocol", §6.1).
//
// The master holds the authoritative state and executes all writes; after each write
// it eagerly pushes the new state to every registered slave. Slaves execute reads on
// their local copy and forward writes to the master.
//
// The write pipeline itself — fan-out, quorum votes, commit floor, rollback,
// registration, fail-over wiring — is the shared dso::PrimaryBackupReplica
// core (src/dso/replica_core.h). What master/slave adds is the update it fans
// out (the full new state) and its follower side: one staged slot holding a
// pushed state above the commit floor until the floor reaches it. One class
// serves both roles; MasterSlaveMaster / MasterSlaveSlave remain as
// constructors for the two starting roles.
//
// Peer methods (beyond the core's dso.invoke / dso.get_state /
// dso.master_endpoint / dso.lease; slaves forward writes through dso.invoke):
//   ms.register_slave   : endpoint -> VersionedState   (slave joins, gets snapshot)
//   ms.unregister_slave : endpoint -> empty
//   ms.state_push       : VersionedState -> PushAck    (master -> slave; refused
//                                                       under a stale epoch)

#ifndef SRC_DSO_MASTER_SLAVE_H_
#define SRC_DSO_MASTER_SLAVE_H_

#include <memory>
#include <utility>

#include "src/dso/replica_core.h"

namespace globe::dso {

class MasterSlaveReplica : public PrimaryBackupReplica {
 public:
  // Master: pass master = {kNoNode, 0}. Slave: the master's peer endpoint.
  MasterSlaveReplica(sim::Transport* transport, sim::NodeId host,
                     std::unique_ptr<SemanticsObject> semantics, GroupRole role,
                     sim::Endpoint master, WriteGuard write_guard = nullptr,
                     FailoverConfig failover = {});

  // A slave also unregisters from its master.
  void Shutdown(std::function<void(Status)> done) override;

  size_t num_slaves() const { return group_.num_members(); }

 private:
  // A write held durably by a slave but not yet executed: it executes only once
  // the group's commit floor reaches its version (quorum mode). version == 0
  // means the slot is empty. The slot is overwritten by any newer push of the
  // same or a higher version — a rolled-back write's version slot is reused by
  // the next write, and the stale payload must not survive that reuse.
  struct Staged {
    uint64_t version = 0;
    uint64_t epoch = 0;
    Bytes state;
  };

  // Pushes the new state, epoch-stamped, to every slave.
  void FanOutUpdate(const Invocation& invocation, uint64_t committed,
                    uint64_t commit_point,
                    std::function<void(const FanOutResult&)> done) override;
  // Executes the staged write once the commit floor has reached its version.
  void ApplyCommitted(uint64_t floor) override;
  void DiscardUncommitted() override { staged_ = Staged{}; }
  uint64_t DurableVersion() const override {
    return staged_.version > version_ ? staged_.version : version_;
  }
  const sim::TypedMethod<EndpointMessage, VersionedState>& RegisterMethod()
      const override;
  const sim::TypedMethod<Invocation, Bytes>& ForwardMethod() const override {
    return kDsoInvoke;
  }
  const Vocabulary& Words() const override;

  Staged staged_;  // slave side: held-not-applied write
};

class MasterSlaveMaster : public MasterSlaveReplica {
 public:
  MasterSlaveMaster(sim::Transport* transport, sim::NodeId host,
                    std::unique_ptr<SemanticsObject> semantics,
                    WriteGuard write_guard = nullptr, FailoverConfig failover = {})
      : MasterSlaveReplica(transport, host, std::move(semantics),
                           GroupRole::kMaster, sim::Endpoint{},
                           std::move(write_guard), std::move(failover)) {}
};

class MasterSlaveSlave : public MasterSlaveReplica {
 public:
  MasterSlaveSlave(sim::Transport* transport, sim::NodeId host,
                   std::unique_ptr<SemanticsObject> semantics, sim::Endpoint master,
                   WriteGuard write_guard = nullptr, FailoverConfig failover = {})
      : MasterSlaveReplica(transport, host, std::move(semantics), GroupRole::kSlave,
                           master, std::move(write_guard), std::move(failover)) {}
};

}  // namespace globe::dso

#endif  // SRC_DSO_MASTER_SLAVE_H_
