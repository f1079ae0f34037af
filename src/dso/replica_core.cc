#include "src/dso/replica_core.h"

#include <string>

#include "src/util/log.h"

namespace globe::dso {

ServingReplica::ServingReplica(sim::Transport* transport, sim::NodeId host,
                               std::unique_ptr<SemanticsObject> semantics,
                               WriteGuard write_guard, gls::ProtocolId protocol,
                               GroupRole role)
    : comm_(transport, host),
      semantics_(std::move(semantics)),
      write_guard_(std::move(write_guard)),
      group_(&comm_, role),
      protocol_(protocol) {
  comm_.RegisterAsync(kDsoInvoke, [this](const sim::RpcContext& ctx,
                                         Invocation invocation,
                                         std::function<void(Result<Bytes>)> respond) {
    if (!invocation.read_only && write_guard_) {
      if (Status s = write_guard_(ctx); !s.ok()) {
        respond(s);
        return;
      }
    }
    InvokeFrom(invocation, ctx.client.node, std::move(respond));
  });
  comm_.Register(kDsoGetState,
                 [this](const sim::RpcContext&,
                        const sim::EmptyMessage&) -> Result<VersionedState> {
                   return VersionedState{version_, group_.epoch(), version_,
                                         semantics_->GetState()};
                 });
  comm_.Register(kDsoMasterEndpoint,
                 [this](const sim::RpcContext&,
                        const sim::EmptyMessage&) -> Result<EndpointMessage> {
                   return EndpointMessage{MasterEndpoint()};
                 });
}

void ServingReplica::InvokeFrom(const Invocation& invocation, sim::NodeId client,
                                InvokeCallback done) {
  if (RefusedAsRetired(done)) {
    return;
  }
  if (invocation.read_only) {
    Read(invocation, client, std::move(done));
    return;
  }
  Write(invocation, client, std::move(done));
}

bool ServingReplica::RefusedAsRetired(const InvokeCallback& done) {
  if (!group_.retired()) {
    return false;
  }
  group_.CountRetiredRefusal();
  done(FailedPrecondition("replica retired (object migrated); rebind"));
  return true;
}

void ServingReplica::Read(const Invocation& invocation, sim::NodeId client,
                          InvokeCallback done) {
  Result<Bytes> result = semantics_->Invoke(invocation);
  if (access_hook_ && result.ok()) {
    access_hook_(AccessSample{false, result->size(), client});
  }
  done(std::move(result));
}

PrimaryBackupReplica::PrimaryBackupReplica(sim::Transport* transport,
                                           sim::NodeId host,
                                           std::unique_ptr<SemanticsObject> semantics,
                                           WriteGuard write_guard,
                                           gls::ProtocolId protocol, GroupRole role,
                                           sim::Endpoint primary,
                                           FailoverConfig failover)
    : ServingReplica(transport, host, std::move(semantics), std::move(write_guard),
                     protocol, role),
      primary_(primary) {
  failover.protocol = protocol;
  ReplicaGroup::Callbacks callbacks;
  callbacks.on_won_mastership = [this](uint64_t committed_floor) {
    // The member list starts empty: surviving followers join as their own
    // lease watches fire and their claims lose to ours.
    primary_ = sim::Endpoint{};
    // The grant names the acked-write floor: execute the held suffix up to
    // exactly there, discard anything above it (those writes were refused at
    // their primary and must not resurrect through an election). Only quorum
    // mode holds updates above the floor; a lease-only follower's leftovers
    // are writes that failed to execute, and are dropped, not retried.
    if (group_.quorum_enabled()) {
      ApplyCommitted(committed_floor);
    }
    DiscardUncommitted();
  };
  callbacks.on_adopted_master = [this](sim::Endpoint new_primary, uint64_t) {
    primary_ = new_primary;
    // Join the winner and refresh our snapshot (this also discards anything a
    // deposed primary diverged on — those writes were never acknowledged). On
    // failure the lease watch retries via the next claim.
    RegisterWithPrimary([](Status) {});
  };
  callbacks.version = [this] { return version_; };
  callbacks.durable_version = [this] { return DurableVersion(); };
  group_.EnableFailover(std::move(failover), std::move(callbacks));

  comm_.Register(kDsoLease,
                 [this](const sim::RpcContext& ctx,
                        const LeaseMessage& lease) -> Result<PushAck> {
                   if (write_guard_) {
                     RETURN_IF_ERROR(write_guard_(ctx));
                   }
                   PushAck ack = group_.FenceIncoming(lease.epoch);
                   if (ack.accepted != 0 && !group_.is_master()) {
                     // A newer primary may have introduced itself before our
                     // watch fired (we are in its member list, or we would not
                     // get leases).
                     primary_ = lease.master;
                     // The lease piggybacks the commit floor: settle what it
                     // has reached, so follower staleness under quorum mode is
                     // bounded by one lease interval.
                     group_.RecordCommit(lease.committed);
                     ApplyCommitted(lease.committed);
                   }
                   ack.durable_version = DurableVersion();
                   return ack;
                 });
}

void PrimaryBackupReplica::Start(std::function<void(Status)> done) {
  if (group_.is_master()) {
    group_.StartMaster(std::move(done));
    return;
  }
  RegisterWithPrimary([this, done = std::move(done)](Status s) {
    // The lease watch starts even when the registration failed (e.g. a replica
    // restored from a checkpoint whose primary moved): the watch times out,
    // claims, and either wins mastership or adopts the GLS record's primary
    // and re-registers there — the self-healing loop.
    group_.StartFollower();
    done(s);
  });
}

void PrimaryBackupReplica::Shutdown(std::function<void(Status)> done) {
  group_.Stop();
  done(OkStatus());
}

void PrimaryBackupReplica::RegisterWithPrimary(std::function<void(Status)> done) {
  // Registration is find-before-insert at the primary, so retrying it is safe.
  comm_.Call(RegisterMethod(), primary_, EndpointMessage{comm_.endpoint()},
             [this, done = std::move(done)](Result<VersionedState> result) {
               if (!result.ok()) {
                 done(result.status());
                 return;
               }
               Status s = semantics_->SetState(result->state);
               if (s.ok()) {
                 version_ = result->version;
                 // The snapshot supersedes anything held from a previous
                 // membership — including an update that was refused.
                 DiscardUncommitted();
                 group_.RecordCommit(result->committed);
                 if (result->epoch > group_.epoch()) {
                   group_.set_epoch(result->epoch);
                 }
                 group_.RecordLease();
               }
               done(s);
             },
             WriteCallOptions());
}

Result<VersionedState> PrimaryBackupReplica::AdmitMember(
    const EndpointMessage& request) {
  if (!group_.is_master()) {
    return FailedPrecondition("not " + std::string(Words().primary));
  }
  group_.AddMember(request.endpoint);
  if (write_in_flight_) {
    // Mid-quorum-round: hand out the rollback point, never state that may yet
    // be rolled back and refused.
    return VersionedState{pre_write_version_, group_.epoch(), pre_write_version_,
                          pre_write_state_};
  }
  return VersionedState{version_, group_.epoch(), version_, semantics_->GetState()};
}

sim::Endpoint PrimaryBackupReplica::MasterEndpoint() const {
  return group_.is_master() ? comm_.endpoint() : primary_;
}

void PrimaryBackupReplica::Write(const Invocation& invocation, sim::NodeId client,
                                 InvokeCallback done) {
  if (group_.is_master()) {
    WriteAtPrimary(invocation, client, std::move(done));
    return;
  }
  // Writes go to the primary; our copy is refreshed by its update.
  Forward(invocation, std::move(done));
}

void PrimaryBackupReplica::Forward(const Invocation& invocation,
                                   InvokeCallback done) {
  comm_.Call(ForwardMethod(), primary_, invocation, std::move(done),
             WriteCallOptions());
}

void PrimaryBackupReplica::WriteAtPrimary(const Invocation& invocation,
                                          sim::NodeId client, InvokeCallback done) {
  if (group_.quorum_enabled()) {
    write_queue_.push_back(QueuedWrite{invocation, client, std::move(done)});
    PumpWrites();
    return;
  }
  ExecuteWrite(invocation, client, std::move(done));
}

void PrimaryBackupReplica::ExecuteWrite(const Invocation& invocation,
                                        sim::NodeId client, InvokeCallback done) {
  Result<Bytes> result = semantics_->Invoke(invocation);
  if (!result.ok()) {
    done(std::move(result));
    return;
  }
  ++version_;
  RecordWrite(invocation, client);

  // Eager fan-out: one epoch-stamped update per member, respond when all have
  // answered (a dead member must not wedge the primary; with fail-over on it
  // is dropped from the set and rejoins through its own lease watch). A member
  // refusing under a newer epoch means WE were deposed, so the write must not
  // be acknowledged. Lease-only updates are committed as sent.
  auto pending = std::make_shared<PendingAck>(
      PendingAck{std::move(done), std::move(result)});
  bool strict = group_.failover_enabled();
  FanOutUpdate(
      invocation, /*committed=*/version_, /*commit_point=*/0,
      [this, pending, strict](const FanOutResult& fan) {
        const Vocabulary& words = Words();
        if (fan.fenced) {
          pending->done(FailedPrecondition(
              "no longer " + std::string(words.deposed) + ": deposed by epoch " +
              std::to_string(fan.fence_epoch)));
          return;
        }
        if (strict && fan.failures > 0) {
          // With fail-over on, an evicted member may later be elected:
          // acknowledging a write it never received would break the acked-write
          // floor. Refuse the ack (definitive, so the dedup table replays it — a
          // retry must not re-execute). The outcome is INDETERMINATE, not rolled
          // back: the write stays applied locally and becomes visible if this
          // primary survives — the floor only promises that *acked* writes are
          // never lost, never that refused ones vanish.
          pending->done(FailedPrecondition(
              "write " + std::string(words.executed) +
              " but not fully replicated: " + std::to_string(fan.failures) +
              " of " + std::to_string(fan.peers) + " " +
              std::string(words.updates) + " unconfirmed"));
          return;
        }
        pending->done(std::move(pending->result));
      });
}

void PrimaryBackupReplica::PumpWrites() {
  if (write_in_flight_ || write_queue_.empty()) {
    return;
  }
  if (!group_.is_master()) {
    // Demoted while writes were queued: forward them to the winner (deduped
    // there, so a client retry cannot double-execute).
    while (!write_queue_.empty()) {
      QueuedWrite w = std::move(write_queue_.front());
      write_queue_.pop_front();
      Forward(w.invocation, std::move(w.done));
    }
    return;
  }
  if (!group_.QuorumPossible()) {
    // The reachable group cannot assemble a majority (e.g. this primary is
    // partitioned from everyone): refuse without executing. Definitive — the
    // dedup table replays the refusal, and nothing was applied anywhere.
    QueuedWrite w = std::move(write_queue_.front());
    write_queue_.pop_front();
    group_.CountQuorumRefusal();
    w.done(FailedPrecondition(
        "write refused: quorum unreachable (" +
        std::to_string(1 + group_.num_members()) + " of " +
        std::to_string(group_.group_strength()) + " replicas reachable, need " +
        std::to_string(group_.quorum_size()) + "); nothing was applied"));
    PumpWrites();
    return;
  }

  write_in_flight_ = true;
  QueuedWrite w = std::move(write_queue_.front());
  write_queue_.pop_front();
  pre_write_state_ = semantics_->GetState();
  pre_write_version_ = version_;
  Result<Bytes> result = semantics_->Invoke(w.invocation);
  if (!result.ok()) {
    write_in_flight_ = false;
    w.done(std::move(result));
    PumpWrites();
    return;
  }
  ++version_;
  RecordWrite(w.invocation, w.client);

  uint64_t commit_point = version_;
  // The update stamps the CURRENT floor, not the new write: members hold this
  // write and execute it only once the floor catches up — which happens after
  // the floor publication below succeeds, via the next update or lease.
  auto pending = std::make_shared<PendingAck>(
      PendingAck{std::move(w.done), std::move(result)});
  FanOutUpdate(
      w.invocation, group_.committed_version(), commit_point,
      [this, pending, commit_point](const FanOutResult& fan) {
        if (fan.fenced) {
          RefuseQuorumWrite(pending.get(),
                            "no longer " + std::string(Words().deposed) +
                                ": deposed by epoch " +
                                std::to_string(fan.fence_epoch) +
                                "; write rolled back");
          return;
        }
        // This primary's own durable copy plus every member whose durable
        // version reached the write.
        size_t votes = 1 + fan.acks;
        if (votes < group_.quorum_size()) {
          RefuseQuorumWrite(pending.get(),
                            "write under-replicated (" + std::to_string(votes) +
                                " of " + std::to_string(group_.group_strength()) +
                                " replicas hold it, need " +
                                std::to_string(group_.quorum_size()) +
                                "); rolled back");
          return;
        }
        // A quorum durably holds the write: publish the exact floor to the
        // arbiter, and only then ack. If publication fails the write is rolled
        // back and refused even though members hold it — held updates above
        // the floor never execute and are overwritten by the slot reuse.
        group_.PublishCommitFloor(commit_point, [this, pending](Status s) {
          if (!s.ok()) {
            RefuseQuorumWrite(pending.get(),
                              "write held by a quorum but the commit floor could "
                              "not be published; rolled back: " +
                                  s.message());
            return;
          }
          group_.CountQuorumCommit();
          write_in_flight_ = false;
          pending->done(std::move(pending->result));
          PumpWrites();
        });
      });
}

void PrimaryBackupReplica::RefuseQuorumWrite(PendingAck* pending, std::string why) {
  RollbackWrite();
  group_.CountQuorumRefusal();
  write_in_flight_ = false;
  pending->done(FailedPrecondition(std::move(why)));
  PumpWrites();
}

void PrimaryBackupReplica::RollbackWrite() {
  if (Status s = semantics_->SetState(pre_write_state_); !s.ok()) {
    GLOG_ERROR << "quorum rollback failed to restore state: " << s;
  }
  version_ = pre_write_version_;
}

}  // namespace globe::dso
