#include "src/dso/master_slave.h"

#include <memory>

#include "src/util/log.h"

namespace globe::dso {

namespace {

const sim::TypedMethod<EndpointMessage, VersionedState> kMsRegisterSlave{
    "ms.register_slave"};
const sim::TypedMethod<EndpointMessage, sim::EmptyMessage> kMsUnregisterSlave{
    "ms.unregister_slave"};
// Pushes are version-guarded (duplicates are no-ops) and epoch-fenced (a stale
// master's push is refused, never applied), so no server-side dedup is needed.
const sim::TypedMethod<VersionedState, PushAck> kMsStatePush{"ms.state_push"};

}  // namespace

MasterSlaveReplica::MasterSlaveReplica(sim::Transport* transport, sim::NodeId host,
                                       std::unique_ptr<SemanticsObject> semantics,
                                       GroupRole role, sim::Endpoint master,
                                       WriteGuard write_guard,
                                       FailoverConfig failover)
    : PrimaryBackupReplica(transport, host, std::move(semantics),
                           std::move(write_guard), kProtoMasterSlave, role, master,
                           std::move(failover)) {
  comm_.Register(kMsRegisterSlave,
                 [this](const sim::RpcContext&,
                        const EndpointMessage& request) -> Result<VersionedState> {
                   return AdmitMember(request);
                 });
  comm_.Register(kMsUnregisterSlave,
                 [this](const sim::RpcContext&,
                        const EndpointMessage& request) -> Result<sim::EmptyMessage> {
                   group_.RemoveMember(request.endpoint);
                   return sim::EmptyMessage{};
                 });
  comm_.Register(
      kMsStatePush,
      [this](const sim::RpcContext& ctx,
             const VersionedState& push) -> Result<PushAck> {
        return AcceptUpdate(ctx, push.epoch, push.committed, [&]() -> Status {
          // The push carries the commit floor: settle anything it has reached.
          ApplyCommitted(push.committed);
          if (push.version <= push.committed) {
            // Committed (non-quorum masters stamp committed == version): apply
            // directly, exactly the original eager-push behaviour.
            if (push.version > version_) {  // else: stale or duplicate push
              RETURN_IF_ERROR(semantics_->SetState(push.state));
              version_ = push.version;
            }
          } else if (push.version > version_) {
            // Above the floor: hold it durably without executing — it commits
            // when a later push or lease raises the floor past it. Overwrite is
            // unconditional: a re-pushed version slot (after a rollback at the
            // master) carries the write that superseded the rolled-back one.
            staged_ = Staged{push.version, push.epoch, push.state};
          }
          return OkStatus();
        });
      });
}

void MasterSlaveReplica::Shutdown(std::function<void(Status)> done) {
  group_.Stop();
  if (group_.is_master()) {
    done(OkStatus());
    return;
  }
  comm_.Call(kMsUnregisterSlave, primary(), EndpointMessage{comm_.endpoint()},
             [done = std::move(done)](Result<sim::EmptyMessage> result) {
               done(result.ok() ? OkStatus() : result.status());
             },
             WriteCallOptions());
}

const sim::TypedMethod<EndpointMessage, VersionedState>&
MasterSlaveReplica::RegisterMethod() const {
  return kMsRegisterSlave;
}

const PrimaryBackupReplica::Vocabulary& MasterSlaveReplica::Words() const {
  static constexpr Vocabulary kWords{"the master", "master", "executed", "push(es)"};
  return kWords;
}

void MasterSlaveReplica::FanOutUpdate(const Invocation&, uint64_t committed,
                                      uint64_t commit_point,
                                      std::function<void(const FanOutResult&)> done) {
  VersionedState push{version_, group_.epoch(), committed, semantics_->GetState()};
  group_.FanOut(kMsStatePush, push, kUpdateDeadline, /*drop_unreachable=*/true,
                commit_point, std::move(done));
}

void MasterSlaveReplica::ApplyCommitted(uint64_t floor) {
  if (staged_.version == 0 || staged_.version > floor) {
    return;
  }
  if (staged_.version > version_) {
    // A committed version's payload is unique (the floor only ever rises past
    // writes a quorum acked), so executing a staged entry from an older epoch
    // is safe: any superseding write of the same slot would have overwritten
    // it through the push path before the floor reached this version.
    if (Status s = semantics_->SetState(staged_.state); s.ok()) {
      version_ = staged_.version;
    } else {
      GLOG_ERROR << "failed to apply staged write " << staged_.version << ": "
                 << s;
      return;  // keep the staged entry; a later floor carrier retries
    }
  }
  staged_ = Staged{};
}

}  // namespace globe::dso
