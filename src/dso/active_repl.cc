#include "src/dso/active_repl.h"

#include <limits>

#include "src/util/log.h"

namespace globe::dso {

namespace {

struct ApplyMessage {
  uint64_t version = 0;
  uint64_t epoch = 0;
  // Commit floor at send time (see VersionedState::committed): members execute
  // buffered writes only up to the floor; this write itself executes when a
  // later message's floor reaches it.
  uint64_t committed = 0;
  Invocation invocation;

  Bytes Serialize() const {
    ByteWriter w;
    w.WriteU64(version);
    w.WriteU64(epoch);
    w.WriteU64(committed);
    w.WriteLengthPrefixed(invocation.Serialize());
    return w.Take();
  }
  static Result<ApplyMessage> Deserialize(ByteSpan data) {
    ByteReader r(data);
    ApplyMessage msg;
    ASSIGN_OR_RETURN(msg.version, r.ReadU64());
    ASSIGN_OR_RETURN(msg.epoch, r.ReadU64());
    ASSIGN_OR_RETURN(msg.committed, r.ReadU64());
    // Decode the nested invocation straight out of the outer frame; only the
    // Invocation's own fields copy (it owns them past the parse).
    ASSIGN_OR_RETURN(ByteSpan inv, r.ReadLengthPrefixedView());
    ASSIGN_OR_RETURN(msg.invocation, Invocation::Deserialize(inv));
    return msg;
  }
};

const sim::TypedMethod<EndpointMessage, VersionedState> kArRegister{"ar.register"};
// Ordering a write executes it at the sequencer and claims a version slot, so a
// duplicate delivery must be answered from the dedup table, never re-ordered.
// ar.apply needs no dedup: ApplyOrdered drops already-applied versions itself,
// and the epoch fence refuses applies from a deposed sequencer.
const sim::TypedMethod<Invocation, Bytes> kArOrder{"ar.order", sim::kNonIdempotent};
const sim::TypedMethod<ApplyMessage, PushAck> kArApply{"ar.apply"};

}  // namespace

ActiveReplMember::ActiveReplMember(sim::Transport* transport, sim::NodeId host,
                                   std::unique_ptr<SemanticsObject> semantics,
                                   sim::Endpoint sequencer, WriteGuard write_guard,
                                   FailoverConfig failover)
    : PrimaryBackupReplica(transport, host, std::move(semantics),
                           std::move(write_guard), kProtoActiveRepl,
                           sequencer.node == sim::kNoNode ? GroupRole::kMaster
                                                          : GroupRole::kSlave,
                           sequencer, std::move(failover)) {
  // Sequencer-only methods: harmless to register everywhere, they just fail
  // politely on non-sequencers.
  comm_.Register(kArRegister,
                 [this](const sim::RpcContext&,
                        const EndpointMessage& request) -> Result<VersionedState> {
                   return AdmitMember(request);
                 });
  comm_.RegisterAsync(kArOrder, [this](const sim::RpcContext& ctx,
                                       Invocation invocation,
                                       std::function<void(Result<Bytes>)> respond) {
    if (RefusedAsRetired(respond)) {
      return;
    }
    if (!is_sequencer()) {
      respond(FailedPrecondition("not the sequencer"));
      return;
    }
    if (write_guard_) {
      if (Status s = write_guard_(ctx); !s.ok()) {
        respond(s);
        return;
      }
    }
    WriteAtPrimary(invocation, ctx.client.node, std::move(respond));
  });
  comm_.Register(kArApply,
                 [this](const sim::RpcContext& ctx,
                        const ApplyMessage& msg) -> Result<PushAck> {
                   return AcceptUpdate(ctx, msg.epoch, msg.committed, [&] {
                     return ApplyOrdered(msg.version, msg.invocation);
                   });
                 });
}

const sim::TypedMethod<EndpointMessage, VersionedState>&
ActiveReplMember::RegisterMethod() const {
  return kArRegister;
}

const sim::TypedMethod<Invocation, Bytes>& ActiveReplMember::ForwardMethod() const {
  return kArOrder;
}

const PrimaryBackupReplica::Vocabulary& ActiveReplMember::Words() const {
  static constexpr Vocabulary kWords{"the sequencer", "the sequencer", "ordered",
                                     "apply(s)"};
  return kWords;
}

void ActiveReplMember::FanOutUpdate(const Invocation& invocation, uint64_t committed,
                                    uint64_t commit_point,
                                    std::function<void(const FanOutResult&)> done) {
  // Retries on loss (ApplyOrdered is version-guarded, so duplicates are
  // no-ops); unreachable members are dropped and re-register for a snapshot.
  ApplyMessage broadcast{version_, group_.epoch(), committed, invocation};
  group_.FanOut(kArApply, broadcast, kUpdateDeadline, /*drop_unreachable=*/true,
                commit_point, std::move(done));
}

void ActiveReplMember::ApplyCommitted(uint64_t) {
  DrainPending();
  MaybeResync();
}

Status ActiveReplMember::ApplyOrdered(uint64_t write_version,
                                      const Invocation& invocation) {
  if (write_version <= version_) {
    return OkStatus();  // duplicate
  }
  // Overwrite is unconditional: after a rollback at the sequencer the version
  // slot is reused, and the superseding invocation must replace the refused
  // one a previous broadcast left buffered here.
  pending_[write_version] = invocation;
  Status s = DrainPending();
  MaybeResync();
  return s;
}

Status ActiveReplMember::DrainPending() {
  // Quorum mode executes only up to the commit floor; without quorum writes
  // execute as soon as they are consecutive (the floor is not a gate).
  uint64_t limit = group_.quorum_enabled()
                       ? group_.committed_version()
                       : std::numeric_limits<uint64_t>::max();
  while (version_ < limit) {
    auto it = pending_.find(version_ + 1);
    if (it == pending_.end()) {
      break;
    }
    Result<Bytes> result = semantics_->Invoke(it->second);
    if (!result.ok()) {
      GLOG_ERROR << "active replica diverged applying v" << it->first << ": "
                 << result.status();
      return result.status();
    }
    ++version_;
    pending_.erase(it);
  }
  return OkStatus();
}

void ActiveReplMember::MaybeResync() {
  if (!group_.quorum_enabled() || resync_in_flight_ || is_sequencer() ||
      primary().node == sim::kNoNode) {
    return;
  }
  if (group_.committed_version() <= DurableVersion()) {
    return;
  }
  // The commit floor moved past a write we never received (we were unreachable
  // for one broadcast): no later broadcast can fill the hole, only a snapshot.
  resync_in_flight_ = true;
  RegisterWithPrimary([this](Status) { resync_in_flight_ = false; });
}

}  // namespace globe::dso
