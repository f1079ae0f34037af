#include "src/dso/cache_inval.h"

#include <memory>

namespace globe::dso {

namespace {

const sim::TypedMethod<EndpointMessage, VersionMessage> kCiRegister{"ci.register"};
const sim::TypedMethod<EndpointMessage, sim::EmptyMessage> kCiUnregister{
    "ci.unregister"};
const sim::TypedMethod<sim::EmptyMessage, VersionedState> kCiFetch{"ci.fetch"};
const sim::TypedMethod<VersionMessage, PushAck> kCiInvalidate{"ci.invalidate"};

}  // namespace

CacheInvalMaster::CacheInvalMaster(sim::Transport* transport, sim::NodeId host,
                                   std::unique_ptr<SemanticsObject> semantics,
                                   WriteGuard write_guard)
    : ServingReplica(transport, host, std::move(semantics), std::move(write_guard),
                     kProtoCacheInval, GroupRole::kMaster) {
  comm_.Register(kCiRegister,
                 [this](const sim::RpcContext&,
                        const EndpointMessage& request) -> Result<VersionMessage> {
                   group_.AddMember(request.endpoint);
                   return VersionMessage{version_, group_.epoch()};
                 });
  comm_.Register(kCiUnregister,
                 [this](const sim::RpcContext&,
                        const EndpointMessage& request) -> Result<sim::EmptyMessage> {
                   group_.RemoveMember(request.endpoint);
                   return sim::EmptyMessage{};
                 });
  comm_.Register(kCiFetch,
                 [this](const sim::RpcContext&,
                        const sim::EmptyMessage&) -> Result<VersionedState> {
                   ++fetches_served_;
                   return VersionedState{version_, group_.epoch(), version_,
                                         semantics_->GetState()};
                 });
}

void CacheInvalMaster::Write(const Invocation& invocation, sim::NodeId client,
                             InvokeCallback done) {
  Result<Bytes> result = semantics_->Invoke(invocation);
  if (!result.ok()) {
    done(std::move(result));
    return;
  }
  ++version_;
  RecordWrite(invocation, client);

  // Invalidations through the group fan-out, retrying on loss: the cache
  // compares versions, so a duplicate invalidation is harmless, and a lost one
  // would leave a cache serving stale reads for ever — exactly the message this
  // protocol cannot afford to drop. Unreachable caches are kept in the set: a
  // cache that returns must still receive the next invalidation, or it would
  // serve its pre-outage copy indefinitely.
  VersionMessage invalidation{version_, group_.epoch()};
  auto shared_done = std::make_shared<InvokeCallback>(std::move(done));
  auto shared_result = std::make_shared<Result<Bytes>>(std::move(result));
  group_.FanOut(kCiInvalidate, invalidation, 5 * sim::kSecond,
                /*drop_unreachable=*/false, /*commit_point=*/0,
                [shared_done, shared_result](const FanOutResult&) {
                  (*shared_done)(std::move(*shared_result));
                });
}

CacheInvalCache::CacheInvalCache(sim::Transport* transport, sim::NodeId host,
                                 std::unique_ptr<SemanticsObject> semantics,
                                 sim::Endpoint master, WriteGuard write_guard)
    : ServingReplica(transport, host, std::move(semantics), std::move(write_guard),
                     kProtoCacheInval, GroupRole::kCache),
      master_(master) {
  comm_.Register(kCiInvalidate,
                 [this](const sim::RpcContext& ctx,
                        const VersionMessage& msg) -> Result<PushAck> {
                   if (write_guard_) {
                     RETURN_IF_ERROR(write_guard_(ctx));
                   }
                   PushAck ack = group_.FenceIncoming(msg.epoch);
                   if (ack.accepted == 0) {
                     return ack;  // stale-epoch master: keep our copy
                   }
                   if (msg.version > version_) {
                     valid_ = false;
                   }
                   return ack;
                 });
}

void CacheInvalCache::Start(std::function<void(Status)> done) {
  // Registration is find-before-insert on the master: safe to retry.
  comm_.Call(kCiRegister, master_, EndpointMessage{comm_.endpoint()},
             [this, done = std::move(done)](Result<VersionMessage> result) {
               if (result.ok() && result->epoch > group_.epoch()) {
                 group_.set_epoch(result->epoch);
               }
               done(result.ok() ? OkStatus() : result.status());
             },
             WriteCallOptions());
}

void CacheInvalCache::Shutdown(std::function<void(Status)> done) {
  group_.Stop();
  comm_.Call(kCiUnregister, master_, EndpointMessage{comm_.endpoint()},
             [done = std::move(done)](Result<sim::EmptyMessage> result) {
               done(result.ok() ? OkStatus() : result.status());
             },
             WriteCallOptions());
}

void CacheInvalCache::WithValidState(std::function<void(Status)> fn) {
  if (valid_) {
    fn(OkStatus());
    return;
  }
  ++fetches_;
  comm_.Call(kCiFetch, master_, sim::EmptyMessage{},
             [this, fn = std::move(fn)](Result<VersionedState> result) {
               if (!result.ok()) {
                 fn(result.status());
                 return;
               }
               Status s = semantics_->SetState(result->state);
               if (s.ok()) {
                 version_ = result->version;
                 if (result->epoch > group_.epoch()) {
                   group_.set_epoch(result->epoch);
                 }
                 valid_ = true;
               }
               fn(s);
             });
}

void CacheInvalCache::Read(const Invocation& invocation, sim::NodeId client,
                           InvokeCallback done) {
  WithValidState([this, invocation, client, done = std::move(done)](Status s) mutable {
    if (!s.ok()) {
      done(s);
      return;
    }
    ServingReplica::Read(invocation, client, std::move(done));
  });
}

void CacheInvalCache::Write(const Invocation& invocation, sim::NodeId,
                            InvokeCallback done) {
  comm_.Call(kDsoInvoke, master_, invocation, std::move(done), WriteCallOptions());
}

}  // namespace globe::dso
