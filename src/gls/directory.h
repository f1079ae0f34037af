// The Globe Location Service directory tree (paper §3.5, Figure 2).
//
// Each domain in the Internet hierarchy has a directory node that tracks the
// distributed shared objects with representatives in its domain: either actual
// contact addresses (normally at leaf nodes) or forwarding pointers to child
// directory nodes. Lookups climb from the client's leaf domain until they hit a
// contact address or a forwarding pointer, then descend the pointer chain — so the
// cost of a lookup is proportional to the distance to the nearest replica.
//
// High-level nodes would otherwise become bottlenecks; a directory node is therefore
// partitioned into subnodes, each responsible for a slice of the object-identifier
// space via hashing and each runnable on its own machine
// [Ballintijn and van Steen 1999a]. DirectoryRef is the client-visible handle: the
// subnode set plus the hash routing rule.
//
// Three hot-path optimisations sit on top of the plain tree walk:
//   - a per-subnode TTL'd lookup cache (src/gls/cache.h): nodes that forward a
//     lookup *down* (or sideways to the OID's home sibling) remember the returned
//     contact addresses, so repeat lookups for hot OIDs stop at the apex instead of
//     re-walking the descent,
//   - batched registration: gls.insert / gls.delete register or deregister many
//     (OID, address) pairs in one round trip, and the forwarding-pointer chain is
//     installed with one gls.install_ptr message per parent subnode per level,
//   - load-aware routing: lookups may route with power-of-two choices
//     (RouteMode::kPowerOfTwoChoices) using the issuing Channel's PeerLoad signal,
//     so a hot OID's requests split between its home subnode and one deterministic
//     alternate instead of pinning the home. A subnode that receives a lookup it is
//     not the hash home for answers from its cache or hands the lookup sideways to
//     the home sibling; mutations always route strictly by hash.
//
// RPC methods, eleven in all (port sim::kPortGls on each subnode's host):
//   gls.lookup            : LookupWireRequest -> LookupResponse
//   gls.lookup_all        : LookupWireRequest -> LookupResponse (every registered
//                           address: climbs to the root home, descends all pointers)
//   gls.insert            : (oid, address) pairs -> empty   (stores + installs pointers)
//   gls.delete            : (oid, address) pairs -> empty   (removes + prunes pointers)
//   gls.install_ptr       : child domain, oids -> empty     (internal, child -> parent)
//   gls.remove_ptr        : oid, child domain -> empty      (internal, child -> parent)
//   gls.inval_cache       : oid, child domain -> empty      (internal: delete-driven
//                           cache invalidation chained towards the root, fanned out
//                           to every subnode of each ancestor node)
//   gls.alloc_oid         : empty -> oid                    (OID allocation, §6.1)
//   gls.claim_master      : oid, claimant, known epoch -> granted?, epoch, master
//                           (master fail-over: epoch-fenced conditional ownership
//                           update, arbitrated at the OID's root home subnode)
//   gls.renew_lease       : oid, master, epoch -> granted?, epoch, master
//                           (the incumbent master extends its ownership lease; a
//                           rejection names the newer master to adopt)
//   gls.scrub_address     : oid, contact address -> empty   (internal: deposed-master
//                           cleanup, descending the registration subtree)
//
// The mutations are batch-shaped: GlsClient::Insert and Delete send a batch of
// one, so every registration takes the same handler, authorization check and
// pointer chain as InsertBatch/DeleteBatch.

#ifndef SRC_GLS_DIRECTORY_H_
#define SRC_GLS_DIRECTORY_H_

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/gls/cache.h"
#include "src/gls/oid.h"
#include "src/gls/subnode_store.h"
#include "src/sec/principal.h"
#include "src/sim/rpc.h"
#include "src/sim/topology.h"

namespace globe::gls {

// How a lookup picks among a directory node's subnodes. Mutations always use the
// OID's hash home regardless of mode — partitioned state must stay partitioned.
enum class RouteMode : uint8_t {
  kHashOnly = 0,          // the OID's hash home, always
  kPowerOfTwoChoices = 1  // home vs. one deterministic alternate, whichever the
                          // issuing Channel observes as less loaded
};

// Handle to a (possibly partitioned) directory node: route by OID hash.
struct DirectoryRef {
  std::vector<sim::Endpoint> subnodes;

  bool empty() const { return subnodes.empty(); }

  // Routing an empty ref is a caller bug; the fallible TryRoute below is for
  // client-facing paths that cannot statically guarantee a non-empty ref.
  sim::Endpoint Route(const ObjectId& oid) const {
    assert(!subnodes.empty() && "DirectoryRef::Route on an empty ref");
    return subnodes[SubnodeIndex(oid)];
  }

  Result<sim::Endpoint> TryRoute(const ObjectId& oid) const {
    if (subnodes.empty()) {
      return FailedPrecondition("DirectoryRef has no subnodes to route to");
    }
    return subnodes[SubnodeIndex(oid)];
  }

  // Load-aware routing for lookups: under kPowerOfTwoChoices, picks between the
  // OID's home subnode and its deterministic alternate, whichever `channel` has
  // observed as less loaded (outstanding depth, then EWMA latency). Falls back to
  // the home subnode on ties, in kHashOnly mode, and on unpartitioned nodes.
  Result<sim::Endpoint> TryRoute(const ObjectId& oid, const sim::Channel& channel,
                                 RouteMode mode) const;

  // The subnode slot an OID hashes to (valid only for a non-empty ref).
  size_t SubnodeIndex(const ObjectId& oid) const {
    assert(!subnodes.empty() && "DirectoryRef::SubnodeIndex on an empty ref");
    return oid.Hash() % subnodes.size();
  }

  // The second-choice slot for power-of-two routing: a deterministic function of
  // the OID so a hot OID's load splits across exactly two subnodes.
  size_t AlternateIndex(const ObjectId& oid) const;
};

// gls.lookup wire format; defined in directory.cc (subnodes forward it, GlsClient
// issues the initial request).
struct LookupWireRequest;

// gls.claim_master / gls.renew_lease wire formats; defined in directory.cc.
struct ClaimWireRequest;
struct ClaimWireResponse;

struct LookupResponse {
  std::vector<ContactAddress> addresses;
  uint32_t hops = 0;        // directory-to-directory messages traversed
  int32_t found_depth = 0;  // tree depth of the node holding the addresses
  int32_t apex_depth = 0;   // highest (smallest-depth) node the lookup visited
  uint8_t from_cache = 0;   // 1 when a subnode's lookup cache produced the answer

  Bytes Serialize() const;
  static Result<LookupResponse> Deserialize(ByteSpan data);
};

struct GlsOptions {
  // Paper §6.1 requirement 2: "The Globe Location Service should accept only object
  // registrations (and deregistrations) from Globe Object Servers which are
  // officially part of the GDN." When true, mutating methods require an
  // authenticated peer whose registry role is kGdnHost or kAdministrator.
  bool enforce_authorization = false;

  // Per-subnode lookup cache (src/gls/cache.h). Populated on lookup descent (and on
  // sideways forwards under power-of-two routing), consulted only for lookups that
  // set allow_cached, never for mutations, and invalidated whenever a mutation
  // touches the OID at this node. When enabled, deletes additionally chain a
  // gls.inval_cache towards the root — fanned out to every subnode of each ancestor
  // node — so no subnode anywhere serves a deregistered address from cache.
  bool enable_cache = false;
  sim::SimTime cache_ttl = 30 * sim::kSecond;
  size_t cache_max_entries = 4096;
  // TTL of negative (NotFound) cache entries: repeat misses for deleted or
  // unknown OIDs are answered from the first cache on the climb path instead of
  // re-walking to the root. Kept short because a registration whose mutation
  // chain never touches this subnode only becomes visible here on expiry.
  sim::SimTime cache_negative_ttl = LookupCache::kDefaultNegativeTtl;

  // Routing mode this subnode uses for the lookups it forwards (climbs, descents).
  RouteMode lookup_route_mode = RouteMode::kHashOnly;

  // Per-request processing cost of this subnode (0 = instantaneous). With a
  // non-zero value requests queue FIFO on the subnode's virtual CPU pool, which
  // is what makes load imbalance visible as tail latency (see
  // bench_gls_partitioning's skew table).
  sim::SimTime service_time = 0;
  // Virtual CPUs serving that queue (RpcServer::set_worker_pool_width): >1
  // models a multi-core subnode machine.
  int service_workers = 1;

  // Memory bound: how many directory entries (OIDs) this subnode keeps
  // resident. The cold tail spills to the subnode's cold store (the simulation
  // stand-in for §7 on-disk state) and faults back in on access; nothing is
  // lost. 0 = unbounded, the historical behaviour.
  size_t store_capacity = 0;
};

struct SubnodeStats {
  uint64_t lookups = 0;
  uint64_t found_local = 0;
  uint64_t forwards_up = 0;
  uint64_t forwards_down = 0;
  uint64_t forwards_sideways = 0;  // lookups handed to the OID's home sibling
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t pointer_installs = 0;
  uint64_t pointer_removes = 0;
  uint64_t denied = 0;
  uint64_t cache_hits = 0;           // lookups answered from the lookup cache
  uint64_t cache_misses = 0;         // allow_cached lookups that had to walk pointers
  uint64_t cache_invalidations = 0;  // cache entries dropped by mutations
  uint64_t batch_inserts = 0;        // gls.insert requests served (any batch size)
  uint64_t batch_deletes = 0;        // gls.delete requests served (any batch size)
  uint64_t negative_cache_hits = 0;  // lookups answered NotFound from the cache
  uint64_t lookup_alls = 0;          // gls.lookup_all enumerations served here
  uint64_t master_claims = 0;          // gls.claim_master arbitrated here (root)
  uint64_t master_claims_granted = 0;  // claims that won the next epoch
  uint64_t lease_renewals = 0;         // gls.renew_lease arbitrated here (root)
  uint64_t stale_scrubs = 0;    // deposed-master scrub chains started here (root)
  uint64_t insert_invals = 0;   // install-driven inval fan-outs started here
  // Memory-bounded store accounting (refreshed from the SubnodeStore on read).
  uint64_t store_evictions = 0;      // entries spilled to the cold store
  uint64_t store_fault_ins = 0;      // spilled entries faulted back in
  uint64_t store_spilled_bytes = 0;  // serialized bytes written to cold storage
  uint64_t store_peak_resident = 0;  // high-water mark of resident entries
};

class DirectorySubnode {
 public:
  DirectorySubnode(sim::Transport* transport, sim::NodeId host, sim::DomainId domain,
                   int depth, GlsOptions options, const sec::KeyRegistry* registry,
                   uint64_t rng_seed);

  void SetParent(DirectoryRef parent) { parent_ = std::move(parent); }
  void AddChild(sim::DomainId child_domain, DirectoryRef ref) {
    children_[child_domain] = std::move(ref);
  }
  // The full subnode set of this subnode's own directory node (including itself);
  // needed to recognise lookups routed here by power-of-two choices and hand them
  // to the OID's home sibling. Optional: without it every OID is treated as local.
  void SetSelf(DirectoryRef self);

  sim::Endpoint endpoint() const { return server_.endpoint(); }
  sim::NodeId host() const { return server_.node(); }
  sim::DomainId domain() const { return domain_; }
  int depth() const { return depth_; }
  // Refreshes the store_* fields from the SubnodeStore, then returns the stats.
  const SubnodeStats& stats() const;

  // Directly visible state, for tests and the persistence machinery. The
  // probes never disturb the LRU or fault anything in.
  size_t NumAddresses(const ObjectId& oid) const;
  size_t NumPointers(const ObjectId& oid) const;
  size_t TotalEntries() const;
  // Entries currently resident in memory / spilled to the cold store.
  size_t StoreResidentEntries() const { return store_.ResidentSize(); }
  size_t StoreColdEntries() const { return store_.Size() - store_.ResidentSize(); }
  size_t CacheSize() const { return cache_.size(); }
  size_t DedupEntries() const { return server_.dedup_entries(); }
  // The master-ownership epoch this subnode arbitrates for `oid` (0 = no record
  // — only the OID's root home subnode ever holds one).
  uint64_t OwnerEpoch(const ObjectId& oid) const;
  // The acked-write floor recorded with that ownership (0 = no record). Under
  // quorum mode this is the exact commit point of the last acked write.
  uint64_t OwnerVersionFloor(const ObjectId& oid) const;

  // Persistence: "persistent storage of the state of a directory node (location
  // information and forwarding pointers)" with "a simple crash recovery mechanism"
  // (paper §7). Cache contents, master-ownership records and the RPC server's
  // at-most-once dedup table ride along, so a subnode rebuilt from its checkpoint
  // resumes warm, keeps arbitrating fail-over, and still replays duplicates of
  // writes the pre-crash server executed.
  Bytes SaveState() const;
  Status RestoreState(ByteSpan data);

  // Per-OID master-ownership record (fail-over): the current epoch, the address
  // that holds it, and how long its lease runs. Kept only at the OID's root home
  // subnode — the one node every claim deterministically routes to, which is
  // what makes the conditional update a real arbitration.
  struct OwnerRecord {
    uint64_t epoch = 0;
    ContactAddress master;
    sim::SimTime lease_expires_at = 0;
    // Acked-write high-water mark the master reported on its last renewal;
    // non-incumbent claimants below it are refused (see MasterClaim::version).
    uint64_t version_floor = 0;
  };

  // Subnode splitting support (GlsDeployment::SplitDirectoryNode): drain every
  // directory entry and ownership record out of this subnode / graft the slice
  // that hashes here under the new subnode set. Deployment-level machinery —
  // the refs (self/parent/children) are rewired by the caller.
  std::vector<std::pair<ObjectId, DirectoryEntry>> ExportEntries() const;
  std::vector<std::pair<ObjectId, OwnerRecord>> ExportOwners() const;
  void ClearDirectoryState();
  void ImportEntry(const ObjectId& oid, DirectoryEntry entry);
  void ImportOwner(const ObjectId& oid, const OwnerRecord& record);

 private:
  static constexpr uint8_t kPhaseUp = 0;
  static constexpr uint8_t kPhaseDown = 1;

  using LookupResponder = std::function<void(Result<LookupResponse>)>;
  using EmptyResponder = std::function<void(Result<sim::EmptyMessage>)>;

  Status CheckAuthorized(const sim::RpcContext& context) const;

  // Lookup core of gls.lookup: local addresses, then the cache (when allowed),
  // then pointer descent / sideways handoff / parent climb.
  void ResolveLookup(LookupWireRequest request, LookupResponder respond);

  // gls.lookup_all core: climb strictly by hash to the OID's root home, then
  // union this node's addresses with a descent into EVERY forwarding-pointer
  // child — the exhaustive registration set, where gls.lookup stops at the
  // nearest. Never cached (control-plane callers need the authoritative set);
  // an unreachable branch degrades to a partial enumeration rather than an
  // error.
  void ResolveLookupAll(LookupWireRequest request, LookupResponder respond);

  // gls.claim_master / gls.renew_lease core: forwarded strictly by hash towards
  // the root, arbitrated against the OwnerRecord there.
  void ResolveOwnership(bool is_claim, const ClaimWireRequest& request,
                        std::function<void(Result<ClaimWireResponse>)> respond);

  // True when this subnode is not the hash home for `oid` on its own node (i.e. a
  // power-of-two alternate received the lookup).
  bool IsAlternateFor(const ObjectId& oid) const;

  // Drops the cache entry for `oid` if present (mutations must never leave a cached
  // answer the mutation contradicts). `quarantine` additionally blocks re-caching
  // briefly; deregistration paths need it, insert paths do not (see LookupCache).
  void InvalidateCached(const ObjectId& oid, bool quarantine);

  // One deregistration applied locally plus its coherence chain; shared by
  // gls.delete and gls.scrub_address.
  void ApplyDelete(const ObjectId& oid, const ContactAddress& address,
                   EmptyResponder respond);

  // Deposed-master cleanup (gls.scrub_address): deletes the exact
  // (oid, address) pair if registered here, otherwise descends the pointer
  // chain towards wherever it might be. Idempotent — a missing address is
  // success, so the scrub races benignly with the deposed master's own
  // deregistration.
  void ScrubAddress(const ObjectId& oid, const ContactAddress& address,
                    EmptyResponder respond);

  // Continues an insert by installing the forwarding pointer chain towards the root
  // (one gls.install_ptr message per parent subnode the OIDs hash to), then
  // responds.
  void InstallPointersUp(std::vector<ObjectId> oids, EmptyResponder respond);
  // Continues a delete by pruning the pointer chain (and, with caching on,
  // invalidating this node's sibling caches), then responds.
  void PropagateRemoveUp(const ObjectId& oid, EmptyResponder respond);
  // Continues a delete that stopped pruning by invalidating every subnode of every
  // ancestor node up to the root (`include_siblings` additionally covers this
  // node's own siblings — used where the chain originates or arrives point-to-
  // point), then responds. No-op (immediate respond) when caching is off.
  // `quarantine` is threaded into the fan-out: deregistration chains set it so a
  // racing lookup cannot re-cache the address being removed; insert-driven
  // chains clear it so the just-registered replica is cacheable immediately.
  void PropagateInvalUp(const ObjectId& oid, bool include_siblings, bool quarantine,
                        EmptyResponder respond);

  // This subnode's sibling endpoints (empty if SetSelf was never called).
  std::vector<sim::Endpoint> SiblingEndpoints() const;

  sim::RpcServer server_;
  std::unique_ptr<sim::Channel> client_;
  sim::Clock* clock_;
  sim::DomainId domain_;
  int depth_;
  GlsOptions options_;
  const sec::KeyRegistry* registry_;
  Rng rng_;

  DirectoryRef parent_;
  DirectoryRef self_;
  std::map<sim::DomainId, DirectoryRef> children_;
  // Merged per-OID directory state (contact addresses + forwarding pointers),
  // memory-bounded: hashed hot set under LRU, cold tail spilled per subnode.
  SubnodeStore store_;
  // Root-only fail-over arbitration records; never evicted (losing one would
  // unfence a stale master), hashed for the planet-scale claim path.
  std::unordered_map<ObjectId, OwnerRecord, OidHash> owners_;
  LookupCache cache_;
  // stats() refreshes the store_* fields on read, hence mutable.
  mutable SubnodeStats stats_;
};

struct LookupResult {
  std::vector<ContactAddress> addresses;
  uint32_t hops = 0;
  int32_t found_depth = 0;
  int32_t apex_depth = 0;
  bool from_cache = false;
};

// One attempt to take (gls.claim_master) or keep (gls.renew_lease) mastership
// of an object's replica group. `known_epoch` is the epoch the caller believes
// is current: a claim is granted only if the record has not moved past it AND
// the incumbent's lease has lapsed (or the caller is the incumbent), which is
// the conditional update that makes concurrent claimants race safely.
struct MasterClaim {
  ObjectId oid;
  ContactAddress claimant;
  uint64_t known_epoch = 0;
  // The claimant's applied write version. Renewals raise the record's
  // version floor with it; claims below the floor are refused (the claimant
  // is provably missing acknowledged writes), except from the incumbent —
  // whose checkpoint restore is the one sanctioned rollback.
  uint64_t version = 0;
  sim::SimTime lease_duration = 5 * sim::kSecond;
  // Quorum-ack mode: the floor is exact (every version at or below it was
  // acked to a client), so it must be monotone and binding for everyone — the
  // incumbent exemption above is disabled and a renewal can only raise it.
  // Appended last so positional aggregate initialization stays compatible.
  bool strict_floor = false;
};

// The arbiter's answer. Rejections carry the current record so losers (and
// deposed masters) can adopt the winner. `version_floor` reports the record's
// acked-write floor: an elected quorum master applies its staged writes up to
// exactly this floor and discards anything above it.
struct ClaimOutcome {
  bool granted = false;
  uint64_t epoch = 0;
  ContactAddress master;
  uint64_t version_floor = 0;
};

// Client-side stub: the run-time-system piece that talks to the leaf directory node
// of the domain its process lives in.
class GlsClient {
 public:
  GlsClient(sim::Transport* transport, sim::NodeId node, DirectoryRef leaf_directory);

  using LookupCallback = std::function<void(Result<LookupResult>)>;
  using DoneCallback = std::function<void(Status)>;
  using OidCallback = std::function<void(Result<ObjectId>)>;

  void Lookup(const ObjectId& oid, LookupCallback done);
  // `allow_cached` lets directory subnodes answer from their lookup caches
  // (TTL-bounded staleness in exchange for fewer directory hops).
  void Lookup(const ObjectId& oid, bool allow_cached, LookupCallback done);

  // Exhaustive enumeration: EVERY contact address registered anywhere in the
  // tree, not just the nearest (the climb goes to the OID's root home and
  // descends all forwarding pointers). Control-plane only — a protocol switch
  // fencing an object's foreign replicas, audits — never the serving path: it
  // always walks to the root and bypasses every cache.
  void LookupAll(const ObjectId& oid, LookupCallback done);

  // Registers one (OID, address) pair: a one-item InsertBatch.
  void Insert(const ObjectId& oid, const ContactAddress& address, DoneCallback done);
  // Registers many (OID, address) pairs in one round trip per leaf subnode; the
  // aggregate status is OK only if every registration succeeded.
  void InsertBatch(const std::vector<std::pair<ObjectId, ContactAddress>>& items,
                   DoneCallback done);
  // Deregisters one (OID, address) pair: a one-item DeleteBatch.
  void Delete(const ObjectId& oid, const ContactAddress& address, DoneCallback done);
  // Deregisters many (OID, address) pairs in one round trip per leaf subnode; the
  // aggregate status is OK only if every deregistration succeeded. Mirrors
  // InsertBatch; used by GOS decommission.
  void DeleteBatch(const std::vector<std::pair<ObjectId, ContactAddress>>& items,
                   DoneCallback done);
  void AllocateOid(OidCallback done);

  // Master fail-over: races an epoch-fenced conditional ownership update to the
  // OID's root home subnode (the leaf forwards strictly by hash). Exactly one
  // concurrent claimant is granted the next epoch; everyone else gets the
  // current record back. Executed at most once server-side, so the write retry
  // budget cannot double-grant.
  using ClaimCallback = std::function<void(Result<ClaimOutcome>)>;
  void ClaimMaster(const MasterClaim& claim, ClaimCallback done);
  // The incumbent extends its ownership lease; a rejection names the newer
  // epoch/master to adopt. Idempotent (only a timestamp refresh), so it skips
  // the dedup table.
  void RenewMasterLease(const MasterClaim& claim, ClaimCallback done);

  // Default for the single-OID Lookup overload without an explicit flag.
  void set_allow_cached(bool allow) { allow_cached_ = allow; }
  bool allow_cached() const { return allow_cached_; }

  // Routing mode for single-OID lookups (mutations always hash-route).
  void set_route_mode(RouteMode mode) { route_mode_ = mode; }
  RouteMode route_mode() const { return route_mode_; }

  // Applied to every call this client issues (lookups and mutations alike),
  // except mutations whose budget was pinned with set_write_retry_policy.
  void set_retry_policy(sim::RetryPolicy policy) {
    if (!write_retry_explicit_) {
      write_retry_ = policy;
    }
    retry_ = std::move(policy);
  }
  // Budget for the mutating calls only (Insert/Delete, the batches, and
  // AllocateOid), overriding set_retry_policy there in either call order.
  // Defaults to 3 attempts with the UNAVAILABLE-only predicate: GLS mutations
  // are executed at most once server-side, so a lost response is safe to retry;
  // lookups keep the single-attempt default unless set_retry_policy says
  // otherwise.
  void set_write_retry_policy(sim::RetryPolicy policy) {
    write_retry_explicit_ = true;
    write_retry_ = std::move(policy);
  }

  const DirectoryRef& leaf_directory() const { return leaf_; }
  const sim::Channel& channel() const { return rpc_; }

 private:
  // The canonical write budget; mutations are deduped server-side (rpc.h).
  static sim::RetryPolicy DefaultWriteRetry() { return sim::WriteCallOptions().retry; }

  sim::CallOptions MakeCallOptions() const;
  sim::CallOptions MakeWriteCallOptions() const;

  sim::Channel rpc_;
  DirectoryRef leaf_;
  bool allow_cached_ = false;
  RouteMode route_mode_ = RouteMode::kHashOnly;
  sim::RetryPolicy retry_;
  sim::RetryPolicy write_retry_ = DefaultWriteRetry();
  bool write_retry_explicit_ = false;
};

}  // namespace globe::gls

#endif  // SRC_GLS_DIRECTORY_H_
