// directory_storm: the Globe Location Service alone, in the shape of
// bench_planet_scale sized for a 4-core host, on a 4-shard ShardedSimulator
// (one shard per continent).
//
// Setup bulk-registers kInitialOids OIDs in batches from one registrar per
// country into subnodes that keep only kStoreCapacity entries resident, then
// runs the capacity-driven split of the root. Rounds run in sequence in this
// process (the engine's worker threads cannot be forked), each on fresh
// inputs. A round is an open loop, in virtual time, of:
//   - Zipf(1.0) cached lookups of OIDs that never change,
//   - insert batches of new OIDs, each followed by lookups of some of them,
//   - delete batches of earlier churn OIDs, each followed by lookups of some
//     of the deleted ones.
// Checks: every lookup returns exactly the addresses of the benchmark's
// shadow registry, every lookup issued after an acknowledged delete answers
// NotFound, the root holds one entry per registered OID after the split, no
// subnode's resident set ever exceeds its capacity, and the engine reports no
// lookahead violation.
//
// Callbacks run on shard worker threads: each writes only its own slot, and
// every cross-op decision is made before the round starts.

#include <algorithm>
#include <atomic>
#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/stats.h"
#include "src/gls/deploy.h"
#include "src/sim/backend.h"

namespace perfbench {
namespace {

namespace gls = globe::gls;
namespace sim = globe::sim;
using globe::Result;
using globe::Status;
using globe::StatusCode;

constexpr size_t kShards = 4;
constexpr size_t kCountries = 16;  // fanouts {4, 4}
constexpr size_t kHostsPerCountry = 32;
constexpr size_t kInitialOids = 100000;
constexpr size_t kChurnOids = kInitialOids / 10;  // the deletable tail
constexpr size_t kBatch = 500;
constexpr size_t kStoreCapacity = 2048;
// Virtual CPU cost of one request at a subnode: requests queue, so latency
// reflects load on the hot subnodes, not only link latencies.
constexpr sim::SimTime kServiceTime = 10;
constexpr size_t kLookupsPerRound = 2000;
constexpr double kLookupsPerSecond = 4000;
constexpr size_t kChurnBatches = 2;    // inserts and deletes each, per round
constexpr size_t kChurnBatchOids = 250;
constexpr size_t kFollowUps = 50;      // lookups after each churn batch
constexpr size_t kCycle = 12;
// Rounds start this far apart in virtual time, so the lookup caches' 30 s
// TTLs and delete quarantines of one round have expired before the next:
// every round meets the same kind of state however many rounds ran before.
constexpr sim::SimTime kRoundGap = 31 * sim::kSecond;
constexpr size_t kProbes = 8;

class DirectoryStorm final : public Workload {
 public:
  void Setup(uint64_t seed) override;
  RoundResult RunRound(uint64_t round) override;
  bool fork_rounds() const override { return false; }
  bool deterministic() const override { return true; }
  size_t cycle() const override { return kCycle; }
  std::string engine() const override { return "sharded"; }
  size_t shards() const override { return kShards; }
  std::map<std::string, double> SetupLayers() const override { return setup_layers_; }

 private:
  gls::ObjectId NewOid(Gen* gen) const;
  gls::ContactAddress AddressOf(size_t country) const {
    return {{registrars_hosts_[country], sim::kPortGos}, 1, gls::ReplicaRole::kMaster};
  }
  void CheckStores() const;

  uint64_t seed_ = 0;
  sim::UniformWorld world_;
  std::unique_ptr<sim::ShardedSimulator> engine_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::PlainTransport> transport_;
  std::unique_ptr<gls::GlsDeployment> deployment_;
  std::vector<std::unique_ptr<gls::GlsClient>> clients_;  // one per world host
  std::vector<sim::NodeId> registrars_hosts_;             // one per country
  // Shadow registry: OID -> registering country.
  std::vector<std::pair<gls::ObjectId, size_t>> stable_;
  // Live deletable OIDs by registering country (a registration is deleted
  // through the leaf it was registered at).
  std::vector<std::vector<gls::ObjectId>> churn_;
  std::map<std::string, double> setup_layers_;
};

gls::ObjectId DirectoryStorm::NewOid(Gen* gen) const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex(2 * gls::ObjectId::kSize, '0');
  for (char& c : hex) c = kHex[gen->Below(16)];
  return *gls::ObjectId::FromHex(hex);
}

void DirectoryStorm::CheckStores() const {
  for (const auto& subnode : deployment_->subnodes()) {
    if (subnode->stats().store_peak_resident > kStoreCapacity) {
      Fail("a subnode held %llu resident entries, capacity %zu",
           static_cast<unsigned long long>(subnode->stats().store_peak_resident),
           kStoreCapacity);
    }
  }
  if (engine_->lookahead_violations() != 0) Fail("lookahead violations in the engine");
}

void DirectoryStorm::Setup(uint64_t seed) {
  seed_ = seed;
  world_ = sim::BuildUniformWorld({4, 4}, static_cast<int>(kHostsPerCountry));
  sim::NetworkOptions net_options;
  // Any cross-shard message climbs at least one level, so the ascent-level-1
  // latency bounds every cross-shard delivery from below.
  engine_ = std::make_unique<sim::ShardedSimulator>(
      kShards, static_cast<sim::SimTime>(net_options.profile.LatencyAt(1)));
  std::map<sim::DomainId, size_t> continent_shard;
  auto assign = [&](sim::NodeId node) {
    sim::DomainId d = world_.topology.NodeDomain(node);
    while (world_.topology.DomainDepth(d) > 1) d = world_.topology.DomainParent(d);
    size_t shard = continent_shard.emplace(d, continent_shard.size()).first->second;
    engine_->AssignNode(node, shard % kShards);
  };
  for (sim::NodeId node = 0; node < world_.topology.num_nodes(); ++node) assign(node);
  network_ = std::make_unique<sim::Network>(engine_.get(), &world_.topology, net_options);
  transport_ = std::make_unique<sim::PlainTransport>(network_.get());
  gls::GlsDeploymentOptions options;
  options.node_options.enable_cache = true;
  options.node_options.store_capacity = kStoreCapacity;
  options.node_options.service_time = kServiceTime;
  deployment_ = std::make_unique<gls::GlsDeployment>(transport_.get(), &world_.topology,
                                                     nullptr, options, assign);

  Gen gen(Mix(seed, "oids"));
  std::vector<std::pair<gls::ObjectId, size_t>> initial;
  for (size_t i = 0; i < kInitialOids; ++i) {
    initial.emplace_back(NewOid(&gen), i % kCountries);
  }
  for (size_t c = 0; c < kCountries; ++c) {
    registrars_hosts_.push_back(world_.hosts[c * kHostsPerCountry]);
  }

  // ---- Bulk registration.
  double t0 = WallSeconds();
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> failed{0};
  uint64_t batches = 0;
  std::vector<std::unique_ptr<gls::GlsClient>> registrars;
  for (size_t c = 0; c < kCountries; ++c) {
    sim::NodeId host = registrars_hosts_[c];
    registrars.push_back(std::make_unique<gls::GlsClient>(
        transport_.get(), host, deployment_->LeafDirectoryFor(host)));
    gls::GlsClient* client = registrars.back().get();
    std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> mine;
    for (size_t i = c; i < initial.size(); i += kCountries) {
      mine.emplace_back(initial[i].first, AddressOf(c));
    }
    for (size_t b = 0; b * kBatch < mine.size(); ++b) {
      ++batches;
      std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> items(
          mine.begin() + static_cast<long>(b * kBatch),
          mine.begin() + static_cast<long>(std::min(mine.size(), (b + 1) * kBatch)));
      engine_->ScheduleAtForNode(
          host, 1 + b * 10 * sim::kMillisecond, [&, client, items = std::move(items)] {
            client->InsertBatch(items, [&](Status s) {
              ++acked;
              if (!s.ok()) ++failed;
            });
          });
    }
  }
  engine_->Run();
  if (failed != 0 || acked != batches) Fail("bulk registration lost batches");
  setup_layers_["gls.register_s"] = WallSeconds() - t0;
  registrars.clear();

  // ---- Capacity-driven split of the root.
  t0 = WallSeconds();
  if (deployment_->SplitOverloadedNodes(kInitialOids / 4) < 1) {
    Fail("the root did not split");
  }
  setup_layers_["gls.split_s"] = WallSeconds() - t0;
  t0 = WallSeconds();
  size_t root_entries = 0;
  std::vector<const gls::DirectorySubnode*> root = deployment_->SubnodesOf(0);
  for (const auto* subnode : root) root_entries += subnode->TotalEntries();
  setup_layers_["gls.total_entries_us"] =
      (WallSeconds() - t0) * 1e6 / static_cast<double>(root.size());
  if (root_entries != kInitialOids) {
    Fail("root holds %zu entries after the split, %zu OIDs registered", root_entries,
         kInitialOids);
  }
  CheckStores();

  // Clients are made after the split: refs taken before it would misroute.
  for (sim::NodeId host : world_.hosts) {
    clients_.push_back(std::make_unique<gls::GlsClient>(
        transport_.get(), host, deployment_->LeafDirectoryFor(host)));
    clients_.back()->set_allow_cached(true);
  }
  stable_.assign(initial.begin(), initial.end() - kChurnOids);
  churn_.resize(kCountries);
  for (auto it = initial.end() - kChurnOids; it != initial.end(); ++it) {
    churn_[it->second].push_back(it->first);
  }
}

RoundResult DirectoryStorm::RunRound(uint64_t round) {
  RoundResult result;
  result.digest = kDigestSeed;
  Gen gen(Mix(seed_, round));
  Zipf zipf(stable_.size(), 1.0);
  size_t hosts = world_.hosts.size();

  // ---- Every operation of the round, decided up front.
  enum class Kind { kLookup, kInsert, kDelete, kAfterInsert, kAfterDelete };
  struct Op {
    Kind kind;
    sim::SimTime due = 0;     // relative, for the open-loop ops
    size_t client = 0;        // host index (lookups) or country (batches)
    gls::ObjectId oid;        // lookups
    size_t country = 0;       // expected registering country (lookups)
    size_t batch = 0;         // churn batch index (batches and follow-ups)
    std::atomic<sim::SimTime> issued{0};
    std::atomic<sim::SimTime> done{0};
    std::atomic<bool> ok{false};
  };
  std::vector<Op> ops(kLookupsPerRound + 2 * kChurnBatches * (1 + kFollowUps));
  size_t n = 0;
  double t = 0;
  for (size_t i = 0; i < kLookupsPerRound; ++i, ++n) {
    t += gen.Exp(1e6 / kLookupsPerSecond);
    const auto& [oid, country] = stable_[zipf.Sample(&gen)];
    ops[n].kind = Kind::kLookup;
    ops[n].due = static_cast<sim::SimTime>(t);
    ops[n].client = gen.Below(hosts);
    ops[n].oid = oid;
    ops[n].country = country;
  }
  double span = t;
  // Churn batches: inserts of fresh OIDs, deletes of live churn OIDs.
  std::vector<std::vector<std::pair<gls::ObjectId, size_t>>> inserts(kChurnBatches);
  std::vector<std::vector<std::pair<gls::ObjectId, size_t>>> deletes(kChurnBatches);
  std::vector<size_t> batch_op(2 * kChurnBatches);
  std::vector<size_t> follow_first(2 * kChurnBatches);
  for (size_t b = 0; b < 2 * kChurnBatches; ++b) {
    bool insert = b < kChurnBatches;
    // Round-robin over countries keeps every country's churn pool level.
    size_t country = (round * kChurnBatches + b % kChurnBatches + (insert ? 0 : 8)) %
                     kCountries;
    auto& items = insert ? inserts[b] : deletes[b - kChurnBatches];
    for (size_t k = 0; k < kChurnBatchOids; ++k) {
      if (insert) {
        items.emplace_back(NewOid(&gen), country);
      } else {
        if (churn_[country].empty()) Fail("churn pool of country %zu ran dry", country);
        items.emplace_back(churn_[country].back(), country);
        churn_[country].pop_back();
      }
    }
    batch_op[b] = n;
    ops[n].kind = insert ? Kind::kInsert : Kind::kDelete;
    double share = static_cast<double>(b % kChurnBatches + 1) / (kChurnBatches + 1);
    ops[n].due = static_cast<sim::SimTime>(span * share);
    ops[n].client = country;
    ops[n].batch = b;
    ++n;
    follow_first[b] = n;
    for (size_t k = 0; k < kFollowUps; ++k, ++n) {
      const auto& [oid, owner] = items[gen.Below(items.size())];
      ops[n].kind = insert ? Kind::kAfterInsert : Kind::kAfterDelete;
      ops[n].client = gen.Below(hosts);
      ops[n].oid = oid;
      ops[n].country = owner;
      ops[n].batch = b;
    }
  }

  // ---- Run.
  sim::ShardedSimulator& engine = *engine_;
  gls::SubnodeStats before = deployment_->TotalStats();
  sim::TrafficStats traffic_before = network_->stats();
  uint64_t events0 = engine.executed_events();
  uint64_t windows0 = engine.windows_run();
  uint64_t parallel0 = engine.parallel_windows();
  uint64_t allocs0 = Allocations();
  double wall0 = WallSeconds();
  sim::SimTime t0 = engine.Now() + kRoundGap;

  auto lookup = [&](size_t i) {
    Op& op = ops[i];
    op.issued = engine.Now();
    clients_[op.client]->Lookup(op.oid, [&, i](Result<gls::LookupResult> r) {
      Op& op = ops[i];
      op.done = engine.Now();
      if (op.kind == Kind::kAfterDelete) {
        op.ok = !r.ok() && r.status().code() == StatusCode::kNotFound;
      } else {
        op.ok = r.ok() && r->addresses.size() == 1 &&
                r->addresses[0] == AddressOf(op.country);
      }
    });
  };
  // Follow-ups start one lookahead after the ack: a client on another shard
  // cannot be handed work sooner without a lookahead violation.
  auto schedule_follow_ups = [&](size_t b) {
    for (size_t k = 0; k < kFollowUps; ++k) {
      size_t i = follow_first[b] + k;
      engine.ScheduleAtForNode(world_.hosts[ops[i].client],
                               engine.Now() + engine.lookahead() + k,
                               [&, i] { lookup(i); });
    }
  };
  for (size_t i = 0; i < kLookupsPerRound; ++i) {
    engine.ScheduleAtForNode(world_.hosts[ops[i].client], t0 + ops[i].due,
                             [&, i] { lookup(i); });
  }
  for (size_t b = 0; b < 2 * kChurnBatches; ++b) {
    size_t i = batch_op[b];
    size_t country = ops[i].client;
    sim::NodeId host = registrars_hosts_[country];
    gls::GlsClient* client = clients_[country * kHostsPerCountry].get();
    engine.ScheduleAtForNode(host, t0 + ops[i].due, [&, i, b, client] {
      std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> items;
      bool insert = b < kChurnBatches;
      for (const auto& [oid, owner] : insert ? inserts[b] : deletes[b - kChurnBatches]) {
        items.emplace_back(oid, AddressOf(owner));
      }
      ops[i].issued = engine.Now();
      auto done = [&, i, b](Status s) {
        ops[i].done = engine.Now();
        ops[i].ok = s.ok();
        if (s.ok()) schedule_follow_ups(b);
      };
      if (insert) {
        client->InsertBatch(items, done);
      } else {
        client->DeleteBatch(items, done);
      }
    });
  }
  engine.Run();
  result.host_s = WallSeconds() - wall0;
  result.allocs = Allocations() - allocs0;

  // ---- Outcomes.
  std::vector<double> insert_ms;
  for (size_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    if (op.done == 0) Fail("directory operation %zu never completed", i);
    if (!op.ok) {
      Fail("directory operation %zu (kind %d) answered wrongly", i,
           static_cast<int>(op.kind));
    }
    sim::SimTime start = op.kind == Kind::kLookup ? t0 + op.due : op.issued.load();
    double ms = sim::ToMillis(op.done - start);
    result.latency_ms.push_back(ms);
    result.digest = Fold(result.digest, op.done - start);
    if (op.kind == Kind::kInsert) insert_ms.push_back(ms);
    if (Trace().enabled()) {
      static constexpr const char* kNames[] = {"gls.lookup", "gls.insert_batch",
                                               "gls.delete_batch", "gls.lookup_inserted",
                                               "gls.lookup_deleted"};
      Trace().Add({kNames[static_cast<int>(op.kind)], "op", static_cast<double>(start),
                   static_cast<double>(op.done.load()), 0, 0,
                   static_cast<uint32_t>(
                       1 + engine.ShardOfNode(world_.hosts[op.client]))});
    }
  }
  result.attempted = result.completed = n;
  for (const auto& batch : inserts) {
    for (const auto& [oid, country] : batch) {
      churn_[country].insert(churn_[country].begin(), oid);
    }
  }
  CheckStores();

  gls::SubnodeStats after = deployment_->TotalStats();
  const sim::TrafficStats& traffic = network_->stats();
  uint64_t bytes = traffic.TotalBytes() - traffic_before.TotalBytes();
  result.net_bytes = static_cast<double>(bytes);
  result.digest = Fold(result.digest, bytes);

  if (Trace().enabled()) {
    auto per_op = [&](double total) { return PerOp(total, n).value_or(0); };
    double events = static_cast<double>(engine.executed_events() - events0);
    auto& layer = result.layer;
    layer["sim.events_per_op"] = per_op(events);
    layer["sim.host_us_per_event"] = events > 0 ? result.host_s * 1e6 / events : 0;
    double messages =
        static_cast<double>(traffic.TotalMessages() - traffic_before.TotalMessages());
    double wan_bytes =
        static_cast<double>(traffic.BytesAtOrAbove(2) - traffic_before.BytesAtOrAbove(2));
    layer["sim.msgs_per_op"] = per_op(messages);
    layer["sim.wan_kb_per_op"] = per_op(wan_bytes / 1024.0);
    layer["sim.parallel_window_share"] =
        Share(static_cast<double>(engine.parallel_windows() - parallel0),
              static_cast<double>(engine.windows_run() - windows0));
    double forwards = static_cast<double>(
        (after.forwards_up + after.forwards_down + after.forwards_sideways) -
        (before.forwards_up + before.forwards_down + before.forwards_sideways));
    layer["gls.hops_per_lookup"] =
        Share(forwards, static_cast<double>(after.lookups - before.lookups));
    double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    layer["gls.cache_hit_share"] =
        Share(hits, hits + static_cast<double>(after.cache_misses - before.cache_misses));
    layer["gls.insert_batch_ms_p50"] = *Median(insert_ms);
    layer["gls.store_evictions_per_op"] =
        per_op(static_cast<double>(after.store_evictions - before.store_evictions));
    layer["gls.store_fault_ins_per_op"] =
        per_op(static_cast<double>(after.store_fault_ins - before.store_fault_ins));
    layer["gls.spilled_kb"] = static_cast<double>(after.store_spilled_bytes) / 1024.0;

    // Probe lookups, one at a time with the engine otherwise idle.
    std::vector<double> probe_ms;
    for (size_t k = 0; k < kProbes; ++k) {
      size_t client = gen.Below(hosts);
      const auto& [oid, country] = stable_[gen.Below(stable_.size())];
      sim::SimTime start = engine.Now();
      std::atomic<sim::SimTime> end{0};
      HostScope host;
      engine.ScheduleAtForNode(world_.hosts[client], start, [&, client, oid = oid] {
        clients_[client]->Lookup(oid, [&](Result<gls::LookupResult> r) {
          if (!r.ok()) Fail("probe lookup failed");
          end = engine.Now();
        });
      });
      engine.Run();
      host.Stop();
      if (end == 0) Fail("probe lookup never completed");
      probe_ms.push_back(sim::ToMillis(end - start));
      Trace().Add({"probe.gls.lookup", "gls", static_cast<double>(start),
                   static_cast<double>(end.load()), host.cpu_us, host.allocs, 0});
    }
    layer["gls.lookup_ms_p50"] = *Median(probe_ms);
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeDirectoryStorm() {
  return std::make_unique<DirectoryStorm>();
}

}  // namespace perfbench
