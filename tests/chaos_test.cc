// Chaos suite (CTest label `chaos`): randomized fault schedules over fixed
// seeds, asserting end-state invariants rather than step-by-step behaviour.
//
// Everything here rides on the deterministic fault-injection API of
// sim::Network (per-link loss, timed bidirectional partitions, crash/restart)
// and the at-most-once execution layer in sim::RpcServer: a write delivered
// twice — because a retry repeated it after its response was lost — must mutate
// state exactly once, the GOS replica set must converge to one owner view once
// the faults heal, and no OID may resolve to a decommissioned address.
//
// Seeds: the suite runs the three pinned seeds 1337, 4242 and 9001 (the same
// set the CI chaos job documents); setting GLOBE_CHAOS_SEED replaces the set
// with a single seed for reproduction. Every failure schedule is generated from
// the seed and executed on the virtual clock, so a run replays byte-identically
// — which the determinism test proves by running each scenario twice and
// comparing simulator event counts and final state hashes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/dso/master_slave.h"
#include "src/dso/wire.h"
#include "src/gls/deploy.h"
#include "src/gos/object_server.h"
#include "src/util/sha256.h"
#include "src/sim/backend.h"

namespace globe {
namespace {

using gls::ObjectId;
using sim::kMillisecond;
using sim::kSecond;
using sim::NodeId;
using sim::SimTime;

std::vector<uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("GLOBE_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  return {1337, 4242, 9001};
}

// A deliberately non-idempotent semantics object: add(key, delta) increments.
// A KV put would mask duplicate execution (setting twice equals setting once);
// a counter makes every double-execution visible in the final state.
class CounterObject : public dso::SemanticsObject {
 public:
  static constexpr uint16_t kTypeId = 21;

  Result<Bytes> Invoke(const dso::Invocation& invocation) override {
    ByteReader r(invocation.args);
    if (invocation.method == "add") {
      ASSIGN_OR_RETURN(std::string key, r.ReadString());
      ASSIGN_OR_RETURN(uint64_t delta, r.ReadU64());
      counters_[key] += delta;
      ByteWriter w;
      w.WriteU64(counters_[key]);
      return w.Take();
    }
    if (invocation.method == "get") {
      ASSIGN_OR_RETURN(std::string key, r.ReadString());
      ByteWriter w;
      w.WriteU64(counters_.count(key) > 0 ? counters_.at(key) : 0);
      return w.Take();
    }
    return NotFound("no such method: " + invocation.method);
  }

  Bytes GetState() const override {
    ByteWriter w;
    w.WriteVarint(counters_.size());
    for (const auto& [key, value] : counters_) {
      w.WriteString(key);
      w.WriteU64(value);
    }
    return w.Take();
  }

  Status SetState(ByteSpan state) override {
    ByteReader r(state);
    std::map<std::string, uint64_t> counters;
    ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      ASSIGN_OR_RETURN(std::string key, r.ReadString());
      ASSIGN_OR_RETURN(uint64_t value, r.ReadU64());
      counters[key] = value;
    }
    counters_ = std::move(counters);
    return OkStatus();
  }

  std::unique_ptr<dso::SemanticsObject> CloneEmpty() const override {
    return std::make_unique<CounterObject>();
  }
  uint16_t type_id() const override { return kTypeId; }

  const std::map<std::string, uint64_t>& counters() const { return counters_; }

 private:
  std::map<std::string, uint64_t> counters_;
};

dso::Invocation CounterAdd(const std::string& key, uint64_t delta) {
  ByteWriter w;
  w.WriteString(key);
  w.WriteU64(delta);
  return dso::Invocation{"add", w.Take(), /*read_only=*/false};
}

std::map<std::string, uint64_t> ParseCounterState(ByteSpan state) {
  CounterObject counter;
  EXPECT_TRUE(counter.SetState(state).ok());
  return counter.counters();
}

// One small GDN-ish world: a 2x2 topology, a GLS with caching on, and two
// object servers on different continents.
struct ChaosWorld {
  explicit ChaosWorld(uint64_t seed) : world(sim::BuildUniformWorld({2, 2}, 2)) {
    // The deployment adds the directory hosts to the topology; the network only
    // reads the topology at send time, so construction order is free.
    sim::NetworkOptions network_options;
    network_options.rng_seed = seed;
    network = std::make_unique<sim::Network>(&simulator, &world.topology,
                                             network_options);
    transport = std::make_unique<sim::PlainTransport>(network.get());
    gls::GlsDeploymentOptions deployment_options;
    deployment_options.node_options.enable_cache = true;
    deployment_options.rng_seed = seed;
    deployment = std::make_unique<gls::GlsDeployment>(
        transport.get(), &world.topology, nullptr, deployment_options);
    repository.RegisterSemantics(std::make_unique<CounterObject>());
    gos_a = std::make_unique<gos::ObjectServer>(
        transport.get(), world.hosts[0], &repository,
        deployment->LeafDirectoryFor(world.hosts[0]), nullptr);
    gos_b = std::make_unique<gos::ObjectServer>(
        transport.get(), world.hosts[6], &repository,
        deployment->LeafDirectoryFor(world.hosts[6]), nullptr);
  }

  std::pair<ObjectId, gls::ContactAddress> CreateMaster(
      gls::ProtocolId protocol = dso::kProtoMasterSlave) {
    ObjectId oid;
    gls::ContactAddress address;
    Status status = Unavailable("pending");
    gos_a->CreateFirstReplica(
        protocol, CounterObject::kTypeId,
        [&](Result<std::pair<ObjectId, gls::ContactAddress>> r) {
          if (r.ok()) {
            oid = r->first;
            address = r->second;
            status = OkStatus();
          } else {
            status = r.status();
          }
        });
    simulator.Run();
    EXPECT_TRUE(status.ok()) << status;
    return {oid, address};
  }

  gls::ContactAddress CreateSlave(const ObjectId& oid) {
    gls::ContactAddress address;
    Status status = Unavailable("pending");
    gos_b->CreateReplica(oid, CounterObject::kTypeId, gls::ReplicaRole::kSlave,
                         [&](Result<std::pair<ObjectId, gls::ContactAddress>> r) {
                           if (r.ok()) {
                             address = r->second;
                             status = OkStatus();
                           } else {
                             status = r.status();
                           }
                         });
    simulator.Run();
    EXPECT_TRUE(status.ok()) << status;
    return address;
  }

  sim::Simulator simulator;
  sim::UniformWorld world;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<sim::PlainTransport> transport;
  std::unique_ptr<gls::GlsDeployment> deployment;
  dso::ImplementationRepository repository;
  std::unique_ptr<gos::ObjectServer> gos_a, gos_b;
};

// ------------------------------------------------------------- exactly once

// The acceptance scenario: a GOS-hosted write whose response is lost is
// retried, the duplicate delivery hits the master's dedup table, and the state
// mutates exactly once.
TEST(ChaosExactlyOnceTest, DuplicateDeliveredGosWriteMutatesStateOnce) {
  ChaosWorld w(0xC4A05);
  auto [oid, master_address] = w.CreateMaster();
  w.CreateSlave(oid);

  NodeId master_host = master_address.endpoint.node;
  NodeId client_host = w.world.hosts[3];
  sim::Channel client(w.transport.get(), client_host);

  // Lose every master -> client response until t = 1.1 s: attempt 1 executes
  // the write but its response vanishes; the retry at ~1.2 s (1 s deadline +
  // 200 ms backoff) delivers a duplicate that must be answered from the dedup
  // table, not re-executed.
  w.network->SetLinkDropProbability(master_host, client_host, 1.0);
  w.simulator.ScheduleAt(1100 * kMillisecond, [&] {
    w.network->ClearLinkDropProbability(master_host, client_host);
  });

  Result<Bytes> written = Unavailable("pending");
  sim::CallOptions options;
  options.deadline = 1 * kSecond;
  options.retry.attempts = 3;
  options.retry.backoff = 200 * kMillisecond;
  dso::kDsoInvoke.Call(&client, master_address.endpoint, CounterAdd("k", 5),
                       [&](Result<Bytes> r) { written = std::move(r); }, options);
  w.simulator.Run();

  ASSERT_TRUE(written.ok()) << written.status();
  ByteReader r(*written);
  EXPECT_EQ(r.ReadU64().value(), 5u);
  EXPECT_GE(client.stats().retries, 1u);  // the duplicate really went out

  // Exactly one mutation: the counter holds one delta and the master executed
  // exactly one write. The slave saw exactly one push.
  dso::ReplicationObject* master = w.gos_a->FindReplica(oid);
  dso::ReplicationObject* slave = w.gos_b->FindReplica(oid);
  ASSERT_NE(master, nullptr);
  ASSERT_NE(slave, nullptr);
  EXPECT_EQ(master->version(), 1u);
  EXPECT_EQ(slave->version(), 1u);
  EXPECT_EQ(ParseCounterState(master->semantics()->GetState()).at("k"), 5u);
  EXPECT_EQ(ParseCounterState(slave->semantics()->GetState()).at("k"), 5u);

  // The per-link counters name the link that lost the response.
  EXPECT_GE(w.network->stats().dropped_per_link.at({master_host, client_host}), 1u);
}

// Same story one layer down, for both client entry points: a one-item Insert
// or Delete and a batch travel through the same gls.insert / gls.delete
// handler, so each must be exactly-once under duplicate delivery.
enum class GlsCallShape { kSingle, kBatch };

class ChaosGlsExactlyOnceTest : public ::testing::TestWithParam<GlsCallShape> {
 protected:
  ChaosGlsExactlyOnceTest() : w(0x615), client_host(w.world.hosts[5]) {
    client = w.deployment->MakeClient(client_host);
    Rng rng(7);
    oid = ObjectId::Generate(&rng);
    address = {{client_host, 4242}, dso::kProtoMasterSlave, gls::ReplicaRole::kMaster};
    leaf = client->leaf_directory().Route(oid);
    for (const auto& subnode : w.deployment->subnodes()) {
      if (subnode->endpoint() == leaf) {
        leaf_subnode = subnode.get();
      }
    }
  }

  // Registers (or deregisters) `address` through the parameter's entry point
  // and runs the simulator dry.
  Status Mutate(bool insert) {
    Status status = Unavailable("pending");
    auto done = [&status](Status s) { status = s; };
    if (GetParam() == GlsCallShape::kSingle) {
      insert ? client->Insert(oid, address, done) : client->Delete(oid, address, done);
    } else {
      insert ? client->InsertBatch({{oid, address}}, done)
             : client->DeleteBatch({{oid, address}}, done);
    }
    w.simulator.Run();
    return status;
  }

  // Loses the leaf subnode's responses for the next 31 s — past the client's
  // 30 s attempt deadline — so the default write retry (3 attempts, 200 ms
  // backoff) repeats the call.
  void LoseLeafResponses() {
    w.network->SetLinkDropProbability(leaf.node, client_host, 1.0);
    w.simulator.ScheduleAt(w.simulator.Now() + 31 * kSecond, [this] {
      w.network->ClearLinkDropProbability(leaf.node, client_host);
    });
  }

  uint64_t TotalStat(uint64_t gls::SubnodeStats::*field) const {
    uint64_t total = 0;
    for (const auto& subnode : w.deployment->subnodes()) {
      total += subnode->stats().*field;
    }
    return total;
  }

  ChaosWorld w;
  NodeId client_host;
  std::unique_ptr<gls::GlsClient> client;
  ObjectId oid;
  gls::ContactAddress address;
  sim::Endpoint leaf;
  const gls::DirectorySubnode* leaf_subnode = nullptr;
};

TEST_P(ChaosGlsExactlyOnceTest, DuplicateDeliveredInsertMutatesStateOnce) {
  ASSERT_NE(leaf_subnode, nullptr);
  LoseLeafResponses();
  Status status = Mutate(/*insert=*/true);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GE(client->channel().stats().retries, 1u);

  // One execution: one request served, one insert applied, one address stored.
  EXPECT_EQ(leaf_subnode->stats().batch_inserts, 1u);
  EXPECT_EQ(leaf_subnode->stats().inserts, 1u);
  EXPECT_EQ(leaf_subnode->NumAddresses(oid), 1u);
  // The pointer chain above was installed exactly once per ancestor level — a
  // re-executed duplicate would have doubled this counter.
  EXPECT_EQ(TotalStat(&gls::SubnodeStats::pointer_installs),
            static_cast<uint64_t>(leaf_subnode->depth()));
}

// A delete whose response is lost: the retry must replay the first execution's
// OK instead of re-running the delete, which would find nothing and answer
// NotFound.
TEST_P(ChaosGlsExactlyOnceTest, LostDeleteResponseRetriesToOk) {
  ASSERT_NE(leaf_subnode, nullptr);
  ASSERT_TRUE(Mutate(/*insert=*/true).ok());
  uint64_t retries_before = client->channel().stats().retries;

  LoseLeafResponses();
  Status status = Mutate(/*insert=*/false);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GE(client->channel().stats().retries, retries_before + 1);

  // One execution: one delete applied, the address gone, and the pointer
  // chain above pruned once per ancestor level.
  EXPECT_EQ(leaf_subnode->stats().batch_deletes, 1u);
  EXPECT_EQ(leaf_subnode->stats().deletes, 1u);
  EXPECT_EQ(leaf_subnode->NumAddresses(oid), 0u);
  EXPECT_EQ(TotalStat(&gls::SubnodeStats::pointer_removes),
            static_cast<uint64_t>(leaf_subnode->depth()));
  for (const auto& subnode : w.deployment->subnodes()) {
    EXPECT_EQ(subnode->NumPointers(oid), 0u) << "depth " << subnode->depth();
  }
}

INSTANTIATE_TEST_SUITE_P(CallShapes, ChaosGlsExactlyOnceTest,
                         ::testing::Values(GlsCallShape::kSingle, GlsCallShape::kBatch),
                         [](const ::testing::TestParamInfo<GlsCallShape>& info) {
                           return info.param == GlsCallShape::kSingle ? "Single"
                                                                      : "Batch";
                         });

// ---------------------------------------------------------- crash/restart

// The rebuild-from-checkpoint flavour of crash/restart: the GOS host powers
// off mid-service, the dead process's objects are torn down, a fresh server is
// built from the last checkpoint while the node is still dark (ports
// registered during the outage win over the stash at reboot), and Restore
// re-registers the replica in the GLS. Volatile writes since the checkpoint
// are gone; checkpointed state and directory coherence survive.
TEST(ChaosCrashRestartTest, RebuildFromCheckpointWipesVolatileStateAndRebinds) {
  ChaosWorld w(0xB007);
  auto [oid, old_address] = w.CreateMaster();
  NodeId gos_host = w.gos_a->host();
  sim::Channel client(w.transport.get(), w.world.hosts[3]);

  auto write = [&](const std::string& key, uint64_t delta, sim::Endpoint target) {
    Result<Bytes> result = Unavailable("pending");
    dso::kDsoInvoke.Call(&client, target, CounterAdd(key, delta),
                         [&](Result<Bytes> r) { result = std::move(r); },
                         sim::WriteCallOptions());
    w.simulator.Run();
    return result;
  };
  ASSERT_TRUE(write("k", 3, old_address.endpoint).ok());
  Bytes checkpoint = w.gos_a->Checkpoint();
  // Acknowledged, but newer than the checkpoint: the crash must wipe it.
  ASSERT_TRUE(write("volatile", 2, old_address.endpoint).ok());

  // Power-cut, rebuild from the checkpoint, reboot, restore.
  w.network->CrashNode(gos_host);
  w.gos_a.reset();
  w.gos_a = std::make_unique<gos::ObjectServer>(
      w.transport.get(), gos_host, &w.repository,
      w.deployment->LeafDirectoryFor(gos_host), nullptr);
  w.network->RestartNode(gos_host);
  Status restored = Unavailable("pending");
  w.gos_a->Restore(checkpoint, [&](Status s) { restored = s; });
  w.simulator.Run();
  ASSERT_TRUE(restored.ok()) << restored;

  // The GLS serves exactly the rebuilt replica's fresh address; the stale
  // pre-crash registration is gone.
  std::unique_ptr<gls::GlsClient> gls = w.deployment->MakeClient(w.world.hosts[3]);
  Result<gls::LookupResult> lookup = Unavailable("pending");
  gls->Lookup(oid, [&](Result<gls::LookupResult> r) { lookup = std::move(r); });
  w.simulator.Run();
  ASSERT_TRUE(lookup.ok()) << lookup.status();
  ASSERT_EQ(lookup->addresses.size(), 1u);
  sim::Endpoint new_endpoint = lookup->addresses[0].endpoint;
  EXPECT_NE(new_endpoint, old_address.endpoint);

  // Checkpointed state survived, the newer write did not, and the rebuilt
  // replica serves writes at its new address.
  ASSERT_TRUE(write("k", 4, new_endpoint).ok());
  dso::ReplicationObject* master = w.gos_a->FindReplica(oid);
  ASSERT_NE(master, nullptr);
  std::map<std::string, uint64_t> state =
      ParseCounterState(master->semantics()->GetState());
  EXPECT_EQ(state.at("k"), 7u);            // 3 from the checkpoint + 4 after reboot
  EXPECT_EQ(state.count("volatile"), 0u);  // wiped with the process
}

// --------------------------------------------------- randomized fault sweeps

struct ScenarioSummary {
  uint64_t executed_events = 0;
  uint64_t master_version = 0;
  uint64_t slave_version = 0;
  std::string state_hash;
  uint64_t total_messages = 0;
  uint64_t dropped = 0;
  uint64_t partitioned = 0;
  size_t acked_writes = 0;

  bool operator==(const ScenarioSummary&) const = default;
};

// Runs one full randomized scenario: a master/slave replica set under a
// seed-generated schedule of writes, per-link loss episodes, client<->master
// partitions and slave crash/restarts; heals everything; then checks the
// end-state invariants.
ScenarioSummary RunScenario(uint64_t seed) {
  ChaosWorld w(seed);
  auto [oid, master_address] = w.CreateMaster();
  gls::ContactAddress slave_address = w.CreateSlave(oid);

  NodeId master_host = master_address.endpoint.node;
  NodeId slave_host = w.gos_b->host();
  NodeId client_host = w.world.hosts[3];
  sim::Channel client(w.transport.get(), client_host);

  std::map<std::string, uint64_t> issued;  // upper bound on every counter
  std::map<std::string, uint64_t> acked;   // lower bound on every counter
  size_t acked_writes = 0;

  // The whole schedule — writes and faults alike — is generated up front from
  // the seed and pinned to virtual times, so it replays identically.
  Rng schedule(seed ^ 0x5eed5c4aULL);
  constexpr int kTicks = 40;
  constexpr SimTime kTickSpacing = 500 * kMillisecond;
  for (int tick = 1; tick <= kTicks; ++tick) {
    SimTime at = tick * kTickSpacing;
    switch (schedule.UniformInt(6)) {
      case 0:
      case 1:
      case 2: {  // a write
        std::string key{'k', static_cast<char>('0' + schedule.UniformInt(4))};
        uint64_t delta = 1 + schedule.UniformInt(3);
        issued[key] += delta;
        w.simulator.ScheduleAt(at, [&w, &client, &acked, &acked_writes,
                                    master_endpoint = master_address.endpoint, key,
                                    delta] {
          sim::CallOptions options;
          options.deadline = 1 * kSecond;
          options.retry.attempts = 3;
          options.retry.backoff = 150 * kMillisecond;
          dso::kDsoInvoke.Call(&client, master_endpoint, CounterAdd(key, delta),
                               [&acked, &acked_writes, key, delta](Result<Bytes> r) {
                                 if (r.ok()) {
                                   acked[key] += delta;
                                   ++acked_writes;
                                 }
                               },
                               options);
        });
        break;
      }
      case 3: {  // a timed client <-> master partition
        SimTime duration = (200 + schedule.UniformInt(800)) * kMillisecond;
        w.simulator.ScheduleAt(at, [&w, master_host, client_host, duration] {
          w.network->PartitionPair(master_host, client_host, duration);
        });
        break;
      }
      case 4: {  // a per-link loss episode on the write path
        double loss = 0.2 + 0.1 * static_cast<double>(schedule.UniformInt(4));
        w.simulator.ScheduleAt(at, [&w, master_host, client_host, loss] {
          w.network->SetLinkDropProbability(master_host, client_host, loss);
          w.network->SetLinkDropProbability(client_host, master_host, loss);
        });
        w.simulator.ScheduleAt(at + 700 * kMillisecond, [&w, master_host,
                                                         client_host] {
          w.network->ClearLinkDropProbability(master_host, client_host);
          w.network->ClearLinkDropProbability(client_host, master_host);
        });
        break;
      }
      case 5: {  // crash the slave's host, reboot it shortly after
        w.simulator.ScheduleAt(at, [&w, slave_host] {
          if (!w.network->IsCrashed(slave_host)) {
            w.network->CrashNode(slave_host);
          }
        });
        w.simulator.ScheduleAt(at + 600 * kMillisecond, [&w, slave_host] {
          if (w.network->IsCrashed(slave_host)) {
            w.network->RestartNode(slave_host);
          }
        });
        break;
      }
    }
  }

  // Heal everything, then push one final sync write so the slave converges.
  SimTime heal_at = (kTicks + 1) * kTickSpacing + 5 * kSecond;
  w.simulator.ScheduleAt(heal_at, [&w, master_host, slave_host, client_host] {
    w.network->ClearLinkDropProbability(master_host, client_host);
    w.network->ClearLinkDropProbability(client_host, master_host);
    w.network->HealPartition(master_host, client_host);
    if (w.network->IsCrashed(slave_host)) {
      w.network->RestartNode(slave_host);
    }
  });
  issued["sync"] += 1;
  w.simulator.ScheduleAt(heal_at + kSecond, [&w, &client, &acked, &acked_writes,
                                             master_endpoint =
                                                 master_address.endpoint] {
    sim::CallOptions options;
    options.deadline = 2 * kSecond;
    options.retry.attempts = 5;
    options.retry.backoff = 200 * kMillisecond;
    dso::kDsoInvoke.Call(&client, master_endpoint, CounterAdd("sync", 1),
                         [&acked, &acked_writes](Result<Bytes> r) {
                           if (r.ok()) {
                             acked["sync"] += 1;
                             ++acked_writes;
                           }
                         },
                         options);
  });
  w.simulator.Run();

  // ---- End-state invariants ----
  dso::ReplicationObject* master = w.gos_a->FindReplica(oid);
  dso::ReplicationObject* slave = w.gos_b->FindReplica(oid);
  EXPECT_NE(master, nullptr);
  EXPECT_NE(slave, nullptr);
  if (master == nullptr || slave == nullptr) {
    return {};
  }

  // Converged: one owner view, identical state, identical version.
  Bytes master_state = master->semantics()->GetState();
  Bytes slave_state = slave->semantics()->GetState();
  EXPECT_EQ(master_state, slave_state);
  EXPECT_EQ(master->version(), slave->version());

  // Both replicas name the same master endpoint.
  sim::Endpoint owner_seen_by_master, owner_seen_by_slave;
  dso::kDsoMasterEndpoint.Call(&client, master_address.endpoint, {},
                               [&](Result<dso::EndpointMessage> r) {
                                 ASSERT_TRUE(r.ok());
                                 owner_seen_by_master = r->endpoint;
                               });
  dso::kDsoMasterEndpoint.Call(&client, slave_address.endpoint, {},
                               [&](Result<dso::EndpointMessage> r) {
                                 ASSERT_TRUE(r.ok());
                                 owner_seen_by_slave = r->endpoint;
                               });
  w.simulator.Run();
  EXPECT_EQ(owner_seen_by_master, owner_seen_by_slave);

  // At-most-once + retries bound every counter: acked writes are a floor (an
  // acknowledged write definitely executed, exactly once), issued writes a
  // ceiling (an unacknowledged write may or may not have landed; a duplicate
  // delivery never counts twice).
  std::map<std::string, uint64_t> state = ParseCounterState(master_state);
  for (const auto& [key, value] : state) {
    EXPECT_LE(value, issued[key]) << key << ": a write executed more than once";
  }
  for (const auto& [key, value] : acked) {
    EXPECT_GE(state[key], value) << key << ": an acknowledged write is missing";
  }
  EXPECT_EQ(state.at("sync"), 1u);  // the healed world really converged

  ScenarioSummary summary;
  summary.executed_events = w.simulator.executed_events();
  summary.master_version = master->version();
  summary.slave_version = slave->version();
  summary.state_hash =
      Sha256::HexDigest(master_state) + Sha256::HexDigest(slave_state);
  summary.total_messages = w.network->stats().TotalMessages();
  summary.dropped = w.network->stats().dropped_messages;
  summary.partitioned = w.network->stats().partitioned_messages;
  summary.acked_writes = acked_writes;
  return summary;
}

class ChaosSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSweepTest, RandomizedFaultScheduleConvergesAndReplaysIdentically) {
  ScenarioSummary first = RunScenario(GetParam());
  // The schedule really exercised the system: writes got through and the
  // injected faults really cost traffic.
  EXPECT_GT(first.acked_writes, 0u);
  EXPECT_GT(first.dropped + first.partitioned, 0u);
  EXPECT_GT(first.master_version, 0u);
  // Determinism: the same seed replays the identical failure schedule — same
  // number of simulator events, same message/drop counts, same final state.
  ScenarioSummary second = RunScenario(GetParam());
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_EQ(first.total_messages, second.total_messages);
  EXPECT_EQ(first.dropped, second.dropped);
  EXPECT_EQ(first.partitioned, second.partitioned);
  EXPECT_TRUE(first == second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweepTest, ::testing::ValuesIn(ChaosSeeds()));

// ------------------------------------------ policy migration under chaos

struct MigrationSummary {
  uint64_t executed_events = 0;
  std::string state_hash;
  uint64_t protocol_switches = 0;
  uint64_t tombstones = 0;
  uint64_t total_messages = 0;
  uint64_t dropped = 0;
  uint64_t partitioned = 0;
  size_t acked_writes = 0;

  bool operator==(const MigrationSummary&) const = default;
};

// A live object migrates client_server -> master_slave -> cache_inval (the
// controller's actuation path, driven here directly) while a seed-generated
// schedule throws writes, loss episodes, client<->server partitions and
// directory-host crashes at it. The client keeps writing to the endpoint it
// last learned, so writes scheduled before a switch but fired after it hit the
// retired port — the tombstone must fail them fast instead of letting them
// wait out deadlines against a silently closed port. Acked writes are the
// floor (each must survive both rebuilds), issued writes the ceiling (the
// dedup table keeps retried duplicates from landing twice), and the whole run
// must replay byte-identically.
MigrationSummary RunMigrationScenario(uint64_t seed) {
  ChaosWorld w(seed);
  auto [oid, initial_address] = w.CreateMaster(dso::kProtoClientServer);
  NodeId gos_host = w.gos_a->host();
  NodeId client_host = w.world.hosts[3];
  NodeId dir_host = w.deployment->LeafDirectoryFor(gos_host).subnodes[0].node;
  sim::Channel client(w.transport.get(), client_host);

  // The endpoint the client believes in. Migration completions update it, so
  // in-between writes target whatever incarnation the client last saw.
  sim::Endpoint believed = initial_address.endpoint;

  std::map<std::string, uint64_t> issued, acked;
  size_t acked_writes = 0;
  auto write_at = [&](SimTime at, const std::string& key, uint64_t delta) {
    issued[key] += delta;
    w.simulator.ScheduleAt(at, [&, key, delta] {
      sim::CallOptions options;
      options.deadline = 1 * kSecond;
      options.retry.attempts = 3;
      options.retry.backoff = 150 * kMillisecond;
      dso::kDsoInvoke.Call(&client, believed, CounterAdd(key, delta),
                           [&, key, delta](Result<Bytes> r) {
                             if (r.ok()) {
                               acked[key] += delta;
                               ++acked_writes;
                             }
                           },
                           options);
    });
  };

  // One guaranteed duplicate delivery: lose every server -> client response
  // around a pinned write, so every seed exercises the dedup table at least
  // once (and the drop counter below is never trivially zero).
  w.simulator.ScheduleAt(1900 * kMillisecond, [&] {
    w.network->SetLinkDropProbability(gos_host, client_host, 1.0);
  });
  w.simulator.ScheduleAt(2600 * kMillisecond, [&] {
    w.network->ClearLinkDropProbability(gos_host, client_host);
  });
  write_at(2000 * kMillisecond, "dup", 7);

  // The random schedule, generated up front and pinned to virtual times.
  Rng schedule(seed ^ 0x6D16121EULL);
  constexpr int kTicks = 36;
  constexpr SimTime kTickSpacing = 400 * kMillisecond;
  for (int tick = 1; tick <= kTicks; ++tick) {
    SimTime at = tick * kTickSpacing;
    switch (schedule.UniformInt(6)) {
      case 0:
      case 1:
      case 2: {  // a write to the currently-believed endpoint
        std::string key{'k', static_cast<char>('0' + schedule.UniformInt(4))};
        write_at(at, key, 1 + schedule.UniformInt(3));
        break;
      }
      case 3: {  // a per-link loss episode on the write path
        double loss = 0.2 + 0.1 * static_cast<double>(schedule.UniformInt(4));
        w.simulator.ScheduleAt(at, [&, loss] {
          w.network->SetLinkDropProbability(gos_host, client_host, loss);
          w.network->SetLinkDropProbability(client_host, gos_host, loss);
        });
        w.simulator.ScheduleAt(at + 700 * kMillisecond, [&] {
          w.network->ClearLinkDropProbability(gos_host, client_host);
          w.network->ClearLinkDropProbability(client_host, gos_host);
        });
        break;
      }
      case 4: {  // a timed client <-> server partition
        SimTime duration = (200 + schedule.UniformInt(800)) * kMillisecond;
        w.simulator.ScheduleAt(at, [&, duration] {
          w.network->PartitionPair(gos_host, client_host, duration);
        });
        break;
      }
      case 5: {  // crash the GOS host's leaf directory, reboot shortly after —
                 // the migration's GLS delete/insert swap must retry through it
        w.simulator.ScheduleAt(at, [&] {
          if (!w.network->IsCrashed(dir_host)) {
            w.network->CrashNode(dir_host);
          }
        });
        w.simulator.ScheduleAt(at + 600 * kMillisecond, [&] {
          if (w.network->IsCrashed(dir_host)) {
            w.network->RestartNode(dir_host);
          }
        });
        break;
      }
    }
  }

  // Two live migrations mid-schedule. The second waits for the first to
  // complete (a directory crash can stretch the GLS swap past its nominal
  // time), and the final sync write rebinds through an uncached lookup — the
  // registration swap must have made the fresh address visible.
  Status first_switch = Unavailable("pending");
  Status second_switch = Unavailable("pending");
  auto adopt_fresh_endpoint = [&] {
    dso::ReplicationObject* master = w.gos_a->FindReplica(oid);
    if (master != nullptr && master->contact_address().has_value()) {
      believed = master->contact_address()->endpoint;
    }
  };
  auto do_sync = [&] {
    issued["sync"] += 1;
    std::shared_ptr<gls::GlsClient> gls = w.deployment->MakeClient(client_host);
    gls->set_allow_cached(false);
    gls->Lookup(oid, [&, gls](Result<gls::LookupResult> r) {
      EXPECT_TRUE(r.ok()) << r.status();
      if (!r.ok() || r->addresses.empty()) {
        return;
      }
      believed = r->addresses[0].endpoint;
      dso::kDsoInvoke.Call(&client, believed, CounterAdd("sync", 1),
                           [&](Result<Bytes> rr) {
                             if (rr.ok()) {
                               acked["sync"] += 1;
                               ++acked_writes;
                             }
                           },
                           sim::WriteCallOptions());
    });
  };
  w.simulator.ScheduleAt(5 * kSecond, [&] {
    w.gos_a->SwitchProtocol(oid, dso::kProtoMasterSlave, [&](Status s) {
      first_switch = s;
      adopt_fresh_endpoint();
      w.simulator.ScheduleAt(
          std::max(w.simulator.Now(), 10 * kSecond) + kMillisecond, [&] {
            w.gos_a->SwitchProtocol(oid, dso::kProtoCacheInval, [&](Status s2) {
              second_switch = s2;
              adopt_fresh_endpoint();
              w.simulator.ScheduleAt(w.simulator.Now() + kSecond, do_sync);
            });
          });
    });
  });

  // Heal everything left over once the schedule has played out.
  w.simulator.ScheduleAt((kTicks + 4) * kTickSpacing, [&] {
    w.network->ClearLinkDropProbability(gos_host, client_host);
    w.network->ClearLinkDropProbability(client_host, gos_host);
    w.network->HealPartition(gos_host, client_host);
    if (w.network->IsCrashed(dir_host)) {
      w.network->RestartNode(dir_host);
    }
  });
  w.simulator.Run();

  // ---- End-state invariants ----
  EXPECT_TRUE(first_switch.ok()) << first_switch;
  EXPECT_TRUE(second_switch.ok()) << second_switch;
  dso::ReplicationObject* master = w.gos_a->FindReplica(oid);
  EXPECT_NE(master, nullptr);
  if (master == nullptr) {
    return {};
  }
  EXPECT_GE(client.stats().retries, 1u);  // the forced duplicate really went out

  // At-most-once across both rebuilds: acked writes are a floor (they
  // executed exactly once and the state snapshot carried them through every
  // incarnation), issued writes a ceiling (a duplicate delivery — whether
  // absorbed by the dedup table or refused by a tombstone — never lands
  // twice). The post-migration sync write proves the rebound address serves.
  Bytes final_state = master->semantics()->GetState();
  std::map<std::string, uint64_t> state = ParseCounterState(final_state);
  for (const auto& [key, value] : state) {
    EXPECT_LE(value, issued[key]) << key << ": a write executed more than once";
  }
  for (const auto& [key, value] : acked) {
    EXPECT_GE(state.count(key) > 0 ? state.at(key) : 0, value)
        << key << ": an acknowledged write was dropped by a migration";
  }
  EXPECT_EQ(state.count("sync") > 0 ? state.at("sync") : 0, 1u);
  EXPECT_EQ(w.gos_a->stats().protocol_switches, 2u);
  EXPECT_EQ(w.gos_a->stats().tombstones, 2u);

  MigrationSummary summary;
  summary.executed_events = w.simulator.executed_events();
  summary.state_hash = Sha256::HexDigest(final_state);
  summary.protocol_switches = w.gos_a->stats().protocol_switches;
  summary.tombstones = w.gos_a->stats().tombstones;
  summary.total_messages = w.network->stats().TotalMessages();
  summary.dropped = w.network->stats().dropped_messages;
  summary.partitioned = w.network->stats().partitioned_messages;
  summary.acked_writes = acked_writes;
  return summary;
}

class ChaosMigrationSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosMigrationSweepTest, LiveMigrationKeepsAckedWritesAndReplaysIdentically) {
  MigrationSummary first = RunMigrationScenario(GetParam());
  EXPECT_GT(first.acked_writes, 0u);
  EXPECT_EQ(first.protocol_switches, 2u);
  EXPECT_EQ(first.tombstones, 2u);
  EXPECT_GT(first.dropped + first.partitioned, 0u);
  // Determinism: the same seed replays the identical migration race — same
  // event count, same fault toll, same state bytes. (Endpoint port numbers are
  // process-wide monotonic, so they are the one thing two in-process runs
  // cannot share.)
  MigrationSummary second = RunMigrationScenario(GetParam());
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_TRUE(first == second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosMigrationSweepTest,
                         ::testing::ValuesIn(ChaosSeeds()));

// ------------------------------------------------------- master fail-over

// ChaosWorld with the GOS fail-over machinery switched on. The lease timers
// keep the simulator queue non-empty, so everything here drives virtual time
// with RunUntil instead of draining with Run().
struct FailoverWorld {
  explicit FailoverWorld(uint64_t seed, bool quorum = false)
      : world(sim::BuildUniformWorld({2, 2}, 2)) {
    sim::NetworkOptions network_options;
    network_options.rng_seed = seed;
    network = std::make_unique<sim::Network>(&simulator, &world.topology,
                                             network_options);
    transport = std::make_unique<sim::PlainTransport>(network.get());
    gls::GlsDeploymentOptions deployment_options;
    deployment_options.node_options.enable_cache = true;
    deployment_options.rng_seed = seed;
    deployment = std::make_unique<gls::GlsDeployment>(
        transport.get(), &world.topology, nullptr, deployment_options);
    repository.RegisterSemantics(std::make_unique<CounterObject>());
    gos::GosOptions gos_options;
    gos_options.enable_failover = true;
    gos_options.failover_quorum = quorum;
    gos_a = std::make_unique<gos::ObjectServer>(
        transport.get(), world.hosts[0], &repository,
        deployment->LeafDirectoryFor(world.hosts[0]), nullptr, gos_options);
    gos_b = std::make_unique<gos::ObjectServer>(
        transport.get(), world.hosts[6], &repository,
        deployment->LeafDirectoryFor(world.hosts[6]), nullptr, gos_options);
    gos_c = std::make_unique<gos::ObjectServer>(
        transport.get(), world.hosts[2], &repository,
        deployment->LeafDirectoryFor(world.hosts[2]), nullptr, gos_options);
  }

  void RunFor(SimTime duration) { simulator.RunUntil(simulator.Now() + duration); }

  std::pair<ObjectId, gls::ContactAddress> CreateMaster(
      gls::ProtocolId protocol = dso::kProtoMasterSlave) {
    ObjectId oid;
    gls::ContactAddress address;
    Status status = Unavailable("pending");
    gos_a->CreateFirstReplica(
        protocol, CounterObject::kTypeId,
        [&](Result<std::pair<ObjectId, gls::ContactAddress>> r) {
          if (r.ok()) {
            oid = r->first;
            address = r->second;
            status = OkStatus();
          } else {
            status = r.status();
          }
        });
    RunFor(10 * kSecond);
    EXPECT_TRUE(status.ok()) << status;
    return {oid, address};
  }

  gls::ContactAddress CreateSlave(gos::ObjectServer* gos, const ObjectId& oid) {
    gls::ContactAddress address;
    Status status = Unavailable("pending");
    gos->CreateReplica(oid, CounterObject::kTypeId, gls::ReplicaRole::kSlave,
                       [&](Result<std::pair<ObjectId, gls::ContactAddress>> r) {
                         if (r.ok()) {
                           address = r->second;
                           status = OkStatus();
                         } else {
                           status = r.status();
                         }
                       });
    RunFor(10 * kSecond);
    EXPECT_TRUE(status.ok()) << status;
    return address;
  }

  // The root home subnode arbitrating `oid` (where the OwnerRecord lives).
  const gls::DirectorySubnode* RootArbiter(const ObjectId& oid) {
    const gls::DirectorySubnode* root = nullptr;
    for (const auto& subnode : deployment->subnodes()) {
      if (subnode->depth() == 0 && subnode->OwnerEpoch(oid) > 0) {
        root = subnode.get();
      }
    }
    return root;
  }

  sim::Simulator simulator;
  sim::UniformWorld world;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<sim::PlainTransport> transport;
  std::unique_ptr<gls::GlsDeployment> deployment;
  dso::ImplementationRepository repository;
  std::unique_ptr<gos::ObjectServer> gos_a, gos_b, gos_c;
};

// The headline scenario: the master crashes mid-push. The slave detects the
// missed lease renewals, wins gls.claim_master for epoch 2, re-registers as
// the master-role contact address, and serves writes — with every previously
// acknowledged write intact (the acked-write floor).
TEST(ChaosFailoverTest, MasterCrashMidPushElectsSlaveWithoutLosingAckedWrites) {
  FailoverWorld w(0xFA11);
  auto [oid, master_address] = w.CreateMaster();
  gls::ContactAddress slave_address = w.CreateSlave(w.gos_b.get(), oid);
  NodeId master_host = master_address.endpoint.node;
  sim::Channel client(w.transport.get(), w.world.hosts[3]);

  // An acknowledged write: pushed to the slave before the master acks, so it
  // must survive the fail-over no matter what.
  Result<Bytes> acked = Unavailable("pending");
  dso::kDsoInvoke.Call(&client, master_address.endpoint, CounterAdd("k", 5),
                       [&](Result<Bytes> r) { acked = std::move(r); },
                       sim::WriteCallOptions());
  w.RunFor(5 * kSecond);
  ASSERT_TRUE(acked.ok()) << acked.status();

  // Mid-push crash: issue a write and power the master off while it is in
  // flight. Whether the push reached the slave is irrelevant — the master died
  // before acknowledging, so the write is outside the floor.
  SimTime crash_at = w.simulator.Now() + 50 * kMillisecond;
  dso::kDsoInvoke.Call(&client, master_address.endpoint, CounterAdd("mid", 3),
                       [](Result<Bytes>) {}, sim::WriteCallOptions());
  w.simulator.ScheduleAt(crash_at, [&w, master_host = master_host] {
    w.network->CrashNode(master_host);
  });

  // Election: the slave misses renewals, claims, and wins epoch 2.
  w.RunFor(20 * kSecond);
  dso::ReplicationObject* new_master = w.gos_b->FindReplica(oid);
  ASSERT_NE(new_master, nullptr);
  EXPECT_EQ(new_master->contact_address()->role, gls::ReplicaRole::kMaster);
  EXPECT_EQ(new_master->epoch(), 2u);
  ASSERT_NE(new_master->group(), nullptr);
  EXPECT_EQ(new_master->group()->stats().claims_won, 1u);
  // Time to new master: bounded by lease timeout + watch cadence + one claim
  // round trip (plus one spurious-rejection cycle at worst).
  EXPECT_LE(new_master->group()->stats().elected_at,
            crash_at + 15 * kSecond);

  // The arbiter granted exactly one takeover: epoch 2, held by the old slave.
  const gls::DirectorySubnode* arbiter = w.RootArbiter(oid);
  ASSERT_NE(arbiter, nullptr);
  EXPECT_EQ(arbiter->OwnerEpoch(oid), 2u);

  // The GLS now serves a master-role contact address at the new master. (Ask
  // from the new master's continent: lookups resolve the nearest subtree, and
  // the crashed master's stale registration still sits in the other one until
  // it restarts or is decommissioned.)
  std::unique_ptr<gls::GlsClient> gls = w.deployment->MakeClient(w.world.hosts[7]);
  Result<gls::LookupResult> lookup = Unavailable("pending");
  gls->Lookup(oid, [&](Result<gls::LookupResult> r) { lookup = std::move(r); });
  w.RunFor(5 * kSecond);
  ASSERT_TRUE(lookup.ok()) << lookup.status();
  bool new_master_registered = false;
  for (const gls::ContactAddress& address : lookup->addresses) {
    if (address.endpoint == slave_address.endpoint) {
      EXPECT_EQ(address.role, gls::ReplicaRole::kMaster);
      new_master_registered = true;
    }
  }
  EXPECT_TRUE(new_master_registered);

  // The acked floor holds, the unacked mid-push write executed at most once,
  // and the new master serves writes.
  Result<Bytes> after = Unavailable("pending");
  dso::kDsoInvoke.Call(&client, slave_address.endpoint, CounterAdd("after", 2),
                       [&](Result<Bytes> r) { after = std::move(r); },
                       sim::WriteCallOptions());
  w.RunFor(5 * kSecond);
  ASSERT_TRUE(after.ok()) << after.status();
  std::map<std::string, uint64_t> state =
      ParseCounterState(new_master->semantics()->GetState());
  EXPECT_EQ(state.at("k"), 5u);
  EXPECT_EQ(state.at("after"), 2u);
  EXPECT_LE(state.count("mid") > 0 ? state.at("mid") : 0, 3u);
}

// A timed partition produces a stale master: the group elects a successor
// behind its back, and once the partition heals the old master's epoch-fenced
// traffic is refused, it demotes itself, adopts the winner and re-syncs.
TEST(ChaosFailoverTest, PartitionedStaleMasterIsEpochFencedAndDemotes) {
  FailoverWorld w(0x9A57);
  auto [oid, master_address] = w.CreateMaster();
  gls::ContactAddress slave_address = w.CreateSlave(w.gos_b.get(), oid);
  NodeId master_host = master_address.endpoint.node;
  NodeId slave_host = w.gos_b->host();
  NodeId client_host = w.world.hosts[3];
  sim::Channel client(w.transport.get(), client_host);

  std::map<std::string, uint64_t> issued;
  std::map<std::string, uint64_t> acked;
  auto write = [&](const std::string& key, uint64_t delta, sim::Endpoint target,
                   SimTime at) {
    issued[key] += delta;
    w.simulator.ScheduleAt(at, [&w, &client, &acked, key, delta, target] {
      sim::CallOptions options = sim::WriteCallOptions(2 * kSecond);
      dso::kDsoInvoke.Call(&client, target, CounterAdd(key, delta),
                           [&acked, key, delta](Result<Bytes> r) {
                             if (r.ok()) {
                               acked[key] += delta;
                             }
                           },
                           options);
    });
  };

  // Acked before the trouble starts.
  write("k", 5, master_address.endpoint, w.simulator.Now() + 100 * kMillisecond);
  w.RunFor(5 * kSecond);
  ASSERT_EQ(acked.at("k"), 5u);

  // Cut the master off from the slave, the client AND every directory host for
  // 20 s: it can neither renew its GLS lease nor reach its group.
  SimTime partition_start = w.simulator.Now();
  constexpr SimTime kPartition = 20 * kSecond;
  w.network->PartitionPair(master_host, slave_host, kPartition);
  w.network->PartitionPair(master_host, client_host, kPartition);
  for (const auto& subnode : w.deployment->subnodes()) {
    w.network->PartitionPair(master_host, subnode->host(), kPartition);
  }

  // A write aimed at the stale master during the partition cannot execute (the
  // client is cut off from it) — issued, never acked, never landed.
  write("during", 1, master_address.endpoint, partition_start + 8 * kSecond);
  // Writes keep flowing once the slave has been elected.
  write("elected", 4, slave_address.endpoint, partition_start + 15 * kSecond);

  // Shortly after the heal, a write still aimed at the old master: either its
  // push is epoch-fenced (write refused, master demotes) or the master already
  // demoted and forwards it to the new master (write acked).
  write("late", 2, master_address.endpoint,
        partition_start + kPartition + 100 * kMillisecond);

  w.RunFor(kPartition + 25 * kSecond);

  dso::ReplicationObject* old_master = w.gos_a->FindReplica(oid);
  dso::ReplicationObject* new_master = w.gos_b->FindReplica(oid);
  ASSERT_NE(old_master, nullptr);
  ASSERT_NE(new_master, nullptr);

  // The group re-elected behind the partition and fenced the stale master out:
  // the old master was refused under the new epoch at least once, demoted
  // itself exactly once, and both replicas agree on epoch 2 with the old
  // master now a slave of the new one.
  EXPECT_EQ(new_master->contact_address()->role, gls::ReplicaRole::kMaster);
  EXPECT_EQ(old_master->contact_address()->role, gls::ReplicaRole::kSlave);
  EXPECT_EQ(new_master->epoch(), 2u);
  EXPECT_EQ(old_master->epoch(), 2u);
  EXPECT_GE(new_master->group()->stats().stale_rejected, 1u);
  EXPECT_EQ(old_master->group()->stats().demotions, 1u);
  EXPECT_EQ(new_master->group()->stats().claims_won, 1u);

  // Converged: the demoted master re-registered and adopted the winner's
  // state; a final write through the NEW master reaches both.
  write("sync", 1, slave_address.endpoint, w.simulator.Now() + kSecond);
  w.RunFor(10 * kSecond);
  Bytes new_state = new_master->semantics()->GetState();
  Bytes old_state = old_master->semantics()->GetState();
  EXPECT_EQ(new_state, old_state);
  EXPECT_EQ(new_master->version(), old_master->version());

  // Acked floor and issued ceiling hold across the whole schedule.
  std::map<std::string, uint64_t> state = ParseCounterState(new_state);
  for (const auto& [key, value] : state) {
    EXPECT_LE(value, issued[key]) << key;
  }
  for (const auto& [key, value] : acked) {
    EXPECT_GE(state.count(key) > 0 ? state.at(key) : 0, value) << key;
  }
  EXPECT_EQ(state.count("during"), 0u);  // never reached the stale master
  EXPECT_EQ(state.at("sync"), 1u);
}

// -------------------------------------- fail-over under loss + determinism

struct FailoverSummary {
  uint64_t executed_events = 0;
  std::string state_hash;
  uint64_t winner_epoch = 0;
  int masters = 0;
  uint64_t claims_won_total = 0;
  size_t acked_writes = 0;

  bool operator==(const FailoverSummary&) const = default;
};

// Two slaves race a re-election through 10% per-link loss on every slave <->
// directory link: exactly one must win, the loser adopts it, and the healed
// group converges — byte-identically across replays of the same seed.
FailoverSummary RunFailoverScenario(uint64_t seed) {
  FailoverWorld w(seed);
  auto [oid, master_address] = w.CreateMaster();
  w.CreateSlave(w.gos_b.get(), oid);
  w.CreateSlave(w.gos_c.get(), oid);
  NodeId master_host = master_address.endpoint.node;
  sim::Channel client(w.transport.get(), w.world.hosts[3]);

  std::map<std::string, uint64_t> issued, acked;
  size_t acked_writes = 0;
  auto write = [&](const std::string& key, uint64_t delta, sim::Endpoint target,
                   SimTime at) {
    issued[key] += delta;
    w.simulator.ScheduleAt(at, [&w, &client, &acked, &acked_writes, key, delta,
                                target] {
      dso::kDsoInvoke.Call(&client, target, CounterAdd(key, delta),
                           [&acked, &acked_writes, key, delta](Result<Bytes> r) {
                             if (r.ok()) {
                               acked[key] += delta;
                               ++acked_writes;
                             }
                           },
                           sim::WriteCallOptions(2 * kSecond));
    });
  };

  for (int i = 0; i < 4; ++i) {
    std::string key{'k', static_cast<char>('0' + i)};
    write(key, i + 1, master_address.endpoint,
          w.simulator.Now() + (i + 1) * 300 * kMillisecond);
  }
  w.RunFor(5 * kSecond);

  // 10% loss on every slave <-> directory link, both directions: claims,
  // registrations and GLS re-registrations must retry through it.
  std::vector<NodeId> slave_hosts = {w.gos_b->host(), w.gos_c->host()};
  for (NodeId slave : slave_hosts) {
    for (const auto& subnode : w.deployment->subnodes()) {
      w.network->SetLinkDropProbability(slave, subnode->host(), 0.10);
      w.network->SetLinkDropProbability(subnode->host(), slave, 0.10);
    }
  }
  w.network->CrashNode(master_host);
  w.RunFor(30 * kSecond);

  dso::ReplicationObject* replica_b = w.gos_b->FindReplica(oid);
  dso::ReplicationObject* replica_c = w.gos_c->FindReplica(oid);
  EXPECT_NE(replica_b, nullptr);
  EXPECT_NE(replica_c, nullptr);
  if (replica_b == nullptr || replica_c == nullptr) {
    return {};
  }

  // Exactly one winner; the loser follows it.
  int masters = 0;
  dso::ReplicationObject* winner = nullptr;
  for (dso::ReplicationObject* replica : {replica_b, replica_c}) {
    if (replica->contact_address()->role == gls::ReplicaRole::kMaster) {
      ++masters;
      winner = replica;
    }
  }
  EXPECT_EQ(masters, 1);
  if (winner == nullptr) {
    return {};
  }
  uint64_t claims_won_total = replica_b->group()->stats().claims_won +
                              replica_c->group()->stats().claims_won;
  EXPECT_EQ(claims_won_total, 1u);

  // Heal the loss and push one final write through the winner: the group must
  // converge on identical state.
  for (NodeId slave : slave_hosts) {
    for (const auto& subnode : w.deployment->subnodes()) {
      w.network->ClearLinkDropProbability(slave, subnode->host());
      w.network->ClearLinkDropProbability(subnode->host(), slave);
    }
  }
  write("sync", 1, winner->contact_address()->endpoint,
        w.simulator.Now() + kSecond);
  w.RunFor(15 * kSecond);

  Bytes state_b = replica_b->semantics()->GetState();
  Bytes state_c = replica_c->semantics()->GetState();
  EXPECT_EQ(state_b, state_c);
  EXPECT_EQ(replica_b->version(), replica_c->version());

  std::map<std::string, uint64_t> state = ParseCounterState(state_b);
  for (const auto& [key, value] : state) {
    EXPECT_LE(value, issued[key]) << key;
  }
  for (const auto& [key, value] : acked) {
    EXPECT_GE(state.count(key) > 0 ? state.at(key) : 0, value) << key;
  }
  EXPECT_EQ(state.at("sync"), 1u);

  FailoverSummary summary;
  summary.executed_events = w.simulator.executed_events();
  summary.state_hash = Sha256::HexDigest(state_b) + Sha256::HexDigest(state_c);
  summary.winner_epoch = winner->epoch();
  summary.masters = masters;
  summary.claims_won_total = claims_won_total;
  summary.acked_writes = acked_writes;
  return summary;
}

class ChaosFailoverSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosFailoverSweepTest, ReElectionUnderLossConvergesAndReplaysIdentically) {
  FailoverSummary first = RunFailoverScenario(GetParam());
  EXPECT_EQ(first.masters, 1);
  EXPECT_GE(first.winner_epoch, 2u);
  EXPECT_GT(first.acked_writes, 0u);
  // Determinism: the same seed replays the identical election — same event
  // count, same winner, same converged state bytes.
  FailoverSummary second = RunFailoverScenario(GetParam());
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_TRUE(first == second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFailoverSweepTest,
                         ::testing::ValuesIn(ChaosSeeds()));

// ------------------------------------------------- quorum-acknowledged writes
//
// The three documented fail-over loss windows, each replayed under quorum mode
// (gos_options.failover_quorum): a write is acked only once a strict majority
// of the group durably holds it and its commit floor reached the GLS arbiter.
// Shared invariants: zero acked writes lost, a definitively refused write
// never resurfaces, and every scenario replays byte-identically per seed.

struct QuorumSummary {
  uint64_t executed_events = 0;
  std::string state_hash;
  uint64_t winner_epoch = 0;
  int masters = 0;
  uint64_t arbiter_floor = 0;
  size_t acked_writes = 0;
  uint64_t quorum_commits = 0;
  uint64_t quorum_refusals = 0;
  uint64_t total_messages = 0;

  bool operator==(const QuorumSummary&) const = default;
};

// Helper state shared by the quorum scenarios: seed-pinned writes with
// acked-floor / issued-ceiling accounting.
struct QuorumHarness {
  explicit QuorumHarness(FailoverWorld* w)
      : world(w), client(w->transport.get(), w->world.hosts[3]) {}

  void WriteAt(SimTime at, const std::string& key, uint64_t delta,
               sim::Endpoint target, SimTime deadline = 10 * kSecond) {
    issued[key] += delta;
    world->simulator.ScheduleAt(at, [this, key, delta, target, deadline] {
      dso::kDsoInvoke.Call(&client, target, CounterAdd(key, delta),
                           [this, key, delta](Result<Bytes> r) {
                             if (r.ok()) {
                               acked[key] += delta;
                               ++acked_writes;
                             } else {
                               ++refused_writes;
                             }
                           },
                           sim::WriteCallOptions(deadline));
    });
  }

  // The elected master among the given replicas (nullptr unless exactly one).
  static dso::ReplicationObject* WinnerOf(
      std::vector<dso::ReplicationObject*> replicas, int* masters) {
    *masters = 0;
    dso::ReplicationObject* winner = nullptr;
    for (dso::ReplicationObject* replica : replicas) {
      if (replica != nullptr &&
          replica->contact_address()->role == gls::ReplicaRole::kMaster) {
        ++*masters;
        winner = replica;
      }
    }
    return *masters == 1 ? winner : nullptr;
  }

  // Acked writes are a floor, issued writes a ceiling, on every counter.
  void CheckBounds(const std::map<std::string, uint64_t>& state) {
    for (const auto& [key, value] : state) {
      EXPECT_LE(value, issued[key]) << key << ": executed more than once";
    }
    for (const auto& [key, value] : acked) {
      EXPECT_GE(state.count(key) > 0 ? state.at(key) : 0, value)
          << key << ": an acknowledged write was lost";
    }
  }

  FailoverWorld* world;
  sim::Channel client;
  std::map<std::string, uint64_t> issued, acked;
  size_t acked_writes = 0;
  size_t refused_writes = 0;
};

// Loss window 1: the master crashes mid-commit — after executing a write and
// fanning it out, before (or while) publishing its commit floor. The write was
// never acked, so it may land (a majority staged it) or vanish (the pushes
// died with the master); what it must never do is cost an *acked* write. The
// elected slave resumes at exactly the arbiter's floor.
QuorumSummary RunQuorumCrashScenario(uint64_t seed) {
  FailoverWorld w(seed, /*quorum=*/true);
  auto [oid, master_address] = w.CreateMaster();
  w.CreateSlave(w.gos_b.get(), oid);
  w.CreateSlave(w.gos_c.get(), oid);
  QuorumHarness h(&w);

  // Quorum-acked: 2-of-3 held it and the floor reached the arbiter before the
  // client saw the ack. This write must survive anything that follows.
  h.WriteAt(w.simulator.Now() + 100 * kMillisecond, "k", 5,
            master_address.endpoint);
  w.RunFor(5 * kSecond);
  EXPECT_EQ(h.acked["k"], 5u);

  // Mid-commit crash: the write is in its fan-out/floor-publication window
  // when the master's host powers off.
  h.WriteAt(w.simulator.Now(), "mid", 3, master_address.endpoint, 2 * kSecond);
  w.simulator.ScheduleAt(w.simulator.Now() + 50 * kMillisecond,
                         [&w, host = master_address.endpoint.node] {
                           w.network->CrashNode(host);
                         });
  w.RunFor(25 * kSecond);

  dso::ReplicationObject* replica_b = w.gos_b->FindReplica(oid);
  dso::ReplicationObject* replica_c = w.gos_c->FindReplica(oid);
  EXPECT_NE(replica_b, nullptr);
  EXPECT_NE(replica_c, nullptr);
  if (replica_b == nullptr || replica_c == nullptr) {
    return {};
  }
  int masters = 0;
  dso::ReplicationObject* winner =
      QuorumHarness::WinnerOf({replica_b, replica_c}, &masters);
  EXPECT_EQ(masters, 1);
  if (winner == nullptr) {
    return {};
  }
  EXPECT_EQ(winner->epoch(), 2u);

  // The new master serves quorum writes (itself + the surviving slave).
  h.WriteAt(w.simulator.Now() + kSecond, "after", 2,
            winner->contact_address()->endpoint);
  w.RunFor(10 * kSecond);
  EXPECT_EQ(h.acked["after"], 2u);

  // Converged survivors, acked floor intact, unacked mid-commit write at most
  // once, and the arbiter's floor names the new master's committed version.
  Bytes state_b = replica_b->semantics()->GetState();
  Bytes state_c = replica_c->semantics()->GetState();
  EXPECT_EQ(state_b, state_c);
  EXPECT_EQ(replica_b->version(), replica_c->version());
  std::map<std::string, uint64_t> state = ParseCounterState(state_b);
  h.CheckBounds(state);
  EXPECT_EQ(state.at("k"), 5u);
  EXPECT_EQ(state.at("after"), 2u);
  const gls::DirectorySubnode* arbiter = w.RootArbiter(oid);
  EXPECT_NE(arbiter, nullptr);
  uint64_t arbiter_floor = arbiter != nullptr ? arbiter->OwnerVersionFloor(oid) : 0;
  EXPECT_EQ(arbiter_floor, winner->group()->committed_version());
  EXPECT_EQ(winner->version(), winner->group()->committed_version());

  QuorumSummary summary;
  summary.executed_events = w.simulator.executed_events();
  summary.state_hash = Sha256::HexDigest(state_b) + Sha256::HexDigest(state_c);
  summary.winner_epoch = winner->epoch();
  summary.masters = masters;
  summary.arbiter_floor = arbiter_floor;
  summary.acked_writes = h.acked_writes;
  summary.quorum_commits = winner->group()->stats().quorum_commits;
  summary.quorum_refusals = winner->group()->stats().quorum_refusals;
  summary.total_messages = w.network->stats().TotalMessages();
  return summary;
}

class ChaosQuorumCrashTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosQuorumCrashTest, MasterCrashMidCommitLosesNoAckedWriteAndReplays) {
  QuorumSummary first = RunQuorumCrashScenario(GetParam());
  EXPECT_EQ(first.masters, 1);
  EXPECT_EQ(first.winner_epoch, 2u);
  EXPECT_GE(first.acked_writes, 2u);
  QuorumSummary second = RunQuorumCrashScenario(GetParam());
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_TRUE(first == second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosQuorumCrashTest,
                         ::testing::ValuesIn(ChaosSeeds()));

// Loss window 2: the master is partitioned from every member (and the
// directory) while a client it can still reach keeps writing. Lease-only mode
// would execute those writes locally and ack them — then lose them all to the
// election happening behind the partition. Quorum mode refuses the burst: the
// first write rolls back when its fan-out cannot assemble a majority, the
// rest are refused up front, and nothing the isolated master did survives.
// Both primary-backup protocols run it: they share one write pipeline, fed
// with state pushes (master/slave) or ordered invocations (active).
QuorumSummary RunQuorumIsolationScenario(gls::ProtocolId protocol, uint64_t seed) {
  FailoverWorld w(seed, /*quorum=*/true);
  auto [oid, master_address] = w.CreateMaster(protocol);
  w.CreateSlave(w.gos_b.get(), oid);
  w.CreateSlave(w.gos_c.get(), oid);
  QuorumHarness h(&w);
  NodeId master_host = master_address.endpoint.node;

  h.WriteAt(w.simulator.Now() + 100 * kMillisecond, "k", 5,
            master_address.endpoint);
  w.RunFor(5 * kSecond);
  EXPECT_EQ(h.acked["k"], 5u);

  // Isolate the master from both slaves and every directory host for 30 s —
  // the client's link stays up, so its writes really reach the master.
  SimTime t0 = w.simulator.Now();
  constexpr SimTime kIsolation = 30 * kSecond;
  w.network->PartitionPair(master_host, w.gos_b->host(), kIsolation);
  w.network->PartitionPair(master_host, w.gos_c->host(), kIsolation);
  for (const auto& subnode : w.deployment->subnodes()) {
    w.network->PartitionPair(master_host, subnode->host(), kIsolation);
  }

  // The write burst during isolation. The first write executes and rolls back
  // (its fan-out dies at the partition); once the unreachable members are
  // evicted the remaining writes are refused instantly, nothing applied.
  h.WriteAt(t0 + 1 * kSecond, "iso0", 1, master_address.endpoint);
  h.WriteAt(t0 + 8 * kSecond, "iso1", 1, master_address.endpoint);
  h.WriteAt(t0 + 10 * kSecond, "iso2", 1, master_address.endpoint);

  w.RunFor(kIsolation + 20 * kSecond);

  dso::ReplicationObject* old_master = w.gos_a->FindReplica(oid);
  dso::ReplicationObject* replica_b = w.gos_b->FindReplica(oid);
  dso::ReplicationObject* replica_c = w.gos_c->FindReplica(oid);
  EXPECT_NE(old_master, nullptr);
  EXPECT_NE(replica_b, nullptr);
  EXPECT_NE(replica_c, nullptr);
  if (old_master == nullptr || replica_b == nullptr || replica_c == nullptr) {
    return {};
  }

  // Zero acked writes during isolation; every burst write got a definitive
  // refusal; at least one rolled back after executing.
  EXPECT_EQ(h.acked.count("iso0") + h.acked.count("iso1") + h.acked.count("iso2"),
            0u);
  EXPECT_EQ(h.refused_writes, 3u);
  EXPECT_GE(old_master->group()->stats().quorum_refusals, 3u);
  EXPECT_EQ(old_master->group()->stats().quorum_commits, 1u);  // just "k"

  // The group elected a new master behind the partition; the healed old
  // master was fenced, demoted exactly once, and follows the winner.
  int masters = 0;
  dso::ReplicationObject* winner =
      QuorumHarness::WinnerOf({old_master, replica_b, replica_c}, &masters);
  EXPECT_EQ(masters, 1);
  if (winner == nullptr) {
    return {};
  }
  EXPECT_NE(winner, old_master);
  EXPECT_EQ(old_master->contact_address()->role, gls::ReplicaRole::kSlave);
  EXPECT_EQ(old_master->group()->stats().demotions, 1u);
  EXPECT_EQ(winner->epoch(), 2u);

  // Convergence sweep: one quorum write through the winner reaches everyone.
  h.WriteAt(w.simulator.Now() + kSecond, "sync", 1,
            winner->contact_address()->endpoint);
  w.RunFor(15 * kSecond);
  EXPECT_EQ(h.acked["sync"], 1u);

  Bytes state_a = old_master->semantics()->GetState();
  Bytes state_b = replica_b->semantics()->GetState();
  Bytes state_c = replica_c->semantics()->GetState();
  EXPECT_EQ(state_b, state_c);
  EXPECT_EQ(state_a, state_b);
  std::map<std::string, uint64_t> state = ParseCounterState(state_b);
  h.CheckBounds(state);
  // "Nothing was applied": the refused burst left no trace anywhere — not even
  // on the master that executed (and rolled back) the first burst write.
  EXPECT_EQ(state.count("iso0"), 0u);
  EXPECT_EQ(state.count("iso1"), 0u);
  EXPECT_EQ(state.count("iso2"), 0u);
  EXPECT_EQ(state.at("k"), 5u);
  EXPECT_EQ(state.at("sync"), 1u);

  const gls::DirectorySubnode* arbiter = w.RootArbiter(oid);
  EXPECT_NE(arbiter, nullptr);
  QuorumSummary summary;
  summary.executed_events = w.simulator.executed_events();
  summary.state_hash = Sha256::HexDigest(state_a) + Sha256::HexDigest(state_b) +
                       Sha256::HexDigest(state_c);
  summary.winner_epoch = winner->epoch();
  summary.masters = masters;
  summary.arbiter_floor = arbiter != nullptr ? arbiter->OwnerVersionFloor(oid) : 0;
  summary.acked_writes = h.acked_writes;
  summary.quorum_commits = old_master->group()->stats().quorum_commits;
  summary.quorum_refusals = old_master->group()->stats().quorum_refusals;
  summary.total_messages = w.network->stats().TotalMessages();
  return summary;
}

// Test-name suffix for a primary-backup protocol parameter.
std::string PrimaryBackupName(gls::ProtocolId protocol) {
  return protocol == dso::kProtoMasterSlave ? "MasterSlave" : "Active";
}

class ChaosQuorumIsolationTest
    : public ::testing::TestWithParam<std::tuple<gls::ProtocolId, uint64_t>> {};

TEST_P(ChaosQuorumIsolationTest, IsolatedMasterRefusesWritesAndReplays) {
  auto [protocol, seed] = GetParam();
  QuorumSummary first = RunQuorumIsolationScenario(protocol, seed);
  EXPECT_EQ(first.masters, 1);
  EXPECT_EQ(first.winner_epoch, 2u);
  QuorumSummary second = RunQuorumIsolationScenario(protocol, seed);
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_TRUE(first == second);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosQuorumIsolationTest,
    ::testing::Combine(::testing::Values(dso::kProtoMasterSlave, dso::kProtoActiveRepl),
                       ::testing::ValuesIn(ChaosSeeds())),
    [](const ::testing::TestParamInfo<std::tuple<gls::ProtocolId, uint64_t>>& info) {
      return PrimaryBackupName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// A member that registers while a quorum write is in flight must adopt the
// pre-write snapshot: the write may yet roll back, and a joiner that adopted
// it would hold a refused write. Here the write's push to the only other
// member stalls behind a partition, the third replica joins mid-round, and the
// round then fails and rolls back.
class ChaosQuorumJoinTest : public ::testing::TestWithParam<gls::ProtocolId> {};

TEST_P(ChaosQuorumJoinTest, MemberJoiningMidRoundGetsPreWriteSnapshot) {
  FailoverWorld w(0x501E, /*quorum=*/true);
  auto [oid, master_address] = w.CreateMaster(GetParam());
  w.CreateSlave(w.gos_b.get(), oid);
  QuorumHarness h(&w);
  h.WriteAt(w.simulator.Now() + 100 * kMillisecond, "k", 5, master_address.endpoint);
  w.RunFor(5 * kSecond);
  ASSERT_EQ(h.acked["k"], 5u);
  dso::ReplicationObject* master = w.gos_a->FindReplica(oid);
  ASSERT_NE(master, nullptr);
  uint64_t pre_write_version = master->version();

  // Stall the next write's round: its push to the only member cannot land.
  SimTime t0 = w.simulator.Now();
  w.network->PartitionPair(master_address.endpoint.node, w.gos_b->host(),
                           30 * kSecond);
  h.WriteAt(t0 + 100 * kMillisecond, "lost", 1, master_address.endpoint);
  Status joined = Unavailable("pending");
  w.simulator.ScheduleAt(t0 + 500 * kMillisecond, [&] {
    w.gos_c->CreateReplica(oid, CounterObject::kTypeId, gls::ReplicaRole::kSlave,
                           [&](Result<std::pair<ObjectId, gls::ContactAddress>> r) {
                             joined = r.ok() ? OkStatus() : r.status();
                           });
  });
  w.RunFor(3 * kSecond);

  // The joiner is in, the write is still undecided, and the joiner holds the
  // state from before it.
  ASSERT_TRUE(joined.ok()) << joined;
  EXPECT_EQ(h.acked_writes + h.refused_writes, 1u);  // only "k" has answered
  EXPECT_EQ(master->version(), pre_write_version + 1);  // executed, in flight
  dso::ReplicationObject* joiner = w.gos_c->FindReplica(oid);
  ASSERT_NE(joiner, nullptr);
  EXPECT_EQ(joiner->version(), pre_write_version);
  std::map<std::string, uint64_t> joined_state =
      ParseCounterState(joiner->semantics()->GetState());
  EXPECT_EQ(joined_state.count("lost"), 0u);
  EXPECT_EQ(joined_state.at("k"), 5u);

  // The round fails (the member is evicted, one vote of three) and rolls back:
  // nothing holds the refused write, the joiner included.
  w.RunFor(20 * kSecond);
  EXPECT_EQ(h.acked.count("lost"), 0u);
  EXPECT_EQ(h.refused_writes, 1u);
  EXPECT_GE(master->group()->stats().quorum_refusals, 1u);
  EXPECT_EQ(ParseCounterState(master->semantics()->GetState()).count("lost"), 0u);
  EXPECT_EQ(ParseCounterState(joiner->semantics()->GetState()).count("lost"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChaosQuorumJoinTest,
                         ::testing::Values(dso::kProtoMasterSlave,
                                           dso::kProtoActiveRepl),
                         [](const ::testing::TestParamInfo<gls::ProtocolId>& info) {
                           return PrimaryBackupName(info.param);
                         });

// A write a member forwards to its primary must wait in the quorum queue like
// one sent there directly. Here it arrives while an earlier write's round is
// waiting on a commit-floor publication that cannot reach the directory. That
// round rolls back; the forwarded write must then be refused as well, never
// acked and then lost to the rollback.
class ChaosQuorumForwardTest : public ::testing::TestWithParam<gls::ProtocolId> {};

TEST_P(ChaosQuorumForwardTest, WriteForwardedMidRoundIsNeverAckedThenLost) {
  FailoverWorld w(0xF0D, /*quorum=*/true);
  auto [oid, master_address] = w.CreateMaster(GetParam());
  gls::ContactAddress member = w.CreateSlave(w.gos_b.get(), oid);
  QuorumHarness h(&w);
  h.WriteAt(w.simulator.Now() + 100 * kMillisecond, "k", 5, master_address.endpoint);
  w.RunFor(5 * kSecond);
  ASSERT_EQ(h.acked["k"], 5u);
  dso::ReplicationObject* master = w.gos_a->FindReplica(oid);
  ASSERT_NE(master, nullptr);
  uint64_t commits_before = master->group()->stats().quorum_commits;

  // Cut the primary off from every directory host but the member's: its next
  // round gathers both votes, then cannot publish the commit floor. Each
  // publication gives up only after the GLS retry budget (about 90 s); the
  // forwarded write, and the member's re-forwards of the client's retries,
  // each fail the same way in turn.
  SimTime t0 = w.simulator.Now();
  NodeId master_host = master_address.endpoint.node;
  for (const auto& subnode : w.deployment->subnodes()) {
    if (subnode->host() != member.endpoint.node && subnode->host() != master_host) {
      w.network->PartitionPair(master_host, subnode->host(), 600 * kSecond);
    }
  }
  h.WriteAt(t0 + 100 * kMillisecond, "direct", 1, master_address.endpoint,
            300 * kSecond);
  h.WriteAt(t0 + 300 * kMillisecond, "forwarded", 1, member.endpoint, 300 * kSecond);
  w.RunFor(450 * kSecond);

  // Both writes answered, neither acked, nothing committed, nothing applied.
  EXPECT_EQ(h.acked_writes, 1u);  // just "k"
  EXPECT_EQ(h.refused_writes, 2u);
  EXPECT_EQ(master->group()->stats().quorum_commits, commits_before);
  std::map<std::string, uint64_t> state =
      ParseCounterState(master->semantics()->GetState());
  h.CheckBounds(state);
  EXPECT_EQ(state.count("direct"), 0u);
  EXPECT_EQ(state.count("forwarded"), 0u);
  EXPECT_EQ(state.at("k"), 5u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChaosQuorumForwardTest,
                         ::testing::Values(dso::kProtoMasterSlave,
                                           dso::kProtoActiveRepl),
                         [](const ::testing::TestParamInfo<gls::ProtocolId>& info) {
                           return PrimaryBackupName(info.param);
                         });

// Loss window 3: partition healing with a divergent deposed master — on the
// active-replication protocol, so both quorum write paths face the chaos
// suite. The partitioned sequencer executes a write the group never saw
// (transient divergence), rolls it back when the quorum round fails, and is
// deposed behind the partition; the new sequencer meanwhile commits a write
// REUSING the same version slot. Healing must fence the deposed sequencer,
// converge all three members on the winner's history, and never resurrect the
// rolled-back write.
QuorumSummary RunQuorumDivergenceScenario(uint64_t seed) {
  FailoverWorld w(seed, /*quorum=*/true);
  auto [oid, master_address] = w.CreateMaster(dso::kProtoActiveRepl);
  w.CreateSlave(w.gos_b.get(), oid);
  w.CreateSlave(w.gos_c.get(), oid);
  QuorumHarness h(&w);
  NodeId master_host = master_address.endpoint.node;

  h.WriteAt(w.simulator.Now() + 100 * kMillisecond, "k", 5,
            master_address.endpoint);
  w.RunFor(5 * kSecond);
  EXPECT_EQ(h.acked["k"], 5u);

  // 20 s partition: sequencer cut off from both members and the directory.
  SimTime t0 = w.simulator.Now();
  constexpr SimTime kPartition = 20 * kSecond;
  w.network->PartitionPair(master_host, w.gos_b->host(), kPartition);
  w.network->PartitionPair(master_host, w.gos_c->host(), kPartition);
  for (const auto& subnode : w.deployment->subnodes()) {
    w.network->PartitionPair(master_host, subnode->host(), kPartition);
  }

  // The divergent write: executed locally at the stale sequencer, never seen
  // by the group, rolled back when its quorum round cannot assemble a
  // majority. Its version slot is up for grabs by the new sequencer.
  h.WriteAt(t0 + 500 * kMillisecond, "div", 7, master_address.endpoint);

  // Election behind the partition, then a committed write through the winner
  // — reusing the version slot the divergent write briefly occupied.
  w.RunFor(14 * kSecond);
  dso::ReplicationObject* replica_b = w.gos_b->FindReplica(oid);
  dso::ReplicationObject* replica_c = w.gos_c->FindReplica(oid);
  EXPECT_NE(replica_b, nullptr);
  EXPECT_NE(replica_c, nullptr);
  if (replica_b == nullptr || replica_c == nullptr) {
    return {};
  }
  int masters = 0;
  dso::ReplicationObject* winner =
      QuorumHarness::WinnerOf({replica_b, replica_c}, &masters);
  EXPECT_EQ(masters, 1);
  if (winner == nullptr) {
    return {};
  }
  h.WriteAt(w.simulator.Now() + kSecond, "win", 4,
            winner->contact_address()->endpoint);

  // Heal (the timed partitions lapse on their own) and let the deposed
  // sequencer discover the new epoch, demote and re-register.
  w.RunFor((t0 + kPartition - w.simulator.Now()) + 20 * kSecond);
  EXPECT_EQ(h.acked["win"], 4u);
  EXPECT_EQ(h.acked.count("div"), 0u);  // refused, definitively

  dso::ReplicationObject* old_master = w.gos_a->FindReplica(oid);
  EXPECT_NE(old_master, nullptr);
  if (old_master == nullptr) {
    return {};
  }
  EXPECT_EQ(old_master->contact_address()->role, gls::ReplicaRole::kSlave);
  EXPECT_EQ(old_master->group()->stats().demotions, 1u);
  EXPECT_GE(old_master->group()->stats().quorum_refusals, 1u);
  EXPECT_EQ(winner->epoch(), 2u);
  EXPECT_EQ(old_master->epoch(), 2u);

  // Convergence sweep through the winner.
  h.WriteAt(w.simulator.Now() + kSecond, "sync", 1,
            winner->contact_address()->endpoint);
  w.RunFor(15 * kSecond);
  EXPECT_EQ(h.acked["sync"], 1u);

  Bytes state_a = old_master->semantics()->GetState();
  Bytes state_b = replica_b->semantics()->GetState();
  Bytes state_c = replica_c->semantics()->GetState();
  EXPECT_EQ(state_b, state_c);
  EXPECT_EQ(state_a, state_b);
  EXPECT_EQ(old_master->version(), winner->version());
  std::map<std::string, uint64_t> state = ParseCounterState(state_b);
  h.CheckBounds(state);
  EXPECT_EQ(state.count("div"), 0u);  // the divergence never resurrects
  EXPECT_EQ(state.at("k"), 5u);
  EXPECT_EQ(state.at("win"), 4u);
  EXPECT_EQ(state.at("sync"), 1u);

  const gls::DirectorySubnode* arbiter = w.RootArbiter(oid);
  EXPECT_NE(arbiter, nullptr);
  uint64_t arbiter_floor = arbiter != nullptr ? arbiter->OwnerVersionFloor(oid) : 0;
  EXPECT_EQ(arbiter_floor, winner->group()->committed_version());

  QuorumSummary summary;
  summary.executed_events = w.simulator.executed_events();
  summary.state_hash = Sha256::HexDigest(state_a) + Sha256::HexDigest(state_b) +
                       Sha256::HexDigest(state_c);
  summary.winner_epoch = winner->epoch();
  summary.masters = masters;
  summary.arbiter_floor = arbiter_floor;
  summary.acked_writes = h.acked_writes;
  summary.quorum_commits = winner->group()->stats().quorum_commits;
  summary.quorum_refusals = old_master->group()->stats().quorum_refusals;
  summary.total_messages = w.network->stats().TotalMessages();
  return summary;
}

class ChaosQuorumDivergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosQuorumDivergenceTest, HealedDivergentDeposedMasterConvergesAndReplays) {
  QuorumSummary first = RunQuorumDivergenceScenario(GetParam());
  EXPECT_EQ(first.masters, 1);
  EXPECT_EQ(first.winner_epoch, 2u);
  QuorumSummary second = RunQuorumDivergenceScenario(GetParam());
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_TRUE(first == second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosQuorumDivergenceTest,
                         ::testing::ValuesIn(ChaosSeeds()));

// ----------------------------------------------------------- decommissioning

class ChaosDecommissionTest : public ::testing::TestWithParam<uint64_t> {};

// After a lossy decommission completes, no lookup — cached or not — may ever
// return the decommissioned server's address.
TEST_P(ChaosDecommissionTest, NoOidResolvesToADecommissionedAddress) {
  ChaosWorld w(GetParam());
  auto [oid, master_address] = w.CreateMaster();
  gls::ContactAddress slave_address = w.CreateSlave(oid);

  // Warm the directory caches with lookups from a third country, so a stale
  // cached answer containing the slave's address would survive if the delete
  // fan-out missed any subnode.
  NodeId user = w.world.hosts[5];
  std::unique_ptr<gls::GlsClient> client = w.deployment->MakeClient(user);
  client->set_allow_cached(true);
  for (int i = 0; i < 4; ++i) {
    Result<gls::LookupResult> warm = Unavailable("pending");
    client->Lookup(oid, [&](Result<gls::LookupResult> r) { warm = std::move(r); });
    w.simulator.Run();
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_FALSE(warm->addresses.empty());
  }

  // Decommission the slave's server over a lossy GLS path: the delete batch and
  // its invalidation chain must retry through 5% loss in both directions.
  const gls::DirectoryRef& slave_leaf =
      w.deployment->LeafDirectoryFor(w.gos_b->host());
  for (const sim::Endpoint& subnode : slave_leaf.subnodes) {
    w.network->SetLinkDropProbability(w.gos_b->host(), subnode.node, 0.05);
    w.network->SetLinkDropProbability(subnode.node, w.gos_b->host(), 0.05);
  }
  Status decommissioned = Unavailable("pending");
  w.gos_b->Decommission([&](Status s) { decommissioned = s; });
  w.simulator.Run();
  ASSERT_TRUE(decommissioned.ok()) << decommissioned;
  EXPECT_EQ(w.gos_b->num_replicas(), 0u);

  // Every post-decommission lookup — all cache-permitted — must resolve to the
  // master only, never to the decommissioned slave.
  for (int i = 0; i < 8; ++i) {
    Result<gls::LookupResult> lookup = Unavailable("pending");
    client->Lookup(oid, [&](Result<gls::LookupResult> r) { lookup = std::move(r); });
    w.simulator.Run();
    ASSERT_TRUE(lookup.ok()) << lookup.status();
    ASSERT_FALSE(lookup->addresses.empty());
    for (const gls::ContactAddress& address : lookup->addresses) {
      EXPECT_NE(address.endpoint, slave_address.endpoint)
          << "lookup " << i << " resolved to the decommissioned replica";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosDecommissionTest,
                         ::testing::ValuesIn(ChaosSeeds()));

}  // namespace
}  // namespace globe
