// update_mix: moderator updates beside Poisson downloads, on the paper's
// Figure-4 secure GDN (TLS-style channels plus role-based authorization).
//
// Setup publishes kPackages master/slave packages, each with slaves in three
// other continents, and warms every HTTPD's binding to every package. Every
// round forks from that state. One moderator updates packages in a closed
// loop (Zipf(1.0) over packages, exponential think time): each update is a
// ModeratorTool::AddFile of the package's data file with a new version.
// Beside it, an open loop of Poisson downloads from users in every country
// fetches data files through their nearest HTTPD; a quarter of the round's
// operations are updates. A user has one download in flight at a time (a
// download due at a busy user goes to the next idle one): two responses in
// flight on one secure channel can arrive out of order, and SecureTransport
// then drops the earlier one as a replay, a fault whose hits depend on the
// seed. For the same reason set-up binds one package per HTTPD at a time.
//
// Checks: every downloaded body is byte-equal to a version the benchmark
// wrote for that package, and no newer than the newest update issued; after
// the updates stop, every country's HTTPD serves the last acknowledged
// version of every package.

#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/gdn_common.h"
#include "perfbench/src/stats.h"
#include "src/gdn/package.h"

namespace perfbench {
namespace {

namespace gdn = globe::gdn;
namespace http = globe::http;
using globe::Result;
using globe::Status;

constexpr size_t kPackages = 48;
constexpr size_t kWritesPerRound = 50;
constexpr size_t kDownloadsPerRound = 3 * kWritesPerRound;
constexpr double kThinkMs = 100;
constexpr double kDownloadsPerSecond = 10;
constexpr size_t kCycle = 16;
constexpr size_t kWalkPairs = 4;
constexpr size_t kWalkBytes = 64 << 10;
constexpr char kFile[] = "data.bin";

class UpdateMix final : public Workload {
 public:
  void Setup(uint64_t seed) override;
  RoundResult RunRound(uint64_t round) override;
  bool fork_rounds() const override { return true; }
  bool deterministic() const override { return true; }
  size_t cycle() const override { return kCycle; }
  std::string engine() const override { return "sequential"; }

 private:
  std::string Tag(size_t package) const { return names_[package] + "/" + kFile; }
  const Bytes& Version(size_t package, uint64_t version);
  void Publish(const std::string& name, const Bytes& body, size_t master);
  void CheckFreshness(const std::vector<uint64_t>& acked);

  uint64_t seed_ = 0;
  std::unique_ptr<GdnWorld> world_;
  std::vector<std::string> names_;
  std::vector<sim::NodeId> first_user_;
  // Every version written so far, by (package, version).
  std::map<std::pair<size_t, uint64_t>, Bytes> versions_;
  struct WalkPair {
    std::string reference;
    Bytes reference_body;
    std::string walked;
  };
  std::vector<WalkPair> walk_;
};

const Bytes& UpdateMix::Version(size_t package, uint64_t version) {
  auto key = std::make_pair(package, version);
  auto it = versions_.find(key);
  if (it == versions_.end()) {
    // 4 KiB .. 64 KiB: every update is pushed to every replica, HTTPD
    // replicas included.
    Bytes body = Content(seed_, Tag(package), version, SizeOfRank(package, 16));
    it = versions_.emplace(key, std::move(body)).first;
  }
  return it->second;
}

void UpdateMix::Publish(const std::string& name, const Bytes& body, size_t master) {
  size_t countries = world_->num_countries();
  std::vector<size_t> slaves;
  for (size_t step = 1; step < 4; ++step) {
    slaves.push_back((master + 4 * step) % countries);
  }
  auto oid = world_->PublishPackage(name, {{kFile, body}}, globe::dso::kProtoMasterSlave,
                                    master, slaves);
  if (!oid.ok()) Fail("publish %s: %s", name.c_str(), oid.status().ToString().c_str());
}

void UpdateMix::Setup(uint64_t seed) {
  seed_ = seed;
  gdn::GdnWorldConfig config;
  config.fanouts = {4, 4, 2};  // continents are countries / 4
  config.user_hosts_per_site = 4;
  config.secure = true;
  config.seed = Mix(seed, "world");
  world_ = std::make_unique<GdnWorld>(config);
  first_user_ = FirstUserPerCountry(*world_);
  size_t countries = world_->num_countries();

  // Masters go round the countries by rank from a seed-drawn start.
  size_t first_master = Gen(Mix(seed, "masters")).Below(countries);
  for (size_t p = 0; p < kPackages; ++p) {
    names_.push_back("/mirror/m" + std::to_string(p));
    Publish(names_[p], Version(p, 1), (first_master + 5 * p) % countries);
  }
  for (size_t i = 0; i < kWalkPairs; ++i) {
    std::string base = "/probe/walk" + std::to_string(i);
    size_t master = (3 + 5 * i + countries / 2) % countries;
    WalkPair pair{base + "/ref", Content(0, base + "/ref", 1, kWalkBytes),
                  base + "/walk"};
    Publish(pair.reference, pair.reference_body, master);
    Publish(pair.walked, Content(0, pair.walked, 1, kWalkBytes), master);
    walk_.push_back(std::move(pair));
  }

  // Warm every HTTPD's binding to every package: one package at a time, all
  // HTTPDs at once (each pair is bound by exactly one download).
  std::vector<std::unique_ptr<gdn::Browser>> browsers;
  size_t warmed = 0;
  for (size_t p = 0; p < kPackages; ++p) {
    for (size_t c = 0; c < countries; ++c) {
      browsers.push_back(world_->MakeBrowser(first_user_[c]));
      browsers.back()->Fetch(world_->HttpdOf(c)->node(), FileTarget(names_[p], kFile),
                             [&, p](Result<http::HttpResponse> r) {
                               if (!r.ok() || r->body != Version(p, 1)) {
                                 Fail("warm-up download of %s failed: %s",
                                      names_[p].c_str(), Describe(r).c_str());
                               }
                               ++warmed;
                             });
    }
    world_->Run();
  }
  if (warmed != countries * kPackages) Fail("warm-up incomplete");
}

void UpdateMix::CheckFreshness(const std::vector<uint64_t>& acked) {
  size_t countries = world_->num_countries();
  for (size_t p = 0; p < kPackages; ++p) {
    if (acked[p] <= 1) continue;
    std::vector<std::unique_ptr<gdn::Browser>> browsers;
    for (size_t c = 0; c < countries; ++c) {
      browsers.push_back(world_->MakeBrowser(first_user_[c]));
      browsers.back()->Fetch(
          world_->HttpdOf(c)->node(), FileTarget(names_[p], kFile),
          [&, c, p](Result<http::HttpResponse> r) {
            if (!r.ok() || r->status_code != 200) {
              Fail("freshness download of %s in country %zu failed: %s",
                   names_[p].c_str(), c, Describe(r).c_str());
            }
            int64_t version = ContentVersion(r->body, Tag(p));
            if (version != static_cast<int64_t>(acked[p]) ||
                r->body != Version(p, acked[p])) {
              Fail("country %zu serves version %lld of %s after updates stopped; the "
                   "last acknowledged version is %llu",
                   c, static_cast<long long>(version), names_[p].c_str(),
                   static_cast<unsigned long long>(acked[p]));
            }
          });
    }
    world_->Run();
  }
}

RoundResult UpdateMix::RunRound(uint64_t round) {
  RoundResult result;
  result.digest = kDigestSeed;
  GdnWorld& world = *world_;
  sim::EventEngine& engine = world.simulator();
  const std::vector<sim::NodeId>& users = world.user_hosts();

  Gen gen(Mix(seed_, round % kCycle));
  Zipf zipf(kPackages, 1.0);
  struct Download {
    sim::SimTime due;
    size_t user;
    size_t package;
    sim::SimTime done = 0;
  };
  std::vector<Download> downloads(kDownloadsPerRound);
  double t = 0;
  for (Download& d : downloads) {
    t += gen.Exp(1e6 / kDownloadsPerSecond);
    d.due = static_cast<sim::SimTime>(t);
    d.user = gen.Below(users.size());
    d.package = zipf.Sample(&gen);
  }
  struct Write {
    size_t package;
    sim::SimTime think;
    sim::SimTime issued = 0;
    sim::SimTime done = 0;
  };
  std::vector<Write> writes(kWritesPerRound);
  for (Write& w : writes) {
    w.package = zipf.Sample(&gen);
    w.think = static_cast<sim::SimTime>(gen.Exp(kThinkMs * 1000));
  }
  // Versions: issued[p] is the newest written or in flight, acked[p] the
  // newest acknowledged. Every round starts from setup's version 1; writes
  // are serial, so acked versions only grow.
  std::vector<uint64_t> issued(kPackages, 1);
  std::vector<uint64_t> acked(kPackages, 1);
  // Pre-generate the bodies the updates will write, outside the timed phase.
  {
    std::vector<uint64_t> next = issued;
    for (const Write& w : writes) Version(w.package, ++next[w.package]);
  }

  std::vector<std::unique_ptr<gdn::Browser>> browsers(users.size());
  std::vector<bool> busy(users.size(), false);
  std::vector<HostScope> issue_cost(Trace().enabled() ? downloads.size() : 0);
  GdnCounters before = ReadCounters(world);
  uint64_t allocs0 = Allocations();
  double wall0 = WallSeconds();
  sim::SimTime t0 = engine.Now() + sim::kMillisecond;

  for (size_t i = 0; i < downloads.size(); ++i) {
    engine.ScheduleAt(t0 + downloads[i].due, [&, i] {
      Download& d = downloads[i];
      // One download per user at a time (see the top of this file).
      while (busy[d.user]) d.user = (d.user + 1) % users.size();
      busy[d.user] = true;
      auto& browser = browsers[d.user];
      if (browser == nullptr) browser = world.MakeBrowser(users[d.user]);
      HostScope host;
      browser->Fetch(
          world.NearestHttpd(users[d.user])->node(), FileTarget(names_[d.package], kFile),
          [&, i](Result<http::HttpResponse> r) {
            Download& d = downloads[i];
            if (!r.ok() || r->status_code != 200) {
              Fail("download of %s by user %zu failed: %s", names_[d.package].c_str(),
                   d.user, Describe(r).c_str());
            }
            int64_t version = ContentVersion(r->body, Tag(d.package));
            if (version < 1 || static_cast<uint64_t>(version) > issued[d.package] ||
                r->body != Version(d.package, static_cast<uint64_t>(version))) {
              Fail("download of %s returned bytes that were never written",
                   names_[d.package].c_str());
            }
            d.done = engine.Now();
            busy[d.user] = false;
          });
      host.Stop();
      if (!issue_cost.empty()) issue_cost[i] = host;
    });
  }

  // The moderator: one update at a time, think time between them.
  std::function<void(size_t)> write = [&](size_t i) {
    if (i == writes.size()) return;
    Write& w = writes[i];
    w.issued = engine.Now();
    uint64_t version = ++issued[w.package];
    world.moderator()->AddFile(
        names_[w.package], kFile, Version(w.package, version),
        [&, i, version](Status s) {
          Write& w = writes[i];
          if (!s.ok()) Fail("update of %s failed: %s", names_[w.package].c_str(),
                            s.ToString().c_str());
          w.done = engine.Now();
          acked[w.package] = version;
          if (i + 1 < writes.size()) {
            engine.ScheduleAfter(writes[i + 1].think, [&, i] { write(i + 1); });
          }
        });
  };
  engine.ScheduleAt(t0 + writes[0].think, [&] { write(0); });
  world.Run();

  result.host_s = WallSeconds() - wall0;
  result.allocs = Allocations() - allocs0;
  GdnCounters after = ReadCounters(world);

  std::vector<double> write_ms;
  for (const Download& d : downloads) {
    if (d.done == 0) Fail("a download never completed");
    result.latency_ms.push_back(VirtualMs(d.done - (t0 + d.due)));
    result.digest = Fold(result.digest, d.done - (t0 + d.due));
  }
  for (const Write& w : writes) {
    if (w.done == 0) Fail("an update never completed");
    result.latency_ms.push_back(VirtualMs(w.done - w.issued));
    write_ms.push_back(VirtualMs(w.done - w.issued));
    result.digest = Fold(result.digest, w.done - w.issued);
  }
  result.attempted = result.completed = downloads.size() + writes.size();
  result.net_bytes = static_cast<double>(after.bytes - before.bytes);
  result.digest = Fold(result.digest, after.bytes - before.bytes);
  result.digest = Fold(result.digest, after.events - before.events);

  if (Trace().enabled()) {
    for (size_t i = 0; i < downloads.size(); ++i) {
      Trace().Add({"download", "op", static_cast<double>(t0 + downloads[i].due),
                   static_cast<double>(downloads[i].done), issue_cost[i].cpu_us,
                   issue_cost[i].allocs, 1});
    }
    for (const Write& w : writes) {
      Trace().Add({"moderator.add_file", "op", static_cast<double>(w.issued),
                   static_cast<double>(w.done), 0, 0, 3});
    }
    AddCounterLayers(before, after, result.completed, result.host_s, &result.layer);
    result.layer["dso.write_ms_p50"] = *Median(write_ms);
  }

  CheckFreshness(acked);

  if (Trace().enabled()) {
    std::map<std::string, std::vector<double>> samples;
    size_t countries = world.num_countries();
    size_t index = round % kWalkPairs;
    size_t country = (5 * index + 3) % countries;
    const WalkPair& pair = walk_[index];
    LayerWalk(world, country, first_user_[country], pair.reference, pair.reference_body,
              pair.walked, kFile, &samples);
    AddSampleMedians(samples, &result.layer);
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeUpdateMix() { return std::make_unique<UpdateMix>(); }

}  // namespace perfbench
