// release_crowd: the paper's flash crowd (§1, §4, Fig. 3) on the "gdn-cache"
// deployment — cache/invalidate packages whose HTTPDs bind as cache replicas.
//
// Setup publishes kPackages fresh releases (one file each, 4 KiB .. 1 MiB,
// size fixed by popularity rank, masters spread over the countries). Every
// round forks from that state, so every round meets cold HTTPD caches: an
// open-loop Poisson crowd of users from every country picks packages by
// Zipf(1.0) popularity and downloads through its nearest HTTPD. Latency runs
// from when a download was due.
//
// Only the first download of a package through an HTTPD is sent while that
// HTTPD has no binding; downloads of the same package through the same HTTPD
// that fall due before that first one completes wait for it (their latency
// includes the wait). That is what a coalescing HTTPD would do itself: it
// keeps fault F2 (uncoalesced concurrent binds, whose damage depends on the
// seed) out of the crowd, so the crowd's failure count cannot vary with the
// seed. F2 and F1 are instead exercised by two fixed probes per round, whose
// inputs do not depend on the seed:
//   - F2 probe: two downloads of one cold package through one HTTPD, 1 ms
//     apart. The second bind's completion replaces the first representative
//     mid-invoke; that request never answers and times out.
//   - F1 probe: a download on port p is in flight when 25,535 further
//     ephemeral ports have been handed out, so the next download on the same
//     host is given p again. It takes over p: it receives the first
//     download's response and unregisters p, and the first download times
//     out.

#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/gdn_common.h"
#include "src/gdn/package.h"
#include "src/sim/transport.h"

namespace perfbench {
namespace {

namespace gdn = globe::gdn;
namespace http = globe::http;
using globe::Result;

constexpr size_t kPackages = 160;
constexpr size_t kDownloadsPerRound = 800;
constexpr double kArrivalsPerSecond = 40;
constexpr size_t kCycle = 12;
constexpr size_t kWalkPairs = 8;
constexpr size_t kWalksPerRound = 1;
constexpr size_t kWalkBytes = 256 << 10;
constexpr size_t kF1Country = 3;
constexpr size_t kF2Country = 15;
// Ports between a Browser's port and the same port coming round again.
constexpr uint32_t kEphemeralRange = 65536 - sim::kPortClientBase;

class ReleaseCrowd final : public Workload {
 public:
  void Setup(uint64_t seed) override;
  RoundResult RunRound(uint64_t round) override;
  bool fork_rounds() const override { return true; }
  bool deterministic() const override { return true; }
  size_t cycle() const override { return kCycle; }
  std::string engine() const override { return "sequential"; }

 private:
  struct Package {
    std::string name;
    Bytes body;
  };

  Package Publish(const std::string& name, std::map<std::string, Bytes> files,
                  size_t master);
  void ProbeF2(RoundResult* result);
  void ProbeF1(RoundResult* result);

  uint64_t seed_ = 0;
  std::unique_ptr<GdnWorld> world_;
  std::vector<Package> packages_;  // index = popularity rank
  std::vector<sim::NodeId> first_user_;
  std::string f1_package_;
  Bytes f1_a_, f1_b_;
  Package f2_;
  std::vector<std::pair<Package, Package>> walk_;  // (reference, walked)
};

ReleaseCrowd::Package ReleaseCrowd::Publish(const std::string& name,
                                            std::map<std::string, Bytes> files,
                                            size_t master) {
  auto oid = world_->PublishPackage(name, files, globe::dso::kProtoCacheInval, master);
  if (!oid.ok()) Fail("publish %s: %s", name.c_str(), oid.status().ToString().c_str());
  return {name, files.begin()->second};
}

void ReleaseCrowd::Setup(uint64_t seed) {
  seed_ = seed;
  gdn::GdnWorldConfig config;
  config.fanouts = {4, 4, 2};  // 4 continents x 4 countries x 2 sites
  config.user_hosts_per_site = 4;
  config.seed = Mix(seed, "world");
  world_ = std::make_unique<GdnWorld>(config);
  first_user_ = FirstUserPerCountry(*world_);
  size_t countries = world_->num_countries();

  // Masters go round the countries by rank from a seed-drawn start, so every
  // seed spreads popular packages evenly over the world.
  size_t first_master = Gen(Mix(seed, "masters")).Below(countries);
  for (size_t k = 0; k < kPackages; ++k) {
    std::string name = "/releases/r" + std::to_string(k) + "/dist";
    Bytes body = Content(seed, name, 1, SizeOfRank(k, 256));  // 4 KiB .. 1 MiB
    size_t master = (first_master + 5 * k) % countries;
    packages_.push_back(Publish(name, {{"dist.tar", std::move(body)}}, master));
  }

  f1_package_ = "/probe/f1";
  f1_a_ = Content(0, "/probe/f1/a", 1, 16 << 10);
  f1_b_ = Content(0, "/probe/f1/b", 1, 16 << 10);
  Publish(f1_package_, {{"a", f1_a_}, {"b", f1_b_}}, 0);
  // Warm the F1 probe's HTTPD so the probe's two downloads never bind.
  auto warm = world_->DownloadFile(first_user_[kF1Country], f1_package_, "a");
  if (!warm.ok() || *warm != f1_a_) Fail("F1 probe warm-up download failed");

  f2_ = Publish("/probe/f2", {{"dist.tar", Content(0, "/probe/f2", 1, 64 << 10)}}, 0);

  for (size_t i = 0; i < kWalkPairs; ++i) {
    size_t master = (3 + 5 * i + countries / 2) % countries;
    std::string base = "/probe/walk" + std::to_string(i);
    Package reference =
        Publish(base + "/ref", {{"dist.tar", Content(0, base + "/ref", 1, kWalkBytes)}},
                master);
    Package walked =
        Publish(base + "/walk", {{"dist.tar", Content(0, base + "/walk", 1, kWalkBytes)}},
                master);
    walk_.emplace_back(std::move(reference), std::move(walked));
  }
  world_->Run();
}

void ReleaseCrowd::ProbeF2(RoundResult* result) {
  gdn::GdnHttpd* httpd = world_->HttpdOf(kF2Country);
  sim::NodeId user = first_user_[kF2Country];
  uint64_t binds_before = httpd->stats().binds;
  auto first = world_->MakeBrowser(user);
  auto second = world_->MakeBrowser(user);
  sim::SimTime due = world_->simulator().Now();
  struct Outcome {
    bool done = false;
    bool ok = false;
    sim::SimTime at = 0;
  };
  Outcome outcomes[2];
  auto fetch = [&](gdn::Browser* browser, Outcome* out) {
    browser->Fetch(httpd->node(), FileTarget(f2_.name, "dist.tar"),
                   [this, out](Result<http::HttpResponse> r) {
                     out->done = true;
                     out->at = world_->simulator().Now();
                     out->ok = r.ok() && r->status_code == 200 && r->body == f2_.body;
                   });
  };
  fetch(first.get(), &outcomes[0]);
  world_->simulator().ScheduleAt(due + sim::kMillisecond,
                                 [&] { fetch(second.get(), &outcomes[1]); });
  world_->Run();
  uint64_t binds = httpd->stats().binds - binds_before;
  for (size_t i = 0; i < 2; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.done) Fail("F2 probe download %zu never finished", i);
    sim::SimTime start = due + i * sim::kMillisecond;
    result->latency_ms.push_back(VirtualMs(o.at - start));
    ++result->attempted;
    result->digest = Fold(result->digest, o.at);
    Trace().Add({"probe.f2", "op", static_cast<double>(start), static_cast<double>(o.at),
                 0, 0, 1});
    if (o.ok) {
      ++result->completed;
    } else if (binds == 2) {
      ++result->failed_f2;  // a duplicate bind replaced this request's proxy
    } else {
      Fail("F2 probe download %zu failed without a duplicate bind (%llu binds)", i,
           static_cast<unsigned long long>(binds));
    }
  }
}

void ReleaseCrowd::ProbeF1(RoundResult* result) {
  gdn::GdnHttpd* httpd = world_->HttpdOf(kF1Country);
  sim::NodeId user = first_user_[kF1Country];
  auto first = world_->MakeBrowser(user);
  auto second = world_->MakeBrowser(user);
  sim::SimTime due = world_->simulator().Now();
  Result<http::HttpResponse> got[2] = {globe::Unavailable("pending"),
                                       globe::Unavailable("pending")};
  sim::SimTime at[2] = {0, 0};
  auto fetch = [&](gdn::Browser* browser, const char* file, size_t i) {
    browser->Fetch(httpd->node(), FileTarget(f1_package_, file),
                   [&, i](Result<http::HttpResponse> r) {
                     got[i] = std::move(r);
                     at[i] = world_->simulator().Now();
                   });
  };
  fetch(first.get(), "a", 0);
  // The first download holds port p; after this many more allocations the
  // next one is p again.
  for (uint32_t i = 0; i + 1 < kEphemeralRange; ++i) sim::AllocateEphemeralPort();
  fetch(second.get(), "b", 1);
  world_->Run();

  auto body_is = [&](size_t i, const Bytes& want) {
    return got[i].ok() && got[i]->status_code == 200 && got[i]->body == want;
  };
  bool clean = body_is(0, f1_a_) && body_is(1, f1_b_);
  bool collided = !got[0].ok() && body_is(1, f1_a_);
  if (!clean && !collided) Fail("F1 probe: unexpected outcome");
  for (size_t i = 0; i < 2; ++i) {
    ++result->attempted;
    result->latency_ms.push_back(VirtualMs(at[i] - due));
    result->digest = Fold(result->digest, at[i]);
    Trace().Add({"probe.f1", "op", static_cast<double>(due), static_cast<double>(at[i]),
                 0, 0, 1});
    if (clean) {
      ++result->completed;
    } else {
      ++result->failed_f1;
    }
  }
}

RoundResult ReleaseCrowd::RunRound(uint64_t round) {
  RoundResult result;
  result.digest = kDigestSeed;
  GdnWorld& world = *world_;
  sim::EventEngine& engine = world.simulator();
  const std::vector<sim::NodeId>& users = world.user_hosts();
  size_t countries = world.num_countries();

  // Inputs of this round (identical for rounds r and r + kCycle).
  Gen gen(Mix(seed_, round % kCycle));
  Zipf zipf(kPackages, 1.0);
  struct Arrival {
    sim::SimTime due;
    size_t user;
    size_t package;
  };
  std::vector<Arrival> arrivals(kDownloadsPerRound);
  double t = 0;
  for (Arrival& a : arrivals) {
    t += gen.Exp(1e6 / kArrivalsPerSecond);
    a.due = static_cast<sim::SimTime>(t);
    a.user = gen.Below(users.size());
    a.package = zipf.Sample(&gen);
  }

  // (country, package) binding state as the crowd sees it.
  struct PairState {
    bool sent = false;  // the first download was sent
    bool warm = false;  // ... and has completed
    std::vector<size_t> waiting;
  };
  std::vector<PairState> pairs(countries * kPackages);
  std::vector<std::unique_ptr<gdn::Browser>> browsers(users.size());
  std::vector<sim::SimTime> done_at(arrivals.size(), 0);
  std::vector<HostScope> issue_cost(Trace().enabled() ? arrivals.size() : 0);
  size_t filled_pairs = 0;

  GdnCounters before = ReadCounters(world);
  uint64_t allocs0 = Allocations();
  double wall0 = WallSeconds();
  sim::SimTime t0 = engine.Now() + sim::kMillisecond;

  std::function<void(size_t)> send = [&](size_t i) {
    const Arrival& a = arrivals[i];
    sim::NodeId user = users[a.user];
    auto& browser = browsers[a.user];
    if (browser == nullptr) browser = world.MakeBrowser(user);
    size_t country = static_cast<size_t>(world.CountryOf(user));
    const Package& package = packages_[a.package];
    HostScope host;
    browser->Fetch(
        world.HttpdOf(country)->node(), FileTarget(package.name, "dist.tar"),
        [&, i, country](Result<http::HttpResponse> r) {
          const Arrival& a = arrivals[i];
          const Package& package = packages_[a.package];
          if (!r.ok() || r->status_code != 200) {
            Fail("download of %s failed: %s", package.name.c_str(), Describe(r).c_str());
          }
          if (r->body != package.body) {
            Fail("download of %s returned bytes that were never published",
                 package.name.c_str());
          }
          done_at[i] = engine.Now();
          PairState& pair = pairs[country * kPackages + a.package];
          if (!pair.warm) {
            pair.warm = true;
            ++filled_pairs;
            std::vector<size_t> waiting = std::move(pair.waiting);
            for (size_t w : waiting) send(w);
          }
        });
    host.Stop();
    if (!issue_cost.empty()) issue_cost[i] = host;
  };

  for (size_t i = 0; i < arrivals.size(); ++i) {
    engine.ScheduleAt(t0 + arrivals[i].due, [&, i] {
      size_t country = static_cast<size_t>(world.CountryOf(users[arrivals[i].user]));
      PairState& pair = pairs[country * kPackages + arrivals[i].package];
      if (pair.sent && !pair.warm) {
        pair.waiting.push_back(i);
        return;
      }
      pair.sent = true;
      send(i);
    });
  }
  world.Run();

  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (done_at[i] == 0) Fail("download %zu never completed", i);
    sim::SimTime latency = done_at[i] - (t0 + arrivals[i].due);
    result.latency_ms.push_back(VirtualMs(latency));
    result.digest = Fold(result.digest, latency);
  }
  result.attempted = arrivals.size();
  result.completed = arrivals.size();
  for (size_t i = 0; i < issue_cost.size(); ++i) {
    Trace().Add({"download", "op", static_cast<double>(t0 + arrivals[i].due),
                 static_cast<double>(done_at[i]), issue_cost[i].cpu_us,
                 issue_cost[i].allocs, 1});
  }

  uint64_t binds_before_probes = ReadCounters(world).binds;
  ProbeF2(&result);
  ProbeF1(&result);

  result.host_s = WallSeconds() - wall0;
  result.allocs = Allocations() - allocs0;
  GdnCounters after = ReadCounters(world);
  result.net_bytes = static_cast<double>(after.bytes - before.bytes);
  result.digest = Fold(result.digest, after.bytes - before.bytes);
  result.digest = Fold(result.digest, after.events - before.events);

  if (Trace().enabled()) {
    AddCounterLayers(before, after, result.completed, result.host_s, &result.layer);
    // Every crowd pair binds once; the F2 probe's pair should bind once too.
    double expected_binds = static_cast<double>(filled_pairs) + 1;
    double crowd_binds = static_cast<double>(binds_before_probes - before.binds);
    if (crowd_binds != static_cast<double>(filled_pairs)) {
      Fail("crowd made %.0f binds for %zu (HTTPD, package) pairs", crowd_binds,
           filled_pairs);
    }
    result.layer["gdn.duplicate_binds"] =
        static_cast<double>(after.binds - before.binds) - expected_binds;

    std::map<std::string, std::vector<double>> samples;
    for (size_t j = 0; j < kWalksPerRound; ++j) {
      size_t index = (round * kWalksPerRound + j) % kWalkPairs;
      size_t country = (5 * index + 3) % countries;
      const auto& [reference, walked] = walk_[index];
      LayerWalk(world, country, first_user_[country], reference.name, reference.body,
                walked.name, "dist.tar", &samples);
    }
    AddSampleMedians(samples, &result.layer);
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeReleaseCrowd() { return std::make_unique<ReleaseCrowd>(); }

}  // namespace perfbench
