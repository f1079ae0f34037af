#include "perfbench/src/gdn_common.h"

#include <cmath>

#include "perfbench/src/stats.h"
#include "src/gdn/package.h"

namespace perfbench {

namespace gdn = globe::gdn;
namespace gls = globe::gls;
namespace dso = globe::dso;
namespace dns = globe::dns;
using globe::Result;
using globe::Status;

std::string FileTarget(const std::string& package, const std::string& file) {
  return globe::http::UrlEncode("/packages" + package + "/files/" + file);
}

std::string Describe(const Result<globe::http::HttpResponse>& response) {
  if (!response.ok()) return response.status().ToString();
  return "HTTP " + std::to_string(response->status_code) + ": " +
         globe::ToString(response->body).substr(0, 200);
}

GdnCounters ReadCounters(GdnWorld& world) {
  GdnCounters c;
  c.events = world.simulator().executed_events();
  const sim::TrafficStats& traffic = world.network().stats();
  c.messages = traffic.TotalMessages();
  c.bytes = traffic.TotalBytes();
  c.wan_bytes = traffic.BytesAtOrAbove(2);
  for (size_t i = 0; i < world.num_countries(); ++i) {
    const gdn::HttpdStats& h = world.HttpdOf(i)->stats();
    c.binds += h.binds;
    c.bind_reuses += h.bind_reuses;
    c.rebinds += h.rebinds;
    const dns::ResolverStats& r = world.ResolverOf(i)->stats();
    c.resolver_queries += r.queries;
    c.resolver_hits += r.cache_hits;
    c.replicas_created += world.GosOf(i)->stats().replicas_created;
  }
  gls::SubnodeStats directory = world.gls().TotalStats();
  c.gls_lookups = directory.lookups;
  c.gls_forwards =
      directory.forwards_up + directory.forwards_down + directory.forwards_sideways;
  c.gls_cache_hits = directory.cache_hits;
  c.gls_cache_misses = directory.cache_misses;
  if (auto* secure = world.secure_transport()) {
    const auto& s = secure->stats();
    c.handshakes = s.handshakes;
    c.verify_batches = s.verify_batches;
    c.batched_frames = s.batched_frames;
    c.crypto_us = s.crypto_us;
  }
  return c;
}

void AddCounterLayers(const GdnCounters& before, const GdnCounters& after,
                      uint64_t completed, double host_s,
                      std::map<std::string, double>* layer) {
  auto per_op = [&](double total) { return PerOp(total, completed).value_or(0); };
  double events = static_cast<double>(after.events - before.events);
  (*layer)["sim.events_per_op"] = per_op(events);
  (*layer)["sim.host_us_per_event"] = events > 0 ? host_s * 1e6 / events : 0;
  (*layer)["sim.msgs_per_op"] =
      per_op(static_cast<double>(after.messages - before.messages));
  (*layer)["sim.wan_kb_per_op"] =
      per_op(static_cast<double>(after.wan_bytes - before.wan_bytes) / 1024.0);
  double binds = static_cast<double>(after.binds - before.binds);
  double reuses = static_cast<double>(after.bind_reuses - before.bind_reuses);
  (*layer)["gdn.bind_share"] = Share(binds, binds + reuses);
  (*layer)["gdn.rebinds"] = static_cast<double>(after.rebinds - before.rebinds);
  (*layer)["dns.resolver_hit_share"] =
      Share(static_cast<double>(after.resolver_hits - before.resolver_hits),
            static_cast<double>(after.resolver_queries - before.resolver_queries));
  (*layer)["gls.hops_per_lookup"] =
      Share(static_cast<double>(after.gls_forwards - before.gls_forwards),
            static_cast<double>(after.gls_lookups - before.gls_lookups));
  (*layer)["gls.cache_hit_share"] =
      Share(static_cast<double>(after.gls_cache_hits - before.gls_cache_hits),
            static_cast<double>(after.gls_cache_hits - before.gls_cache_hits +
                                after.gls_cache_misses - before.gls_cache_misses));
  (*layer)["gos.replicas_created"] = static_cast<double>(after.replicas_created);
  (*layer)["sec.crypto_ms_per_op"] =
      per_op((after.crypto_us - before.crypto_us) / 1000.0);
  (*layer)["sec.handshakes_per_op"] =
      per_op(static_cast<double>(after.handshakes - before.handshakes));
  (*layer)["sec.frames_per_verify_batch"] =
      Share(static_cast<double>(after.batched_frames - before.batched_frames),
            static_cast<double>(after.verify_batches - before.verify_batches));
}

double TimedStep(GdnWorld& world, const std::string& name, const std::string& cat,
                 const std::function<void(std::function<void()>)>& start,
                 int64_t* allocs) {
  world.Run();
  sim::SimTime t0 = world.simulator().Now();
  sim::SimTime t1 = t0;
  bool done = false;
  HostScope host;
  start([&] {
    t1 = world.simulator().Now();
    done = true;
  });
  world.Run();
  host.Stop();
  if (!done) Fail("probe %s never completed", name.c_str());
  Trace().Add({name, cat, static_cast<double>(t0), static_cast<double>(t1), host.cpu_us,
               host.allocs, 2});
  if (allocs != nullptr) *allocs = host.allocs;
  return VirtualMs(t1 - t0);
}

size_t SizeOfRank(size_t rank, double span) {
  double u = static_cast<double>(rank + 1) * 0.6180339887498949;
  u -= static_cast<double>(static_cast<uint64_t>(u));
  return static_cast<size_t>(4096.0 * std::pow(span, u));
}

void LayerWalk(GdnWorld& world, size_t country, sim::NodeId user,
               const std::string& reference, const Bytes& reference_body,
               const std::string& walked, const std::string& file,
               std::map<std::string, std::vector<double>>* samples) {
  gdn::GdnHttpd* httpd = world.HttpdOf(country);
  sim::NodeId host = httpd->node();
  const std::string& zone = world.config().zone;

  auto browser = world.MakeBrowser(user);
  double reference_ms =
      TimedStep(world, "http.download_cold", "gdn", [&](std::function<void()> done) {
        browser->Fetch(
            host, FileTarget(reference, file),
            [&, done](Result<globe::http::HttpResponse> r) {
              if (!r.ok() || r->status_code != 200 || r->body != reference_body) {
                Fail("walk reference download of %s failed", reference.c_str());
              }
              done();
            });
      });
  double hop = TimedStep(world, "http_hop", "gdn", [&](std::function<void()> done) {
    browser->Fetch(host, "/", [done](Result<globe::http::HttpResponse> r) {
      if (!r.ok() || r->status_code != 200) Fail("front page probe failed");
      done();
    });
  });

  dns::GnsClient gns(world.transport(), host, zone, world.naming_authority()->endpoint(),
                     world.ResolverEndpointFor(host));
  std::string oid_hex;
  double resolve =
      TimedStep(world, "gns.resolve", "dns", [&](std::function<void()> done) {
        gns.Resolve(walked, [&, done](Result<std::string> r) {
          if (!r.ok()) Fail("probe resolve of %s failed", walked.c_str());
          oid_hex = *r;
          done();
        });
      });
  auto oid = gls::ObjectId::FromHex(oid_hex);
  if (!oid.ok()) Fail("probe resolve returned a malformed OID");

  gls::GlsClient gls_client(world.transport(), host, world.gls().LeafDirectoryFor(host));
  double lookup = TimedStep(world, "gls.lookup", "gls", [&](std::function<void()> done) {
    gls_client.Lookup(*oid, [done](Result<gls::LookupResult> r) {
      if (!r.ok() || r->addresses.empty()) Fail("probe lookup failed");
      done();
    });
  });

  dso::RuntimeSystem runtime(world.transport(), host, world.gls().LeafDirectoryFor(host),
                             &world.repository());
  dso::BindOptions options;
  options.as_replica = gls::ReplicaRole::kCache;
  options.semantics_type = gdn::kPackageTypeId;
  options.register_in_gls = false;
  std::unique_ptr<gdn::PackageProxy> proxy;
  double bind = TimedStep(world, "dso.bind", "dso", [&](std::function<void()> done) {
    runtime.Bind(*oid, options,
                 [&, done](Result<std::unique_ptr<dso::BoundObject>> r) {
                   if (!r.ok()) {
                     Fail("probe bind failed: %s", r.status().ToString().c_str());
                   }
                   proxy = std::make_unique<gdn::PackageProxy>(std::move(*r));
                   done();
                 });
  });

  int64_t invoke_allocs = 0;
  double invoke = TimedStep(
      world, "dso.invoke", "dso",
      [&](std::function<void()> done) {
        proxy->GetFileContents(file, [done](Result<globe::Bytes> r) {
          if (!r.ok()) Fail("probe invoke failed");
          done();
        });
      },
      &invoke_allocs);

  double unbind = TimedStep(world, "dso.unbind", "dso", [&](std::function<void()> done) {
    runtime.Unbind(proxy->TakeBound(), [done](Status s) {
      if (!s.ok()) Fail("probe unbind failed");
      done();
    });
  });

  auto& s = *samples;
  s["gdn.http_hop_ms"].push_back(hop);
  s["dns.resolve_ms_p50"].push_back(resolve);
  s["gls.lookup_ms_p50"].push_back(lookup);
  s["dso.bind_ms_p50"].push_back(bind);
  s["dso.invoke_ms_p50"].push_back(invoke);
  s["dso.invoke_allocs"].push_back(static_cast<double>(invoke_allocs));
  s["walk.http_hop_share"].push_back(hop / reference_ms);
  s["walk.resolve_share"].push_back(resolve / reference_ms);
  s["walk.lookup_share"].push_back(lookup / reference_ms);
  s["walk.bind_share"].push_back(bind / reference_ms);
  s["walk.invoke_share"].push_back(invoke / reference_ms);
  s["walk.unbind_share"].push_back(unbind / reference_ms);
}

void AddSampleMedians(const std::map<std::string, std::vector<double>>& samples,
                      std::map<std::string, double>* layer) {
  for (const auto& [name, values] : samples) {
    if (auto m = Median(values)) (*layer)[name] = *m;
  }
}

std::vector<sim::NodeId> FirstUserPerCountry(GdnWorld& world) {
  std::vector<sim::NodeId> first(world.num_countries(), sim::kNoNode);
  for (sim::NodeId user : world.user_hosts()) {
    int country = world.CountryOf(user);
    if (country >= 0 && first[static_cast<size_t>(country)] == sim::kNoNode) {
      first[static_cast<size_t>(country)] = user;
    }
  }
  return first;
}

}  // namespace perfbench
