// Helpers shared by the simulated GDN workloads (release_crowd, update_mix):
// counter snapshots of every layer's public stats, and the probes that time
// one call into a single layer with the simulator otherwise idle.

#ifndef PERFBENCH_SRC_GDN_COMMON_H_
#define PERFBENCH_SRC_GDN_COMMON_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/gdn/world.h"

namespace perfbench {

using globe::gdn::GdnWorld;
namespace sim = globe::sim;

inline double VirtualMs(sim::SimTime t) { return sim::ToMillis(t); }

// The HTTP target of one file of a package.
std::string FileTarget(const std::string& package, const std::string& file);

// A failed HTTP answer for an error message: the status, or the start of the
// response.
std::string Describe(const globe::Result<globe::http::HttpResponse>& response);

// Public counters of every layer, read at the start and end of a round.
struct GdnCounters {
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t wan_bytes = 0;
  uint64_t binds = 0;
  uint64_t bind_reuses = 0;
  uint64_t rebinds = 0;
  uint64_t resolver_queries = 0;
  uint64_t resolver_hits = 0;
  uint64_t replicas_created = 0;
  uint64_t gls_lookups = 0;
  uint64_t gls_forwards = 0;
  uint64_t gls_cache_hits = 0;
  uint64_t gls_cache_misses = 0;
  uint64_t handshakes = 0;
  uint64_t verify_batches = 0;
  uint64_t batched_frames = 0;
  double crypto_us = 0;
};

GdnCounters ReadCounters(GdnWorld& world);

// Per-layer values of a round from counter deltas over `completed` operations.
void AddCounterLayers(const GdnCounters& before, const GdnCounters& after,
                      uint64_t completed, double host_s,
                      std::map<std::string, double>* layer);

// Runs `start(done)` (which must eventually call done()) with the simulator
// drained before and after, records a span, and returns the virtual ms from
// the call to done().
double TimedStep(GdnWorld& world, const std::string& name, const std::string& cat,
                 const std::function<void(std::function<void()>)>& start,
                 int64_t* allocs = nullptr);

// File size by popularity rank: 4 KiB x span^u, with u spread over [0, 1) by
// the golden-ratio sequence so every stretch of ranks mixes small and large.
size_t SizeOfRank(size_t rank, double span);

// The layer walk from the HTTPD of `country`, driven by `user` of that
// country: first a cold HTTP download of `reference` (an equally sized
// package the HTTPD has not bound), then `walked` one layer at a time from
// the HTTPD's host — HTTP hop (a user fetching "/"), GNS resolve, GLS lookup,
// bind as an unregistered cache replica, one invoke of `file`, unbind. Adds
// walk.* shares of the reference download and the dns/gls/dso probe values
// to `samples`.
void LayerWalk(GdnWorld& world, size_t country, sim::NodeId user,
               const std::string& reference, const Bytes& reference_body,
               const std::string& walked, const std::string& file,
               std::map<std::string, std::vector<double>>* samples);

// Medians of probe samples into per-layer values.
void AddSampleMedians(const std::map<std::string, std::vector<double>>& samples,
                      std::map<std::string, double>* layer);

// First user host of each country, in country order.
std::vector<sim::NodeId> FirstUserPerCountry(GdnWorld& world);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GDN_COMMON_H_
