// live_loopback: one real GDN node — StandaloneGdnNode over
// net::SocketTransport and net::EventLoop — serving HTTP/1.0 on a loopback
// listener, with no simulator anywhere.
//
// The HTTPD runs as a thin proxy (bind_as_replica off), so every download
// invokes the object server across a loopback TCP frame: the epoll loop, the
// frame codec and the read-buffer pool all work on every operation. Setup
// publishes kPackages packages with files of several sizes and downloads
// each once (the bindings are warm). A round is a closed loop of
// kRequestsPerRound downloads over at most kConnections concurrent
// connections (one request per connection, HTTP/1.0), issued by a client in
// the same process on the same event loop. Latency is real time from connect
// to the last body byte. Every body is checked byte-for-byte.
//
// Every round after the first serves from a freshly set-up node (outside the
// timed phase): the object server keeps each read's response in its
// at-most-once table for the 120 s dedup TTL, so one node serving a whole run
// would grow by the run's download volume and tie peak RSS to host speed.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/stats.h"
#include "src/gdn/standalone.h"
#include "src/http/http.h"
#include "src/net/event_loop.h"
#include "src/net/socket_transport.h"

namespace perfbench {
namespace {

namespace gdn = globe::gdn;
namespace net = globe::net;
namespace sim = globe::sim;

constexpr size_t kPackages = 4;
constexpr size_t kFileSizes[] = {1 << 10, 4 << 10, 16 << 10, 64 << 10};
constexpr size_t kConnections = 3;
constexpr size_t kRequestsPerRound = 2000;
constexpr sim::SimTime kRequestTimeout = 30 * sim::kSecond;

struct File {
  std::string target;
  Bytes body;
};

// A closed-loop HTTP/1.0 client on the node's own event loop.
class LoopClient {
 public:
  LoopClient(net::EventLoop* loop, uint16_t port) : loop_(loop), port_(port) {}

  // Downloads files[order[i]] for every i, at most kConnections at a time.
  // Returns the latency of each in ms; fails the run on any wrong answer.
  std::vector<double> Run(const std::vector<File>& files,
                          const std::vector<size_t>& order);
  uint64_t request_bytes() const { return request_bytes_; }

 private:
  struct Conn {
    int fd = -1;
    size_t request = 0;
    double started = 0;
    std::string out;
    std::string in;
  };
  void Start(Conn* conn, size_t request);
  void OnEvent(Conn* conn, uint32_t events);
  void Finish(Conn* conn);

  net::EventLoop* loop_;
  uint16_t port_;
  const std::vector<File>* files_ = nullptr;
  const std::vector<size_t>* order_ = nullptr;
  size_t next_ = 0;
  size_t done_ = 0;
  std::vector<double> latency_ms_;
  uint64_t request_bytes_ = 0;
  Conn conns_[kConnections];
};

std::vector<double> LoopClient::Run(const std::vector<File>& files,
                                    const std::vector<size_t>& order) {
  files_ = &files;
  order_ = &order;
  next_ = done_ = 0;
  latency_ms_.assign(order.size(), 0);
  for (Conn& conn : conns_) {
    if (next_ < order.size()) Start(&conn, next_++);
  }
  if (!loop_->RunUntil([&] { return done_ == order.size(); },
                       kRequestTimeout * static_cast<sim::SimTime>(order.size()))) {
    Fail("loopback downloads did not finish");
  }
  return latency_ms_;
}

void LoopClient::Start(Conn* conn, size_t request) {
  conn->request = request;
  conn->started = WallSeconds();
  conn->in.clear();
  conn->out.assign("GET ");
  conn->out.append((*files_)[(*order_)[request]].target);
  conn->out.append(" HTTP/1.0\r\nHost: 127.0.0.1\r\nUser-Agent: perfbench\r\n\r\n");
  conn->fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) Fail("socket: %s", std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    Fail("connect: %s", std::strerror(errno));
  }
  loop_->WatchFd(conn->fd, EPOLLOUT,
                 [this, conn](uint32_t events) { OnEvent(conn, events); });
}

void LoopClient::OnEvent(Conn* conn, uint32_t events) {
  if (!conn->out.empty() && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
    ssize_t n = send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN) return;
      Fail("send: %s", std::strerror(errno));
    }
    request_bytes_ += static_cast<uint64_t>(n);
    conn->out.erase(0, static_cast<size_t>(n));
    if (conn->out.empty()) loop_->ModifyFd(conn->fd, EPOLLIN);
    return;
  }
  char buf[64 << 10];
  for (;;) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EAGAIN) return;
    if (n < 0 && errno != ECONNRESET) Fail("recv: %s", std::strerror(errno));
    Finish(conn);
    return;
  }
}

void LoopClient::Finish(Conn* conn) {
  loop_->UnwatchFd(conn->fd);
  close(conn->fd);
  conn->fd = -1;
  const File& file = (*files_)[(*order_)[conn->request]];
  size_t header_end = conn->in.find("\r\n\r\n");
  if (conn->in.compare(0, 12, "HTTP/1.0 200") != 0 || header_end == std::string::npos ||
      conn->in.size() - header_end - 4 != file.body.size() ||
      std::memcmp(conn->in.data() + header_end + 4, file.body.data(), file.body.size()) !=
          0) {
    Fail("download of %s returned a wrong answer: %.120s", file.target.c_str(),
         conn->in.c_str());
  }
  double now = WallSeconds();
  latency_ms_[conn->request] = (now - conn->started) * 1e3;
  Trace().Add({"download", "op", conn->started * 1e6, now * 1e6, 0, 0,
               static_cast<uint32_t>(1 + (conn - conns_))});
  ++done_;
  if (next_ < order_->size()) Start(conn, next_++);
}

class LiveLoopback final : public Workload {
 public:
  void Setup(uint64_t seed) override;
  RoundResult RunRound(uint64_t round) override;
  bool fork_rounds() const override { return false; }
  bool deterministic() const override { return false; }
  size_t cycle() const override { return 1; }
  std::string engine() const override { return "epoll"; }

 private:
  void Build();

  uint64_t seed_ = 0;
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<net::SocketTransport> transport_;
  std::unique_ptr<gdn::StandaloneGdnNode> node_;
  std::unique_ptr<LoopClient> client_;
  std::vector<File> files_;
};

void LiveLoopback::Setup(uint64_t seed) {
  seed_ = seed;
  Build();
}

void LiveLoopback::Build() {
  client_.reset();
  node_.reset();
  transport_.reset();
  loop_.reset();
  files_.clear();
  loop_ = std::make_unique<net::EventLoop>();
  transport_ = std::make_unique<net::SocketTransport>(loop_.get());
  gdn::StandaloneNodeOptions options;
  options.httpd.bind_as_replica = false;
  node_ = std::make_unique<gdn::StandaloneGdnNode>(
      transport_.get(), options, [&](sim::NodeId n) {
        if (!transport_->Listen(n).ok()) Fail("listen for node %u failed", n);
      });
  auto port = transport_->ListenHttp(node_->httpd_node());
  if (!port.ok()) Fail("HTTP listen failed: %s", port.status().ToString().c_str());
  client_ = std::make_unique<LoopClient>(loop_.get(), *port);

  gdn::StandaloneGdnNode::Pump pump = [&](const std::function<bool()>& done) {
    if (!done) {
      loop_->RunFor(20 * sim::kMillisecond);
      return true;
    }
    return loop_->RunUntil(done, 10 * sim::kSecond);
  };
  for (size_t p = 0; p < kPackages; ++p) {
    std::string name = "/live/p" + std::to_string(p);
    std::map<std::string, Bytes> files;
    for (size_t f = 0; f < std::size(kFileSizes); ++f) {
      std::string path(1, 'f');
      path += std::to_string(f);
      Bytes body = Content(seed_, name + "/" + path, 1, kFileSizes[f]);
      files[path] = body;
      files_.push_back({globe::http::UrlEncode("/packages" + name + "/files/" + path),
                        std::move(body)});
    }
    auto oid = node_->PublishPackage(name, files, pump);
    if (!oid.ok()) Fail("publish %s: %s", name.c_str(), oid.status().ToString().c_str());
  }
  // Warm every binding: one download of every file, one at a time (concurrent
  // first downloads of one package would race their binds, fault F2).
  for (size_t i = 0; i < files_.size(); ++i) client_->Run(files_, {i});
}

RoundResult LiveLoopback::RunRound(uint64_t round) {
  if (round > 0) Build();
  RoundResult result;
  Gen gen(Mix(seed_, round));
  std::vector<size_t> order(kRequestsPerRound);
  for (size_t& i : order) i = gen.Below(files_.size());

  net::WireStats before = transport_->stats();
  uint64_t request_bytes0 = client_->request_bytes();
  uint64_t allocs0 = Allocations();
  double wall0 = WallSeconds();
  result.latency_ms = client_->Run(files_, order);
  result.host_s = WallSeconds() - wall0;
  result.allocs = Allocations() - allocs0;
  const net::WireStats& after = transport_->stats();
  result.attempted = result.completed = order.size();
  double wire = static_cast<double>(after.bytes_sent - before.bytes_sent);
  result.net_bytes =
      wire + static_cast<double>(client_->request_bytes() - request_bytes0);

  if (Trace().enabled()) {
    auto per_op = [&](double total) { return PerOp(total, order.size()).value_or(0); };
    auto& layer = result.layer;
    layer["net.frames_per_op"] =
        per_op(static_cast<double>(after.frames_sent - before.frames_sent));
    layer["net.wire_kb_per_op"] = per_op(wire / 1024.0);
    layer["net.connections_per_op"] = per_op(static_cast<double>(
        after.connections_opened + after.connections_accepted -
        before.connections_opened - before.connections_accepted));
    layer["net.read_buf_swaps_per_op"] =
        per_op(static_cast<double>(after.read_buf_swaps - before.read_buf_swaps));
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeLiveLoopback() { return std::make_unique<LiveLoopback>(); }

}  // namespace perfbench
