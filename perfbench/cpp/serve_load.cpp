// serve_read and serve_churn, untraced: the real `meshroutectl serve` binary
// over loopback TCP, driven by one client process with two threads (sender
// and receiver) on one pipelined connection.
//
// Server lifecycle: the client picks a free loopback port itself (serve
// rejects --port 0), spawns the server, and retries the connect until the
// first DECIDE answers correctly — launch to that reply is one setup_s
// sample. Every exit path sends SHUTDOWN and reaps the server (SIGKILL after
// a grace period), and VmHWM is read from /proc before it exits.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "fault/fault_set.hpp"
#include "mesh/mesh2d.hpp"
#include "route/query.hpp"
#include "serve/snapshot.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace meshroute;

/// Latency charged to a request that failed: it misses every limit.
constexpr double kFailedUs = 1e12;
/// Window lengths for the per-window summaries (serve_churn's are longer:
/// it sees 50 INJECTs a second).
constexpr double kReadWindowUs = 500e3;
constexpr double kChurnWindowUs = 2e6;
/// Closed-loop INJECT rate windows (a server life lasts about half a second).
constexpr double kPublishWindowUs = 250e3;
/// Give up on a reply after this long (counted as a timeout failure).
constexpr int kReplyTimeoutMs = 10000;

/// One client connection with a line reader.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(); }

  [[nodiscard]] bool open() const noexcept { return fd_ >= 0; }

  void adopt(int fd) noexcept {
    close();
    fd_ = fd;
    buf_.clear();
    head_ = 0;
  }

  void close() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool write_all(std::string_view s) noexcept {
    while (!s.empty()) {
      const ssize_t w = ::send(fd_, s.data(), s.size(), MSG_NOSIGNAL);
      if (w <= 0) return false;
      s.remove_prefix(static_cast<std::size_t>(w));
    }
    return true;
  }

  /// Next reply line (without the newline); false on EOF, error or timeout.
  bool read_line(std::string& out, int timeout_ms = kReplyTimeoutMs) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', head_);
      if (nl != std::string::npos) {
        out.assign(buf_, head_, nl - head_);
        head_ = nl + 1;
        if (head_ > 65536) {
          buf_.erase(0, head_);
          head_ = 0;
        }
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
      // The server writes each reply separately without TCP_NODELAY, so a
      // pipelined second reply waits for the ACK of the first (Nagle). ACK
      // at once instead of delaying it, or every pipelined reply would be
      // held until the next request happens to carry the ACK.
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t head_ = 0;
};

int pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  int port = -1;
  if (fd >= 0 && ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  if (fd >= 0) ::close(fd);
  return port;
}

int try_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One `meshroutectl serve` process and the connection to it.
class Server {
 public:
  Server(const Options& opt, const ServeShape& shape) {
    for (int attempt = 0; attempt < 5 && !conn_.open(); ++attempt) launch(opt, shape);
    if (!conn_.open()) throw std::runtime_error("meshroutectl serve did not come up");
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { stop(); }

  [[nodiscard]] Conn& conn() noexcept { return conn_; }
  [[nodiscard]] double setup_us() const noexcept { return setup_us_; }
  [[nodiscard]] double hwm_mib() const { return vm_hwm_mib(pid_); }

  /// SHUTDOWN, then reap; SIGKILL when the server does not exit in time.
  void stop() noexcept {
    if (conn_.open()) {
      std::string line;
      if (conn_.write_all("SHUTDOWN\n")) conn_.read_line(line, 2000);
      conn_.close();
    }
    if (pid_ > 0) reap(2000);
  }

 private:
  void launch(const Options& opt, const ServeShape& shape) {
    const int port = pick_free_port();
    const std::string n = std::to_string(shape.n);
    const std::string k = std::to_string(shape.faults);
    const std::string seed = std::to_string(opt.seed);
    const std::string p = std::to_string(port);
    std::vector<std::string> args = {opt.ctl, "serve", "--n", n, "--faults", k,
                                     "--seed", seed, "--port", p};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    for (const int fd : {0, 1, 2}) {
      posix_spawn_file_actions_addopen(&fa, fd, "/dev/null", fd == 0 ? O_RDONLY : O_WRONLY, 0);
    }
    const double t0 = now_us();
    const int rc = posix_spawn(&pid_, opt.ctl.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + opt.ctl);
    }
    const double deadline = t0 + 30e6;
    while (now_us() < deadline) {
      const int fd = try_connect(port);
      if (fd >= 0) {
        conn_.adopt(fd);
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {  // bind lost a port race
        pid_ = -1;
        return;
      }
      sleep_until_us(now_us() + 100);
    }
    if (!conn_.open()) {
      reap(0);
      return;
    }
    const std::string probe = "DECIDE 0 0 " + std::to_string(shape.n - 1) + " " +
                              std::to_string(shape.n - 1) + "\n";
    std::string line;
    if (!conn_.write_all(probe) || !conn_.read_line(line) ||
        !parse_reply(Request::Decide, line).ok) {
      stop();
      return;
    }
    setup_us_ = now_us() - t0;
  }

  void reap(int grace_ms) noexcept {
    int status = 0;
    const double deadline = now_us() + grace_ms * 1e3;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_us() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      sleep_until_us(now_us() + 200);
    }
    pid_ = -1;
  }

  Conn conn_;
  pid_t pid_ = -1;
  double setup_us_ = 0;
};

/// Independent answer checks. DECIDE `minimal` must imply a fault-free
/// monotone path (route::minimal_path_exists) in the world of the reply's
/// epoch — for epoch 0 evaluated on a from-scratch RoutingSnapshot, after
/// injections on the ground-truth fault mask of that epoch (the only plane
/// minimal_path_exists reads). A ROUTE delivered at rung `minimal` must take
/// exactly the Manhattan distance. Each INJECT must advance the epoch by one.
class Oracle {
 public:
  Oracle(const ServeShape& shape, std::uint64_t seed)
      : mesh_(shape.n, shape.n), seed_faults_(seed_world(shape, seed)) {
    serve::SnapshotScratch scratch;
    seed_snapshot_ = std::make_unique<serve::RoutingSnapshot>(mesh_, seed_faults_, 0, scratch);
    reset();
  }

  [[nodiscard]] const fault::FaultSet& seed_faults() const noexcept { return seed_faults_; }
  /// DECIDEs whose endpoint an earlier INJECT made faulty: outside the
  /// paper's model, so not checked against the oracle.
  [[nodiscard]] std::size_t out_of_model() const noexcept { return out_of_model_; }

  /// A new server life starts from the seed world at epoch 0.
  void reset() {
    world_ = seed_faults_;
    epoch_ = 0;
  }

  /// Empty string when the reply is correct, else what was wrong.
  std::string check(const Request& rq, std::string_view line) {
    const Reply r = parse_reply(rq.kind, line);
    if (!r.ok) return "bad reply '" + std::string(line) + "' to " + request_line(rq);
    if (rq.kind == Request::Inject) {
      if (r.epoch != epoch_ + 1) {
        return "INJECT epoch " + std::to_string(r.epoch) + " after " + std::to_string(epoch_);
      }
      epoch_ = r.epoch;
      if (!world_.contains(rq.a)) world_.add(rq.a);
      return {};
    }
    if (r.epoch != epoch_) return "reply epoch " + std::to_string(r.epoch) + " != " +
                                  std::to_string(epoch_) + ": " + std::string(line);
    if (rq.kind == Request::Decide && (world_.contains(rq.a) || world_.contains(rq.b))) {
      ++out_of_model_;
      return {};
    }
    if (rq.kind == Request::Decide && r.decision == "minimal") {
      route::QueryView view;
      if (epoch_ == 0) {
        view = seed_snapshot_->query_view();
      } else {
        view.mesh = &mesh_;
        view.faulty_mask = &world_.mask();
      }
      if (!route::minimal_path_exists(view, rq.a, rq.b)) {
        return "DECIDE minimal without a minimal path: " + request_line(rq);
      }
    }
    if (rq.kind == Request::Route && r.status == "delivered" && r.rung == "minimal" &&
        r.hops != manhattan(rq.a, rq.b)) {
      return "minimal-rung ROUTE with " + std::to_string(r.hops) + " hops: " + request_line(rq);
    }
    return {};
  }

 private:
  Mesh2D mesh_;
  fault::FaultSet seed_faults_;
  fault::FaultSet world_;
  std::int64_t epoch_ = 0;
  std::size_t out_of_model_ = 0;
  std::unique_ptr<serve::RoutingSnapshot> seed_snapshot_;
};

struct OpenLoopResult {
  std::vector<double> lat_us;  ///< per request, from its due time
  std::vector<std::string> replies;
  std::vector<double> late_us;  ///< per send: how late the generator ran
  std::size_t backlog_max = 0;
};

/// Send `reqs` on their schedule (requests sharing a due time go in one
/// write) while a receiver thread timestamps the in-order replies.
OpenLoopResult open_loop(Conn& conn, const std::vector<Request>& reqs) {
  OpenLoopResult res;
  const std::size_t n = reqs.size();
  res.lat_us.assign(n, kFailedUs);
  res.replies.resize(n);
  std::atomic<std::size_t> received{0};
  std::atomic<bool> broken{false};
  const double start = now_us() + 2000;

  // jthread: joined on every exit path, exceptions included.
  std::jthread receiver([&] {
    std::string line;
    for (std::size_t i = 0; i < n; ++i) {
      if (!conn.read_line(line)) {
        broken.store(true);
        return;
      }
      res.lat_us[i] = now_us() - (start + reqs[i].due_us);
      res.replies[i] = line;
      received.store(i + 1, std::memory_order_release);
    }
  });

  std::string batch;
  for (std::size_t i = 0; i < n && !broken.load();) {
    std::size_t j = i;
    batch.clear();
    while (j < n && reqs[j].due_us == reqs[i].due_us) {
      batch += request_line(reqs[j]);
      batch += '\n';
      ++j;
    }
    const double due = start + reqs[i].due_us;
    sleep_until_us(due);
    res.late_us.push_back(now_us() - due);
    if (!conn.write_all(batch)) {
      broken.store(true);
      break;
    }
    res.backlog_max = std::max(res.backlog_max, j - received.load(std::memory_order_acquire));
    i = j;
  }
  receiver.join();
  return res;
}

struct ClosedLoopResult {
  std::vector<Request> reqs;
  std::vector<std::string> replies;
  std::vector<double> done_us;  ///< completion time of each reply, from start
  double elapsed_us = 0;
  bool broken = false;
};

/// Keep between `depth`/2 and `depth` requests in flight (refilled half a
/// window per write) until `duration_us` has passed or `max_requests` were
/// sent, then drain. `gen(i)` yields the i-th request.
ClosedLoopResult closed_loop(Conn& conn, const std::function<Request(std::size_t)>& gen,
                             double duration_us, int depth, std::size_t max_requests) {
  ClosedLoopResult res;
  const double start = now_us();
  std::string batch;
  const auto refill = [&](std::size_t count) {
    batch.clear();
    for (std::size_t k = 0; k < count && res.reqs.size() < max_requests; ++k) {
      res.reqs.push_back(gen(res.reqs.size()));
      batch += request_line(res.reqs.back());
      batch += '\n';
    }
    return batch.empty() || conn.write_all(batch);
  };
  const auto half = static_cast<std::size_t>(std::max(1, depth / 2));
  if (!refill(static_cast<std::size_t>(depth))) {
    res.broken = true;
    return res;
  }
  std::string line;
  while (res.replies.size() < res.reqs.size()) {
    if (!conn.read_line(line)) {
      res.broken = true;
      break;
    }
    res.replies.push_back(line);
    res.done_us.push_back(now_us() - start);
    if (res.reqs.size() - res.replies.size() <= half && now_us() - start < duration_us &&
        !refill(half)) {
      res.broken = true;
      break;
    }
  }
  res.elapsed_us = now_us() - start;
  return res;
}

void check_all(Oracle& oracle, const std::vector<Request>& reqs,
               const std::vector<std::string>& replies, const std::vector<double>* lat,
               Report& rep) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ++rep.attempted;
    if (i >= replies.size() || (lat != nullptr && (*lat)[i] >= kFailedUs)) {
      rep.fail("no reply (timeout or closed connection) to " + request_line(reqs[i]));
      continue;
    }
    const std::string why = oracle.check(reqs[i], replies[i]);
    if (!why.empty()) rep.fail(why);
  }
}

/// One timed request: when it was due (on the run's schedule) and its
/// latency.
struct Sample {
  double due_us;
  double lat_us;
};

/// Latency of one request kind as `<name>_p50_us` / `_p90_us` / `_p99_us`:
/// the schedule is cut into `window_us` windows and each percentile is the
/// quiet quartile (util.hpp) of the windows' percentiles. A serve_read
/// window holds 2500 samples of each kind, a serve_churn window 100 INJECTs,
/// so each window's p90 has at least ten samples beyond it.
void latency_metrics(Report& rep, const std::string& name, const std::vector<Sample>& samples,
                     double window_us) {
  std::map<std::int64_t, std::vector<double>> windows;
  for (const Sample& s : samples) {
    windows[static_cast<std::int64_t>(s.due_us / window_us)].push_back(s.lat_us);
  }
  std::vector<double> p50, p90, p99;
  for (auto& [w, v] : windows) {
    p50.push_back(percentile(v, 0.50));
    p90.push_back(percentile(v, 0.90));
    p99.push_back(percentile(v, 0.99));
  }
  rep.set(name + "_p50_us", quiet_quartile(p50, false), "us");
  rep.set(name + "_p90_us", quiet_quartile(p90, false), "us");
  rep.set(name + "_p99_us", quiet_quartile(p99, false), "us");
  rep.info[name + "_samples"] =
      std::to_string(samples.size()) + " in " + std::to_string(windows.size()) + " windows";
  std::string trail;  // the per-window p50s, for judging how disturbed a run was
  for (const double v : p50) trail += std::to_string(static_cast<int>(v)) + " ";
  rep.info[name + "_window_p50s"] = trail;
}

/// Samples of one kind, with due times shifted by `offset_us` so several
/// server lives line up on one schedule.
void collect(std::vector<Sample>& out, const std::vector<Request>& reqs,
             const std::vector<double>& lat, Request::Kind kind, double offset_us) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].kind == kind) out.push_back(Sample{offset_us + reqs[i].due_us, lat[i]});
  }
}

/// Closed-loop throughput: completions per second in each whole `window_us`
/// window of one closed-loop phase, appended to `rates`.
void window_rates(const std::vector<double>& done_us, double window_us,
                  std::vector<double>& rates) {
  std::map<std::int64_t, double> counts;
  const auto full = static_cast<std::int64_t>((done_us.empty() ? 0 : done_us.back()) / window_us);
  for (const double t : done_us) {
    const auto w = static_cast<std::int64_t>(t / window_us);
    if (w < full) counts[w] += 1;
  }
  for (const auto& [w, c] : counts) rates.push_back(c / (window_us * 1e-6));
  if (counts.empty() && !done_us.empty()) {  // phase shorter than one window
    rates.push_back(static_cast<double>(done_us.size()) / (done_us.back() * 1e-6));
  }
}

void client_metrics(Report& rep, std::vector<double> late, std::size_t backlog_max) {
  rep.set("client.late_p99_us", percentile(late, 0.99), "us");
  rep.set("client.backlog_max", static_cast<double>(backlog_max), "count");
}

void set_timer_slack() {
  // Default 50 us timer slack would make every open-loop send that late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

}  // namespace

void serve_read_tcp(const Options& opt, Report& rep, double fraction) {
  set_timer_slack();
  const ServeShape shape = ServeShape::make(opt.tiny);
  Oracle oracle(shape, opt.seed);
  std::vector<double> setups;
  // Extra launch-to-first-reply cycles: setup_s is a median of several.
  const int launches = opt.trace ? 1 : shape.setup_launches;
  for (int i = 1; i < launches; ++i) {
    Server s(opt, shape);
    setups.push_back(s.setup_us());
  }
  Server server(opt, shape);
  setups.push_back(server.setup_us());

  const double open_s = 0.6 * opt.seconds * fraction;
  const auto pairs = static_cast<std::size_t>(std::max(1.0, open_s * shape.read_rate));
  const std::vector<Request> reqs =
      read_stream(stream_seed(opt.seed, 1), oracle.seed_faults(), pairs, shape.read_rate);
  const OpenLoopResult ol = open_loop(server.conn(), reqs);
  check_all(oracle, reqs, ol.replies, &ol.lat_us, rep);
  Digest digest;
  for (const auto& r : ol.replies) digest.add(r);

  // Closed loop at a fixed pipeline depth: read capacity in lines/s.
  const std::vector<Request> pool =
      read_stream(stream_seed(opt.seed, 2), oracle.seed_faults(), 4096, shape.read_rate);
  const ClosedLoopResult cl = closed_loop(
      server.conn(), [&](std::size_t i) { return pool[i % pool.size()]; },
      0.3 * opt.seconds * fraction * 1e6, shape.pipeline_depth, ~std::size_t{0});
  check_all(oracle, cl.reqs, cl.replies, nullptr, rep);
  const double peak = server.hwm_mib();
  server.stop();

  std::vector<Sample> route_lat, decide_lat;
  collect(route_lat, reqs, ol.lat_us, Request::Route, 0);
  collect(decide_lat, reqs, ol.lat_us, Request::Decide, 0);
  latency_metrics(rep, "route", route_lat, kReadWindowUs);
  latency_metrics(rep, "decide", decide_lat, kReadWindowUs);
  std::vector<double> rates;
  window_rates(cl.done_us, kReadWindowUs, rates);
  rep.set("read_capacity_qps", quiet_quartile(rates, true), "1/s");
  rep.set("setup_s", median(setups) * 1e-6, "s");
  rep.set("peak_rss_mb", peak, "MiB");
  client_metrics(rep, ol.late_us, ol.backlog_max);
  rep.info["digest"] = digest.hex();
  rep.info["offered_rate"] = std::to_string(shape.read_rate) + " DECIDE+ROUTE pairs/s";
  rep.info["setup_samples"] = std::to_string(setups.size());
}

void serve_churn_tcp(const Options& opt, Report& rep, double fraction) {
  set_timer_slack();
  const ServeShape shape = ServeShape::make(opt.tiny);
  Oracle oracle(shape, opt.seed);
  const double life_s = shape.injects_per_life / shape.inject_rate;
  const int open_lives =
      std::max(1, static_cast<int>(0.6 * opt.seconds * fraction / life_s + 0.5));
  std::vector<double> setups;
  std::vector<Sample> inject_lat, decide_lat, route_lat;
  std::vector<double> late;
  std::size_t backlog_max = 0;
  double peak = 0;
  Digest digest;
  for (int life = 0; life < open_lives; ++life) {
    Server server(opt, shape);
    setups.push_back(server.setup_us());
    oracle.reset();
    const std::vector<Request> reqs =
        churn_stream(stream_seed(opt.seed, 100 + static_cast<std::uint64_t>(life)),
                     oracle.seed_faults(), shape.injects_per_life, shape.inject_rate,
                     shape.churn_read_rate);
    const OpenLoopResult ol = open_loop(server.conn(), reqs);
    check_all(oracle, reqs, ol.replies, &ol.lat_us, rep);
    for (const auto& r : ol.replies) digest.add(r);
    collect(inject_lat, reqs, ol.lat_us, Request::Inject, life * life_s * 1e6);
    collect(decide_lat, reqs, ol.lat_us, Request::Decide, life * life_s * 1e6);
    collect(route_lat, reqs, ol.lat_us, Request::Route, life * life_s * 1e6);
    late.insert(late.end(), ol.late_us.begin(), ol.late_us.end());
    backlog_max = std::max(backlog_max, ol.backlog_max);
    peak = std::max(peak, server.hwm_mib());
  }

  // Closed loop: back-to-back INJECTs, one server life per injects_per_life,
  // gives the publish capacity in epochs/s.
  double closed_us = 0;
  std::vector<double> rates;
  const double budget_us = 0.25 * opt.seconds * fraction * 1e6;
  for (std::uint64_t life = 0; closed_us < budget_us; ++life) {
    Server server(opt, shape);
    setups.push_back(server.setup_us());
    oracle.reset();
    Rng rng(stream_seed(opt.seed, 200 + life));
    const ClosedLoopResult cl = closed_loop(
        server.conn(),
        [&](std::size_t) {
          return Request{Request::Inject,
                         Coord{static_cast<Dist>(rng.uniform(0, shape.n - 1)),
                               static_cast<Dist>(rng.uniform(0, shape.n - 1))},
                         Coord{}, 0};
        },
        budget_us - closed_us, shape.pipeline_depth,
        static_cast<std::size_t>(shape.injects_per_life));
    check_all(oracle, cl.reqs, cl.replies, nullptr, rep);
    closed_us += cl.elapsed_us;
    window_rates(cl.done_us, kPublishWindowUs, rates);
    peak = std::max(peak, server.hwm_mib());
    if (cl.broken) break;
  }

  latency_metrics(rep, "inject", inject_lat, kChurnWindowUs);
  latency_metrics(rep, "decide", decide_lat, kChurnWindowUs);
  latency_metrics(rep, "route", route_lat, kChurnWindowUs);
  rep.set("publish_capacity_per_s", quiet_quartile(rates, true), "1/s");
  rep.set("setup_s", median(setups) * 1e-6, "s");
  rep.set("peak_rss_mb", peak, "MiB");
  client_metrics(rep, std::move(late), backlog_max);
  rep.info["digest"] = digest.hex();
  rep.info["offered_rate"] = std::to_string(shape.inject_rate) + " INJECT/s + " +
                             std::to_string(shape.churn_read_rate) + " DECIDE+ROUTE pairs/s";
  rep.info["server_lives"] = std::to_string(setups.size());
  rep.info["decides_out_of_model"] = std::to_string(oracle.out_of_model());
  rep.info["setup_samples"] = std::to_string(setups.size());
}

}  // namespace perfbench
