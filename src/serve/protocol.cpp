#include "serve/protocol.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#define MESHROUTE_HAVE_SOCKETS 1
#endif

namespace meshroute::serve {

namespace {

const char* decision_name(cond::Decision d) {
  switch (d) {
    case cond::Decision::Minimal: return "minimal";
    case cond::Decision::SubMinimal: return "sub-minimal";
    case cond::Decision::Unknown: break;
  }
  return "unknown";
}

/// Split on runs of spaces/tabs. The grammar has no quoting.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

bool parse_dist(std::string_view tok, Dist& out) {
  long v = 0;
  bool neg = false;
  std::size_t i = 0;
  if (i < tok.size() && (tok[i] == '-' || tok[i] == '+')) neg = tok[i++] == '-';
  if (i >= tok.size()) return false;
  for (; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return false;
    v = v * 10 + (tok[i] - '0');
    if (v > 1 << 24) return false;  // far beyond any mesh side
  }
  out = static_cast<Dist>(neg ? -v : v);
  return true;
}

/// Append each part to `s`: an integer in decimal (as an ostream prints
/// it), anything else as it is.
template <typename... Parts>
void append(std::string& s, const Parts&... parts) {
  const auto one = [&s](const auto& part) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(part)>>) {
      char buf[24];
      s.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
    } else {
      s += part;
    }
  };
  (one(parts), ...);
}

bool parse_coords(const std::vector<std::string_view>& toks, std::size_t want,
                  const Mesh2D& mesh, std::vector<Coord>& out, std::string& err) {
  if (toks.size() != 1 + 2 * want) {
    err = "expected " + std::to_string(2 * want) + " integer arguments";
    return false;
  }
  out.clear();
  for (std::size_t k = 0; k < want; ++k) {
    Coord c{};
    if (!parse_dist(toks[1 + 2 * k], c.x) || !parse_dist(toks[2 + 2 * k], c.y)) {
      err = "malformed coordinate";
      return false;
    }
    if (!mesh.in_bounds(c)) {
      err = "coordinate outside the mesh";
      return false;
    }
    out.push_back(c);
  }
  return true;
}

}  // namespace

std::string handle_line(QueryServer::Session& session, std::string_view line, bool& quit) {
  // Strip a trailing CR so the protocol works over telnet-style peers.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> toks = tokenize(line);
  if (toks.empty() || toks[0].front() == '#') return "";

  QueryServer& server = session.server();
  const std::string_view cmd = toks[0];
  std::vector<Coord> args;
  std::string err;
  std::string reply;

  session.note_command();  // tear=SEQ applies to every real command

  if (cmd == "DECIDE" || cmd == "ROUTE") {
    if (!parse_coords(toks, 2, server.builder().mesh(), args, err)) {
      return "ERR " + std::string(cmd) + ": " + err;
    }
    const route::QuerySpec spec{args[0], args[1]};
    const bool force_shed = session.chaos_shed_next_read();
    static thread_local std::vector<cond::Decision> decide_out;
    static thread_local std::vector<route::RouteAnswer> route_out;
    QueryServer::Session::Guard guard;
    if (cmd == "DECIDE") {
      guard = session.decide_batch_guarded({&spec, 1}, decide_out, force_shed);
      if (!guard.admitted) return "BUSY " + std::to_string(guard.retry_after_ms);
      append(reply, guard.degraded ? "DEGRADED" : "OK", " DECIDE ",
             decision_name(decide_out.front()), " epoch=", session.last_epoch());
    } else {
      guard = session.route_batch_guarded({&spec, 1}, route_out, force_shed);
      if (!guard.admitted) return "BUSY " + std::to_string(guard.retry_after_ms);
      const route::RouteAnswer& ans = route_out.front();
      append(reply, guard.degraded ? "DEGRADED" : "OK", " ROUTE ", route::to_string(ans.status));
      if (guard.degraded) append(reply, " attr=", route::to_string(ans.attribution));
      append(reply, " rung=", route::to_string(ans.rung), " hops=", ans.stats.hops,
             " detours=", ans.stats.detours, " epoch=", session.last_epoch());
    }
    if (guard.degraded) append(reply, " lag=", guard.lag);
    return reply;
  }
  if (cmd == "INJECT") {
    if (!parse_coords(toks, 1, server.builder().mesh(), args, err)) {
      return "ERR INJECT: " + err;
    }
    const QueryServer::InjectResult r = server.inject_and_publish(args[0]);
    append(reply, "OK INJECT epoch=", r.epoch, " changed=", r.changed);
    return reply;
  }
  if (cmd == "STATS") {
    if (toks.size() != 1) return "ERR STATS takes no arguments";
    return "OK STATS " + json::to_string(server.stats_json());
  }
  if (cmd == "METRICS") {
    if (toks.size() != 1) return "ERR METRICS takes no arguments";
    // The one multi-line reply: the status line, then the Prometheus text
    // through its '# EOF' terminator (the scrape knows its own end, so the
    // line-per-reply framing is not needed).
    return "OK METRICS\n" + server.metrics_text();
  }
  if (cmd == "HEALTH") {
    if (toks.size() != 1) return "ERR HEALTH takes no arguments";
    return "OK HEALTH " + json::to_string(server.health_json());
  }
  if (cmd == "EPOCH") {
    if (toks.size() != 1) return "ERR EPOCH takes no arguments";
    append(reply, "OK EPOCH ", server.builder().store().current_epoch());
    return reply;
  }
  if (cmd == "SHUTDOWN") {
    quit = true;
    server.request_shutdown();
    server.dump_flight("shutdown");  // no-op unless --postmortem armed it
    return "OK SHUTDOWN";
  }
  if (cmd == "QUIT") {
    quit = true;
    return "OK BYE";
  }
  return "ERR unknown command '" + std::string(cmd) + "'";
}

std::size_t run_session(QueryServer& server, std::istream& in, std::ostream& out) {
  // Bounded client-side backoff for BUSY replies: the script driver is its
  // own client, so it honors the retry-after hint in place.
  constexpr int kMaxBusyRetries = 8;
  constexpr std::int64_t kMaxSleepMs = 100;  // scripts must not hang on chaos

  QueryServer::Session session(server);
  std::size_t commands = 0;
  std::string line;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    for (int attempt = 0;; ++attempt) {
      const std::string reply = handle_line(session, line, quit);
      if (session.torn()) {
        out.flush();
        return commands;  // abrupt close: the reply is dropped
      }
      if (reply.empty()) break;
      ++commands;
      out << reply << '\n';
      if (reply.rfind("BUSY ", 0) != 0 || attempt >= kMaxBusyRetries) break;
      const std::int64_t hint_ms = std::strtoll(reply.c_str() + 5, nullptr, 10);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::clamp<std::int64_t>(hint_ms, 0, kMaxSleepMs)));
    }
  }
  out.flush();
  return commands;
}

#if defined(MESHROUTE_HAVE_SOCKETS)

namespace {

/// Whether `line` is an INJECT request, read as handle_line reads it.
bool is_inject(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::size_t i = line.find_first_not_of(" \t");
  if (i == std::string_view::npos) return false;
  line.remove_prefix(i);
  return line.starts_with("INJECT") &&
         (line.size() == 6 || line[6] == ' ' || line[6] == '\t');
}

/// Line-buffered pump for one accepted connection. Replies collect in `out`
/// and leave with one send (DESIGN §11 "Reply writes"): before any line that
/// is not an INJECT following an INJECT, before blocking in read(), and
/// before closing. So only the replies of back-to-back INJECTs share a send;
/// every other reply leaves as soon as it is made.
void serve_connection(QueryServer& server, int fd) {
  static obs::Counter& replies = obs::Registry::global().counter("serve.tcp.replies");
  static obs::Counter& writes = obs::Registry::global().counter("serve.tcp.writes");
  QueryServer::Session session(server);
  std::string pending;
  std::string out;
  std::int64_t held = 0;  // replies in `out`
  // Send `out`; false once the peer is gone (MSG_NOSIGNAL: a peer that
  // closed mid-pipeline fails the send instead of killing the server).
  const auto flush = [&] {
    if (held == 0) return true;
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t w = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (w <= 0) return false;
      writes.add();
      off += static_cast<std::size_t>(w);
    }
    replies.add(held);
    out.clear();
    held = 0;
    return true;
  };
  char buf[4096];
  bool quit = false;
  bool after_inject = false;  // `out` holds only the replies of an INJECT run
  while (!quit) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      const std::string_view line(pending.data() + start, nl - start);
      start = nl + 1;
      const bool inject = is_inject(line);
      if (!(inject && after_inject) && !flush()) return;
      after_inject = inject;
      const std::string reply = handle_line(session, line, quit);
      if (session.torn()) {  // scripted tear: the replies before this one go out
        flush();
        return;
      }
      if (reply.empty()) continue;
      out += reply;
      out += '\n';
      ++held;
      if (quit) break;
    }
    pending.erase(0, start);
    if (!flush()) return;
  }
}

}  // namespace

int serve_tcp(QueryServer& server, std::uint16_t port, int max_connections) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror("serve: bind/listen");
    ::close(listener);
    return 1;
  }
  for (int served = 0; max_connections < 0 || served < max_connections; ++served) {
    if (server.shutdown_requested()) break;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::perror("serve: accept");
      ::close(listener);
      return 1;
    }
    // Replies are whole lines: send each at once rather than hold a second
    // reply back until the client ACKs the first (Nagle).
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    serve_connection(server, fd);
    ::close(fd);
    if (server.shutdown_requested()) break;
  }
  ::close(listener);
  return 0;
}

#else  // !MESHROUTE_HAVE_SOCKETS

int serve_tcp(QueryServer&, std::uint16_t, int) {
  std::fputs("serve: TCP mode is not supported on this platform\n", stderr);
  return 1;
}

#endif

}  // namespace meshroute::serve
