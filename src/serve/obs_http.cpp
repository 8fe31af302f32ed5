#include "serve/obs_http.hpp"

#include <chrono>
#include <cstdio>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define MESHROUTE_HAVE_SOCKETS 1
#endif

namespace meshroute::serve {

#if defined(MESHROUTE_HAVE_SOCKETS)

ObsHttpServer::ObsHttpServer(QueryServer& server, std::uint16_t port)
    : server_(server) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("obs-http: socket");
    return;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 4) != 0) {
    std::perror("obs-http: bind/listen");
    ::close(fd);
    return;
  }
  // Recover the actual port (ephemeral binds pass 0).
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  // Nonblocking listener: the loop polls accept so stop() never waits on a
  // connection that is not coming.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  listener_ = fd;
  thread_ = std::thread([this] { loop(); });
}

void ObsHttpServer::loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    // Drain whatever request arrived (one read is enough for any real
    // scraper's GET line + headers); the reply ignores the path.
    char buf[4096];
    (void)::read(fd, buf, sizeof buf);
    const std::string body = server_.metrics_text() + "\n";
    std::string reply =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    // MSG_NOSIGNAL: a scraper that hung up fails the send, not the server.
    std::size_t off = 0;
    while (off < reply.size()) {
      const ssize_t w = ::send(fd, reply.data() + off, reply.size() - off, MSG_NOSIGNAL);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    ::close(fd);
  }
}

void ObsHttpServer::stop() {
  if (listener_ < 0) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  ::close(listener_);
  listener_ = -1;
}

ObsHttpServer::~ObsHttpServer() { stop(); }

#else  // !MESHROUTE_HAVE_SOCKETS

ObsHttpServer::ObsHttpServer(QueryServer& server, std::uint16_t) : server_(server) {
  std::fputs("obs-http: not supported on this platform\n", stderr);
}

void ObsHttpServer::loop() {}
void ObsHttpServer::stop() {}
ObsHttpServer::~ObsHttpServer() = default;

#endif

}  // namespace meshroute::serve
