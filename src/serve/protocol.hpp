// The meshroutectl serve wire protocol: one request line in, one reply line
// out, over stdin/stdout or a TCP connection.
//
//   request := DECIDE x0 y0 x1 y1     source-side guarantee for (s, d)
//            | ROUTE  x0 y0 x1 y1     degradation-ladder walk s -> d
//            | INJECT x y             inject a fault, publish the next epoch
//            | STATS                  server status document (JSON)
//            | HEALTH                 resilience status document (JSON)
//            | METRICS                Prometheus text exposition (multi-line)
//            | EPOCH                  current published epoch
//            | SHUTDOWN               close the session AND stop the server
//            | QUIT                   close the session
//   reply   := 'OK' SP detail | 'ERR' SP message
//            | 'BUSY' SP retry_after_ms        (read shed at the ADMIT gate)
//            | 'DEGRADED' SP detail            (staleness bound exceeded)
//
// Coordinates are decimal integers separated by spaces. Blank lines and
// lines starting with '#' are ignored (so scripts can be commented). Replies
// are deterministic given the request stream and the server's seed world:
//
//   DECIDE -> OK DECIDE minimal|sub-minimal|unknown epoch=E
//   ROUTE  -> OK ROUTE <status> rung=<rung> hops=H detours=D epoch=E
//   INJECT -> OK INJECT epoch=E changed=N
//   STATS  -> OK STATS {...}        (single-line JSON; includes the windowed
//                                    query stats, DESIGN §14)
//   HEALTH -> OK HEALTH {...}       (single-line JSON; epoch lag, queue
//                                    depth, shed/degraded counts)
//   METRICS -> OK METRICS \n <prometheus text> ... # EOF
//              (the ONE multi-line reply: everything through the '# EOF'
//               line is the scrape body; each METRICS closes a measurement
//               window, so windowed gauges move between scrapes)
//   EPOCH  -> OK EPOCH E
//   SHUTDOWN -> OK SHUTDOWN         (then the TCP accept loop exits too)
//   QUIT   -> OK BYE
//
// Resilience (DESIGN §13): a read that cannot be admitted is refused with
// `BUSY <retry_after_ms>` — script sessions honor the hint with bounded
// exponential backoff and retry in place (the BUSY lines still appear in
// the output); TCP peers are expected to back off themselves. A read
// answered beyond the server's staleness bound replies `DEGRADED DECIDE ...`
// / `DEGRADED ROUTE ... attr=info_stale ... lag=L` instead of `OK ...` —
// same fields, plus the attribution and the epoch lag that triggered the
// guard. A session scripted to tear (`tear=SEQ` serve-chaos) closes
// abruptly after its SEQ-th command with that command's reply dropped; the
// replies before it are delivered.
//
// Replies keep one line per request (METRICS's body aside), in request
// order. Over TCP the replies of back-to-back INJECTs may share one send;
// every other reply is sent before the next line is handled, and no reply is
// held while the server waits for input (DESIGN §11 "Reply writes").
//
// Reads (DECIDE/ROUTE) go through one Session per connection — each answer
// is consistent with exactly one published epoch, reported back as epoch=E.
// Writes (INJECT) flow through the builder; the protocol loop is the single
// writer, so commands within one connection are sequentially consistent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "serve/server.hpp"

namespace meshroute::serve {

/// Handle one request line against `session` (and its server's write side).
/// Returns the reply line (no trailing newline); empty string for blank and
/// comment lines. Sets `quit` on QUIT/SHUTDOWN. After the call the session
/// may report torn() — the caller must then drop the reply and close.
[[nodiscard]] std::string handle_line(QueryServer::Session& session, std::string_view line,
                                      bool& quit);

/// Drive a whole request stream: one reply line per request line, until QUIT,
/// SHUTDOWN, a scripted tear, or end of stream. BUSY replies are emitted and
/// then retried in place after sleeping the suggested backoff (bounded
/// retries — the client-side half of the shedding contract). Returns the
/// number of reply lines emitted (excluding blanks/comments).
std::size_t run_session(QueryServer& server, std::istream& in, std::ostream& out);

/// Serve the protocol on a TCP port (loopback-friendly single-threaded
/// accept loop: one connection at a time, each with its own Session).
/// `max_connections` < 0 means serve forever; otherwise exit after that many
/// connections have closed. Returns 0 on success, non-zero on socket errors
/// (message on stderr). POSIX only.
int serve_tcp(QueryServer& server, std::uint16_t port, int max_connections = -1);

}  // namespace meshroute::serve
