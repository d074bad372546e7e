// net::http — the minimal HTTP/1.1 framing of the tree's one socket server.
//
// net::Gateway speaks HTTP on real sockets — the serving path (thousands of
// keep-alive connections through the event loop) and the live-telemetry
// ops endpoint alike. It needs exactly a small slice of the protocol — a
// request head, an optional Content-Length body, a response head — and
// nothing else. This header is that slice, written as pure functions over
// byte buffers so it is trivially testable and owns no I/O:
//
//   * parse_request() consumes one request from the front of a buffer and
//     reports incomplete / ok / bad / too_large. Incremental by design:
//     callers append recv()'d bytes and re-parse; a request split across
//     any number of reads parses identically to one delivered whole
//     (the gateway's partial-read state machine leans on this).
//   * response_head() serializes the status line + the three headers every
//     response carries (Content-Type, Content-Length, Connection).
//   * query_param() pulls "key=value" integers out of a query string
//     ("/traces?n=32", "/fast?x=1234").
//
// Deliberately not here: chunked bodies, multi-line headers, percent
// decoding, HTTP/1.0 keep-alive negotiation. The framing is "HTTP-ish by
// construction": enough for curl, load generators and scrapers, small
// enough to audit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace redundancy::net::http {

/// One parsed request head (+ body view when Content-Length > 0). The
/// string_view members point into the caller's buffer and are valid only
/// until the buffer is mutated or the parsed bytes are consumed.
struct Request {
  std::string_view method;  ///< "GET", "POST", ... (verbatim, not policed)
  std::string_view target;  ///< request target as sent ("/fast?x=1")
  std::string_view path;    ///< target up to '?'
  std::string_view query;   ///< after '?' (empty when absent)
  std::string_view body;    ///< Content-Length bytes (parse_request only)
  std::size_t content_length = 0;  ///< declared body size
  bool keep_alive = true;   ///< HTTP/1.1 default; "Connection: close" clears
};

/// What a route handler returns; the server adds the status line,
/// Content-Length and Connection headers (response_head()).
struct Response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

enum class ParseStatus : std::uint8_t {
  incomplete,  ///< head (or declared body) not fully buffered yet
  ok,          ///< one complete request parsed
  bad,         ///< malformed request line / header — answer 400 and close
  too_large,   ///< head or body exceeds the caller's cap — 400/431 and close
};

struct ParseResult {
  ParseStatus status = ParseStatus::incomplete;
  Request request;            ///< valid only when status == ok
  std::size_t consumed = 0;   ///< bytes of `buffer` this request occupied
};

/// Parse one request *head* from the front of `buffer`: ok as soon as the
/// \r\n\r\n terminator and a well-formed request line are buffered, without
/// waiting for any declared body (`consumed` covers the head only; the
/// body view stays empty, content_length reports the declaration);
/// parse_request() builds on it. `max_request_bytes` caps the head (0 =
/// unlimited); a terminator still missing once the buffer passed the cap is
/// too_large. Request-smuggling guard: a Content-Length that fails to parse
/// as a plain decimal (signs, comma lists, overflow), a *repeated*
/// Content-Length header (even with an identical value), or any
/// Transfer-Encoding header (chunked framing is unimplemented) is bad — the
/// caller answers 400 and closes.
[[nodiscard]] ParseResult parse_head(std::string_view buffer,
                                     std::size_t max_request_bytes = 0);

/// Parse one full request (head + Content-Length body) from the front of
/// `buffer`; incomplete until both are buffered. `max_request_bytes` caps
/// head+body together. On ok, `consumed` is head+body length: keep-alive
/// callers erase that prefix and re-parse for pipelined requests.
[[nodiscard]] ParseResult parse_request(std::string_view buffer,
                                        std::size_t max_request_bytes = 0);

/// Standard reason phrase for the status codes the gateway emits (unknown
/// codes fall back to "OK").
[[nodiscard]] const char* reason_phrase(int status) noexcept;

/// "HTTP/1.1 <status> <phrase>\r\nContent-Type: ...\r\nContent-Length:
/// ...\r\nConnection: close|keep-alive\r\n\r\n".
[[nodiscard]] std::string response_head(int status,
                                        std::string_view content_type,
                                        std::size_t content_length,
                                        bool keep_alive);

/// Value of `key` in a query string ("n=32&x=7"), parsed as an unsigned
/// decimal; nullopt when absent or malformed.
[[nodiscard]] std::optional<std::uint64_t> query_param(std::string_view query,
                                                       std::string_view key);

}  // namespace redundancy::net::http
