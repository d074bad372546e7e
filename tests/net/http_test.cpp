// net::http parser/serializer unit tests: the framing contract net::Gateway
// relies on, exercised as pure functions over byte buffers — including the
// split-across-reads incrementality the gateway's partial-read state
// machine depends on.
#include "net/http.hpp"

#include <gtest/gtest.h>

#include <string>

namespace redundancy::net::http {
namespace {

TEST(HttpParse, SimpleGet) {
  const std::string raw = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  const ParseResult r = parse_request(raw);
  ASSERT_EQ(r.status, ParseStatus::ok);
  EXPECT_EQ(r.request.method, "GET");
  EXPECT_EQ(r.request.target, "/metrics");
  EXPECT_EQ(r.request.path, "/metrics");
  EXPECT_EQ(r.request.query, "");
  EXPECT_EQ(r.request.content_length, 0u);
  EXPECT_TRUE(r.request.keep_alive);
  EXPECT_EQ(r.consumed, raw.size());
}

TEST(HttpParse, QuerySplitAndParams) {
  const ParseResult r =
      parse_request("GET /traces?n=32&x=7 HTTP/1.1\r\n\r\n");
  ASSERT_EQ(r.status, ParseStatus::ok);
  EXPECT_EQ(r.request.path, "/traces");
  EXPECT_EQ(r.request.query, "n=32&x=7");
  EXPECT_EQ(query_param(r.request.query, "n"), 32u);
  EXPECT_EQ(query_param(r.request.query, "x"), 7u);
  EXPECT_EQ(query_param(r.request.query, "y"), std::nullopt);
  EXPECT_EQ(query_param("n=", "n"), std::nullopt);
  EXPECT_EQ(query_param("n=abc", "n"), std::nullopt);
  EXPECT_EQ(query_param("nn=5", "n"), std::nullopt);
  EXPECT_EQ(query_param("a=1&n=99999999999999999999999", "n"), std::nullopt);
}

TEST(HttpParse, IncrementalAcrossArbitrarySplits) {
  const std::string raw =
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  // Every prefix short of the full request must be incomplete; the full
  // buffer must parse identically no matter how it arrived.
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    const ParseResult partial = parse_request(raw.substr(0, cut));
    EXPECT_EQ(partial.status, ParseStatus::incomplete) << "cut=" << cut;
  }
  const ParseResult r = parse_request(raw);
  ASSERT_EQ(r.status, ParseStatus::ok);
  EXPECT_EQ(r.request.method, "POST");
  EXPECT_EQ(r.request.body, "hello");
  EXPECT_EQ(r.consumed, raw.size());
}

TEST(HttpParse, HeadOnlyDoesNotAwaitBody) {
  const std::string raw =
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
  const ParseResult head = parse_head(raw);
  ASSERT_EQ(head.status, ParseStatus::ok);
  EXPECT_EQ(head.request.content_length, 5u);
  EXPECT_EQ(head.request.body, "");
  EXPECT_EQ(head.consumed, raw.size());
  // The full-request parser on the same bytes still waits.
  EXPECT_EQ(parse_request(raw).status, ParseStatus::incomplete);
}

TEST(HttpParse, PipelinedRequestsConsumeOneAtATime) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  std::string buffer = first + second;
  const ParseResult r1 = parse_request(buffer);
  ASSERT_EQ(r1.status, ParseStatus::ok);
  EXPECT_EQ(r1.request.path, "/a");
  EXPECT_EQ(r1.consumed, first.size());
  buffer.erase(0, r1.consumed);
  const ParseResult r2 = parse_request(buffer);
  ASSERT_EQ(r2.status, ParseStatus::ok);
  EXPECT_EQ(r2.request.path, "/b");
}

TEST(HttpParse, MalformedRequestLineIsBad) {
  EXPECT_EQ(parse_request("GET\r\n\r\n").status, ParseStatus::bad);
  EXPECT_EQ(parse_request("GET /x\r\n\r\n").status, ParseStatus::bad);
  EXPECT_EQ(parse_request(" GET /x HTTP/1.1\r\n\r\n").status,
            ParseStatus::bad);
  EXPECT_EQ(parse_request("GET  HTTP/1.1\r\n\r\n").status, ParseStatus::bad);
}

TEST(HttpParse, MalformedContentLengthIsBad) {
  EXPECT_EQ(
      parse_request("POST /e HTTP/1.1\r\nContent-Length: x\r\n\r\n").status,
      ParseStatus::bad);
  EXPECT_EQ(parse_request(
                "POST /e HTTP/1.1\r\nContent-Length: 184467440737095516160"
                "\r\n\r\n")
                .status,
            ParseStatus::bad);
}

TEST(HttpParse, DuplicateContentLengthIsBad) {
  // Request-smuggling guard: two Content-Length headers mean two parties
  // could frame the message differently — even an identical repeat is
  // rejected instead of picking a winner.
  EXPECT_EQ(parse_request("POST /e HTTP/1.1\r\nContent-Length: 2\r\n"
                          "Content-Length: 2\r\n\r\nok")
                .status,
            ParseStatus::bad);
}

TEST(HttpParse, ConflictingContentLengthIsBad) {
  EXPECT_EQ(parse_request("POST /e HTTP/1.1\r\nContent-Length: 2\r\n"
                          "Content-Length: 4\r\n\r\nokok")
                .status,
            ParseStatus::bad);
}

TEST(HttpParse, SignedContentLengthIsBad) {
  // Signs must fail outright, never silently clamp to zero.
  EXPECT_EQ(
      parse_request("POST /e HTTP/1.1\r\nContent-Length: -1\r\n\r\n").status,
      ParseStatus::bad);
  EXPECT_EQ(
      parse_request("POST /e HTTP/1.1\r\nContent-Length: +0\r\n\r\n").status,
      ParseStatus::bad);
}

TEST(HttpParse, CommaListContentLengthIsBad) {
  // "4, 4" is how a folded duplicate arrives through some proxies.
  EXPECT_EQ(parse_request(
                "POST /e HTTP/1.1\r\nContent-Length: 4, 4\r\n\r\nokok")
                .status,
            ParseStatus::bad);
}

TEST(HttpParse, TransferEncodingIsBad) {
  // Chunked framing is unimplemented; accepting the header while framing
  // by Content-Length is exactly how requests get smuggled.
  EXPECT_EQ(parse_request("POST /e HTTP/1.1\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n"
                          "0\r\n\r\n")
                .status,
            ParseStatus::bad);
  EXPECT_EQ(parse_request("POST /e HTTP/1.1\r\nContent-Length: 2\r\n"
                          "Transfer-Encoding: identity\r\n\r\nok")
                .status,
            ParseStatus::bad);
}

TEST(HttpParse, HeaderNamesAreCaseInsensitive) {
  const std::string raw =
      "POST /e HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\nCONNECTION: Close\r\n\r\nok";
  const ParseResult r = parse_request(raw);
  ASSERT_EQ(r.status, ParseStatus::ok);
  EXPECT_EQ(r.request.body, "ok");
  EXPECT_FALSE(r.request.keep_alive);
}

TEST(HttpParse, ConnectionKeepAliveStaysOn) {
  const ParseResult r = parse_request(
      "GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_EQ(r.status, ParseStatus::ok);
  EXPECT_TRUE(r.request.keep_alive);
}

TEST(HttpParse, OversizedHeadIsTooLarge) {
  std::string raw = "GET /x HTTP/1.1\r\nPad: ";
  raw.append(300, 'a');
  // No terminator and already past the cap: can never fit.
  EXPECT_EQ(parse_request(raw, 128).status, ParseStatus::too_large);
  raw += "\r\n\r\n";
  EXPECT_EQ(parse_request(raw, 128).status, ParseStatus::too_large);
  // Same bytes with room to spare are fine.
  EXPECT_EQ(parse_request(raw, 4096).status, ParseStatus::ok);
}

TEST(HttpParse, OversizedBodyIsTooLarge) {
  const std::string raw =
      "POST /e HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
  EXPECT_EQ(parse_request(raw, 128).status, ParseStatus::too_large);
  // parse_head does not police the declared body size, only the head.
  EXPECT_EQ(parse_head(raw, 128).status, ParseStatus::ok);
}

TEST(HttpParse, UncappedBufferNeverTooLarge) {
  std::string raw = "GET /x HTTP/1.1\r\nPad: ";
  raw.append(100000, 'a');
  EXPECT_EQ(parse_request(raw).status, ParseStatus::incomplete);
}

TEST(HttpResponseHead, SerializesStatusAndFraming) {
  EXPECT_EQ(response_head(200, "text/plain", 5, true),
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
            "Content-Length: 5\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_EQ(response_head(503, "text/plain", 0, false),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain"
            "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
}

TEST(HttpResponseHead, ReasonPhrases) {
  EXPECT_STREQ(reason_phrase(404), "Not Found");
  EXPECT_STREQ(reason_phrase(405), "Method Not Allowed");
  EXPECT_STREQ(reason_phrase(408), "Request Timeout");
  EXPECT_STREQ(reason_phrase(431), "Request Header Fields Too Large");
  EXPECT_STREQ(reason_phrase(500), "Internal Server Error");
  EXPECT_STREQ(reason_phrase(299), "OK");  // unknown codes fall back
}

}  // namespace
}  // namespace redundancy::net::http
