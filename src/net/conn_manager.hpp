// net::ConnManager — listener + per-connection state machines on one
// EventLoop.
//
// Every connection is a small state machine driven entirely from the loop
// thread (no locks anywhere in this file):
//
//   reading ──parse ok──▶ dispatched ──respond()──▶ writing ─┬─▶ reading
//      │                      │                              └─▶ draining
//      └──── idle timeout / bad request / shed ──▶ writing(close) ─▶ ...
//
//   * reading:    buffering request bytes. The idle deadline is armed when
//                 the connection becomes idle and is NOT refreshed by
//                 partial reads — a slow-loris client dribbling one byte
//                 per tick cannot hold a slot past the deadline.
//   * dispatched: up to `max_pipeline` complete requests handed to the
//                 request handler (the gateway answers short routes on the
//                 spot and batches the rest into the engine). A request
//                 holds its pipeline slot until its response has left the
//                 socket; once the pipeline is full, read interest is
//                 dropped — further pipelined bytes stay buffered but
//                 unparsed, so a client cannot force unbounded in-flight
//                 work or response buffering; no timer runs (the handler
//                 owns its own latency).
//   * writing:    flushing responses. Responses may settle out of order
//                 but are sent strictly in request order: each dispatched
//                 request holds a sequence-numbered slot, and only the
//                 contiguous answered prefix moves to the wire. The flush
//                 is vectored — one sendmsg() covers the head+body iovecs
//                 of every response ready at that moment (no head-into-body
//                 copy, no per-response syscall under pipelining). A short
//                 write arms write interest and a write deadline; a peer
//                 that stops draining its receive window is cut off.
//   * draining:   response sent with Connection: close — shutdown(SHUT_WR)
//                 then discard input until EOF (or a drain deadline), the
//                 lingering close that lets the peer read the final bytes.
//
// Parsing runs in passes, iterated and never recursed: a pass dispatches
// every buffered request the pipeline admits, consuming each by advancing
// an offset into the input buffer, and ends in one vectored flush of the
// responses the handler gave inline during it. A respond() for a
// connection inside its own pass only queues; the pass flushes.
//
// Admission control happens at the two edges: accept() sheds beyond
// max_connections (accept-then-close, cheapest possible refusal), and a
// parsed request beyond max_inflight is answered 503 + close without ever
// reaching the engine. Both sheds are counted.
//
// Multi-reactor sharding hooks (the gateway runs N of these, one per
// loop): `reuseport` lets every reactor bind its own listening socket on
// the same port (the kernel spreads connections by 4-tuple hash).
// `metric_label` shards the gateway.* metric families per reactor ("loop=0"
// → `{loop="0"}`); empty keeps the single-loop unlabelled series.
// begin_batch()/flush_batch() bracket a completion drain so every response
// delivered in one burst to the same connection coalesces into one
// sendmsg().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "util/unique_function.hpp"

namespace redundancy::obs {
class Counter;
class Histogram;
}  // namespace redundancy::obs

namespace redundancy::net {

class ConnManager final : public IoHandler {
 public:
  struct Options {
    /// Bind 127.0.0.1:port; 0 picks an ephemeral port (read it back).
    std::uint16_t port = 0;
    int backlog = 128;
    /// Accept-side shed threshold (listener slot excluded).
    std::size_t max_connections = 10000;
    /// Requests dispatched but not yet responded; beyond this a parsed
    /// request is answered 503 and the connection closed.
    std::size_t max_inflight = 1024;
    std::uint64_t idle_timeout_ms = 30'000;   ///< reading, whole request
    std::uint64_t write_timeout_ms = 10'000;  ///< writing, whole response
    std::uint64_t drain_timeout_ms = 1'000;   ///< draining, until peer EOF
    std::size_t max_request_bytes = 1 << 20;
    /// >0: shrink SO_SNDBUF so tests can force partial writes / EAGAIN.
    int sndbuf_bytes = 0;
    /// Set SO_REUSEPORT before bind so N reactors can share one port.
    bool reuseport = false;
    /// Parsed requests whose responses have not yet left the socket,
    /// allowed per connection. 1 (the default) is the classic lockstep:
    /// one request in flight, reads paused until its response is flushed.
    /// >1 enables pipelining — responses still go out in request order.
    std::size_t max_pipeline = 1;
    /// Label spec for this manager's gateway.* metrics ("loop=0" renders
    /// `{loop="0"}`); empty = the unlabelled single-loop series.
    std::string metric_label;
  };

  /// Aggregate connection counts (loop thread only; for tests + /metrics).
  struct Stats {
    std::size_t connections = 0;  ///< live sockets in any state
    std::size_t inflight = 0;     ///< dispatched, awaiting respond()
  };

  /// Invoked on the loop thread once per parsed request. The Request's
  /// views are valid only for the duration of the call — copy what the
  /// handler needs. The handler must eventually cause respond(conn_id,...)
  /// on the loop thread (or the connection dies by timeout/teardown); it
  /// may do so before returning, and that response leaves with the rest of
  /// the parse pass. During the call dispatching_seq() names the request's
  /// pipeline slot; handlers that defer must capture it for the 3-arg
  /// respond().
  using RequestHandler =
      util::UniqueFunction<void(std::uint64_t conn_id,
                                const http::Request& request)>;

  ConnManager(EventLoop& loop, Options options);
  ConnManager(const ConnManager&) = delete;
  ConnManager& operator=(const ConnManager&) = delete;
  ~ConnManager();

  void set_request_handler(RequestHandler handler) {
    handler_ = std::move(handler);
  }

  /// Bind + listen + register with the loop. False on socket failure.
  [[nodiscard]] bool listen();
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Deliver the response for a dispatched request. Loop thread only. An
  /// unknown id (the connection was torn down while the request was in
  /// flight) is a counted no-op. The 2-arg form answers the connection's
  /// oldest unanswered request — exact with max_pipeline == 1; pipelining
  /// callers pass the seq captured from dispatching_seq().
  void respond(std::uint64_t conn_id, http::Response response);
  void respond(std::uint64_t conn_id, std::uint64_t seq,
               http::Response response);

  /// The pipeline slot of the request currently being dispatched — valid
  /// only inside the RequestHandler call.
  [[nodiscard]] std::uint64_t dispatching_seq() const noexcept {
    return dispatching_seq_;
  }

  /// Bracket a burst of respond() calls (a completion-queue drain): between
  /// begin and flush, responses queue per connection without touching the
  /// socket; flush_batch() then writes each touched connection once —
  /// several pipelined responses coalesce into one sendmsg(). Loop thread.
  void begin_batch();
  void flush_batch();

  /// Stop accepting (close the listener). Loop thread only.
  void stop_listening();
  /// Tear down every connection immediately. Loop thread only.
  void close_all();

  [[nodiscard]] Stats stats() const noexcept {
    return Stats{conns_.size(), inflight_};
  }

  /// Listener readiness: accept until EAGAIN, shedding past the cap.
  void on_io(std::uint32_t events) override;

 private:
  enum class ConnState : std::uint8_t { reading, dispatched, writing, draining };

  /// One dispatched (or locally answered) request awaiting its turn on the
  /// wire. Slots live in parse order; only the contiguous answered prefix
  /// is promoted to the flush queue, which keeps responses in request
  /// order no matter when workers finish.
  struct Slot {
    std::uint64_t seq = 0;
    bool answered = false;
    bool close_after = false;  ///< Connection: close (or a local error)
    std::uint64_t dispatch_t0_ns = 0;
    std::string head;  ///< serialized response head (answered only)
    std::string body;
  };

  /// One wire buffer in the vectored flush queue. Head and body stay
  /// separate strings — sendmsg() joins them as iovecs, so the old
  /// head-into-body copy is gone.
  struct Chunk {
    std::string data;
    bool end_of_response = false;  ///< last chunk of a response
    bool close_after = false;      ///< ... after which the conn drains
  };

  struct Conn final : IoHandler {
    Conn(ConnManager* m, int fd_, std::uint64_t id_)
        : mgr(m), fd(fd_), id(id_), timer(this) {}
    void on_io(std::uint32_t events) override { mgr->conn_io(*this, events); }

    ConnManager* mgr;
    int fd;
    std::uint64_t id;
    ConnState state = ConnState::reading;
    bool no_more_requests = false;  ///< a close response is queued: stop parsing
    bool close_now = false;         ///< close response flushed: drain next
    bool want_write = false;        ///< last flush hit EAGAIN
    bool in_dirty = false;          ///< queued in the batch dirty list
    bool parsing = false;           ///< inside a parse pass: it flushes
    std::uint32_t interest = kReadable;  ///< current epoll interest (cached)
    std::uint64_t next_seq = 1;
    std::string in;
    std::size_t in_off = 0;    ///< parsed bytes at the front of `in`
    std::deque<Slot> slots;    ///< dispatched requests, parse order
    std::deque<Chunk> flushq;  ///< response bytes ready for the wire
    std::size_t flush_off = 0;  ///< sent bytes of flushq.front()
    std::size_t unsent = 0;     ///< responses in flushq not fully sent
    TimerWheel::Timer timer;   ///< detaches itself on Conn destruction
  };

  /// Take ownership of an accepted, non-blocking fd. Sheds (closes) past
  /// max_connections.
  void adopt(int fd);
  void conn_io(Conn& conn, std::uint32_t events);
  void on_readable(Conn& conn);
  void on_writable(Conn& conn);
  void on_timeout(Conn& conn);
  /// May this connection parse + dispatch another request right now?
  [[nodiscard]] bool can_parse(const Conn& conn) const noexcept;
  /// Run parse passes until the buffer, admission or the pipeline stops
  /// them; each pass ends in one flush. May tear the connection down.
  void try_parse(Conn& conn);
  /// One pass: dispatch what the pipeline admits, then compact the input.
  /// Returns the requests consumed; the caller flushes.
  std::size_t parse_pass(Conn& conn);
  /// Queue a locally-generated response (400/408/431/503) and close after.
  void respond_now(Conn& conn, int status, std::string body);
  /// Move the contiguous answered slot prefix onto the flush queue.
  void promote(Conn& conn);
  /// Flush queued responses (vectored sendmsg until empty or EAGAIN); may
  /// tear the connection down — callers re-find by id afterwards. Never
  /// parses.
  void flush_conn(Conn& conn);
  /// flush_conn, then parse the requests the flush freed the pipeline for.
  void flush_and_resume(Conn& conn);
  /// Pop fully-sent chunks after a successful send of `n` bytes.
  void advance_flush(Conn& conn, std::size_t n);
  /// Flush now; or leave it to the connection's parse pass; or mark the
  /// connection dirty inside a begin_batch()/flush_batch() window.
  void flush_or_defer(Conn& conn);
  /// Recompute the priority-derived state; on a transition, bump the state
  /// counter and re-arm the state's deadline (idle/write) or cancel it.
  void update_state(Conn& conn);
  /// Recompute epoll interest from the state; modify() only on change.
  void update_interest(Conn& conn);
  void start_drain(Conn& conn);
  void teardown(Conn& conn);
  [[nodiscard]] std::size_t read_chunk_target() const noexcept;

  EventLoop& loop_;
  Options options_;
  RequestHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatching_seq_ = 0;
  std::size_t inflight_ = 0;
  bool batching_ = false;
  std::vector<std::uint64_t> dirty_;  ///< conns touched during a batch
  /// Running high-watermark of request sizes (decayed per request); sizes
  /// the shared recv scratch buffer and new connections' input reserves so
  /// steady-state reads neither zero-fill 16 KiB per recv() nor realloc.
  std::size_t in_hwm_ = 4096;
  std::string read_scratch_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;

  // Registry-owned counters, resolved once (obs::counter is find-or-create
  // under a registry lock; the serving path should not take it per event).
  obs::Counter* accepted_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* responses_ = nullptr;
  obs::Counter* sends_ = nullptr;
  obs::Counter* shed_conns_ = nullptr;
  obs::Counter* shed_inflight_ = nullptr;
  obs::Counter* timeouts_idle_ = nullptr;
  obs::Counter* timeouts_write_ = nullptr;
  obs::Counter* bad_requests_ = nullptr;
  obs::Counter* orphan_responses_ = nullptr;
  obs::Counter* state_reading_ = nullptr;
  obs::Counter* state_dispatched_ = nullptr;
  obs::Counter* state_writing_ = nullptr;
  obs::Counter* state_draining_ = nullptr;
  obs::Histogram* request_ns_ = nullptr;
};

}  // namespace redundancy::net
