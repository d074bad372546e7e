#include "net/conn_manager.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "obs/obs.hpp"

namespace redundancy::net {

namespace {

constexpr std::size_t kReadChunkMin = 4 * 1024;
constexpr std::size_t kReadChunkMax = 64 * 1024;
/// iovecs per sendmsg(); far below any IOV_MAX, plenty for a drain burst.
constexpr std::size_t kMaxIov = 64;

}  // namespace

ConnManager::ConnManager(EventLoop& loop, Options options)
    : loop_(loop), options_(std::move(options)) {
  const std::string& label = options_.metric_label;
  accepted_ = &obs::counter("gateway.accepted", label);
  closed_ = &obs::counter("gateway.closed", label);
  requests_ = &obs::counter("gateway.requests", label);
  responses_ = &obs::counter("gateway.responses", label);
  sends_ = &obs::counter("gateway.sends", label);
  shed_conns_ = &obs::counter("gateway.shed_connections", label);
  shed_inflight_ = &obs::counter("gateway.shed_inflight", label);
  timeouts_idle_ = &obs::counter("gateway.timeouts_idle", label);
  timeouts_write_ = &obs::counter("gateway.timeouts_write", label);
  bad_requests_ = &obs::counter("gateway.bad_requests", label);
  orphan_responses_ = &obs::counter("gateway.orphan_responses", label);
  state_reading_ = &obs::counter("gateway.conn_reading", label);
  state_dispatched_ = &obs::counter("gateway.conn_dispatched", label);
  state_writing_ = &obs::counter("gateway.conn_writing", label);
  state_draining_ = &obs::counter("gateway.conn_draining", label);
  request_ns_ = &obs::histogram("gateway.request_ns", label);
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
}

ConnManager::~ConnManager() {
  close_all();
  stop_listening();
}

bool ConnManager::listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if ((options_.reuseport && ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT,
                                          &one, sizeof one) != 0) ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (!loop_.add(listen_fd_, kReadable, this)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

void ConnManager::stop_listening() {
  if (listen_fd_ < 0) return;
  loop_.remove(listen_fd_);
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ConnManager::close_all() {
  // teardown() erases from conns_; drain by repeatedly taking the first.
  while (!conns_.empty()) teardown(*conns_.begin()->second);
}

void ConnManager::on_io(std::uint32_t events) {
  if ((events & kReadable) == 0) return;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: backlog drained (other errors: retry next wakeup)
    }
    adopt(fd);
  }
}

void ConnManager::adopt(int fd) {
  if (conns_.size() >= options_.max_connections) {
    // Accept-then-close is the cheapest refusal: the peer sees an
    // immediate RST/EOF instead of hanging in the backlog.
    shed_conns_->add();
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (options_.sndbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                 sizeof options_.sndbuf_bytes);
  }
  const std::uint64_t id = next_id_++;
  auto conn = std::make_unique<Conn>(this, fd, id);
  Conn& c = *conn;
  if (!loop_.add(fd, kReadable, &c)) {
    ::close(fd);
    return;
  }
  c.in.reserve(read_chunk_target());
  conns_.emplace(id, std::move(conn));
  accepted_->add();
  state_reading_->add();
  loop_.timers().arm(c.timer, loop_.now_ms(), options_.idle_timeout_ms);
}

void ConnManager::conn_io(Conn& conn, std::uint32_t events) {
  if (events == 0) {  // timer fired
    on_timeout(conn);
    return;
  }
  if (events & kError) {
    teardown(conn);
    return;
  }
  if (events & kWritable) {
    const std::uint64_t id = conn.id;  // on_writable may destroy conn
    on_writable(conn);
    if (conns_.find(id) == conns_.end()) return;
  }
  if (events & (kReadable | kHangup)) on_readable(conn);
}

std::size_t ConnManager::read_chunk_target() const noexcept {
  // Power-of-two bucketing keeps the target stable while the decayed
  // high-watermark drifts, so the scratch buffer is not resized per event.
  std::size_t want = kReadChunkMin;
  while (want < in_hwm_ && want < kReadChunkMax) want <<= 1;
  return want;
}

void ConnManager::on_readable(Conn& conn) {
  const std::size_t chunk = read_chunk_target();
  if (read_scratch_.size() != chunk) read_scratch_.assign(chunk, '\0');
  for (;;) {
    // recv() into the shared scratch, append only the bytes that arrived:
    // the old resize(+16 KiB)-then-shrink pattern zero-filled the whole
    // chunk on every wakeup; this touches exactly what the kernel wrote.
    const ssize_t n = ::recv(conn.fd, read_scratch_.data(), chunk, 0);
    if (n > 0) {
      if (conn.state != ConnState::draining) {
        conn.in.append(read_scratch_.data(), static_cast<std::size_t>(n));
      }
      if (static_cast<std::size_t>(n) < chunk) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    teardown(conn);  // EOF or hard error
    return;
  }
  try_parse(conn);
}

bool ConnManager::can_parse(const Conn& conn) const noexcept {
  if (conn.state == ConnState::draining || conn.no_more_requests) return false;
  // A request holds its slot until its response has left the socket, so a
  // lockstep connection (max_pipeline == 1) parses the next request only
  // after the previous response is flushed — the historical
  // single-request-in-flight discipline the unit tests pin down — and a
  // pipelining peer that stops reading cannot make responses pile up.
  return conn.slots.size() + conn.unsent < options_.max_pipeline;
}

void ConnManager::try_parse(Conn& conn) {
  const std::uint64_t id = conn.id;
  while (can_parse(conn) && conn.in_off < conn.in.size()) {
    const std::size_t consumed = parse_pass(conn);
    // A handler may have torn the connection down; flushes cannot have.
    if (conns_.find(id) == conns_.end()) return;
    flush_conn(conn);
    if (conns_.find(id) == conns_.end() || consumed == 0) return;
  }
}

std::size_t ConnManager::parse_pass(Conn& conn) {
  const std::uint64_t id = conn.id;
  std::size_t consumed = 0;
  conn.parsing = true;
  while (can_parse(conn)) {
    const http::ParseResult r = http::parse_request(
        std::string_view{conn.in}.substr(conn.in_off),
        options_.max_request_bytes);
    if (r.status == http::ParseStatus::incomplete) {
      // Deliberately no timer refresh: the idle deadline covers the
      // *whole* request, so trickled bytes never extend it (slow loris).
      break;
    }
    if (r.status != http::ParseStatus::ok) {
      bad_requests_->add();
      if (r.status == http::ParseStatus::bad) {
        respond_now(conn, 400, "bad request\n");
      } else {
        respond_now(conn, 431, "request too large\n");
      }
      break;
    }
    // Consumed by advancing the offset; the request's views stay valid
    // through the handler call because `in` is only compacted (and only
    // appended to) between passes.
    conn.in_off += r.consumed;
    ++consumed;
    requests_->add();
    in_hwm_ = std::max(r.consumed, in_hwm_ - in_hwm_ / 16);
    if (inflight_ >= options_.max_inflight) {
      shed_inflight_->add();
      respond_now(conn, 503, "overloaded\n");
      break;
    }
    if (!handler_) {
      respond_now(conn, 500, "no handler\n");
      break;
    }
    Slot slot;
    slot.seq = conn.next_seq++;
    slot.close_after = !r.request.keep_alive;
    slot.dispatch_t0_ns = obs::now_ns();
    if (slot.close_after) conn.no_more_requests = true;
    conn.slots.push_back(std::move(slot));
    ++inflight_;
    update_state(conn);  // reading → dispatched: cancel the idle timer
    dispatching_seq_ = conn.slots.back().seq;
    handler_(id, r.request);
    dispatching_seq_ = 0;
    if (conns_.find(id) == conns_.end()) return consumed;
  }
  conn.parsing = false;
  // Compact once per pass, and only when the parsed prefix outweighs the
  // rest: every byte is moved at most once more than it is parsed, however
  // many passes a long pipelined burst takes.
  if (conn.in_off == conn.in.size()) {
    conn.in.clear();
    conn.in_off = 0;
  } else if (conn.in_off * 2 >= conn.in.size()) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  return consumed;
}

void ConnManager::respond(std::uint64_t conn_id, http::Response response) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    orphan_responses_->add();
    return;
  }
  // Oldest unanswered slot — exact with max_pipeline == 1 (there is at most
  // one), first-come order otherwise.
  for (const Slot& slot : it->second->slots) {
    if (!slot.answered) {
      respond(conn_id, slot.seq, std::move(response));
      return;
    }
  }
  orphan_responses_->add();
}

void ConnManager::respond(std::uint64_t conn_id, std::uint64_t seq,
                          http::Response response) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    // The connection died (timeout/teardown) while its request was in
    // flight; the slot was already released by teardown().
    orphan_responses_->add();
    return;
  }
  Conn& conn = *it->second;
  Slot* slot = nullptr;
  for (Slot& s : conn.slots) {
    if (s.seq == seq && !s.answered) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) {
    orphan_responses_->add();
    return;
  }
  --inflight_;
  request_ns_->record(obs::now_ns() - slot->dispatch_t0_ns);
  slot->answered = true;
  slot->head = http::response_head(response.status, response.content_type,
                                   response.body.size(),
                                   /*keep_alive=*/!slot->close_after);
  slot->body = std::move(response.body);
  promote(conn);
  update_state(conn);
  flush_or_defer(conn);
}

void ConnManager::respond_now(Conn& conn, int status, std::string body) {
  // A locally-generated response (400/408/431/503) still takes a pipeline
  // slot: it must leave the socket AFTER every response already owed for
  // earlier pipelined requests. It closes the connection, so no further
  // requests are parsed behind it.
  Slot slot;
  slot.seq = conn.next_seq++;
  slot.answered = true;
  slot.close_after = true;
  slot.head = http::response_head(status, "text/plain; charset=utf-8",
                                  body.size(), /*keep_alive=*/false);
  slot.body = std::move(body);
  conn.slots.push_back(std::move(slot));
  conn.no_more_requests = true;
  promote(conn);
  update_state(conn);
  flush_or_defer(conn);
}

void ConnManager::promote(Conn& conn) {
  while (!conn.slots.empty() && conn.slots.front().answered) {
    Slot& slot = conn.slots.front();
    ++conn.unsent;
    const bool close_after = slot.close_after;
    if (slot.body.empty()) {
      conn.flushq.push_back({std::move(slot.head), true, close_after});
    } else {
      conn.flushq.push_back({std::move(slot.head), false, false});
      conn.flushq.push_back({std::move(slot.body), true, close_after});
    }
    conn.slots.pop_front();
  }
}

void ConnManager::flush_or_defer(Conn& conn) {
  if (conn.flushq.empty() || conn.parsing) return;
  if (batching_) {
    if (!conn.in_dirty) {
      conn.in_dirty = true;
      dirty_.push_back(conn.id);
    }
    return;
  }
  flush_and_resume(conn);
}

void ConnManager::begin_batch() { batching_ = true; }

void ConnManager::flush_batch() {
  batching_ = false;
  // Index loop, id re-lookup each step: a flush may tear its connection
  // down (or, via a resumed parse, answer another one mid-iteration).
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    auto it = conns_.find(dirty_[i]);
    if (it == conns_.end()) continue;
    it->second->in_dirty = false;
    flush_and_resume(*it->second);
  }
  dirty_.clear();
}

void ConnManager::flush_conn(Conn& conn) {
  while (!conn.flushq.empty()) {
    // Vectored flush: one sendmsg() covers every queued head/body chunk (up
    // to kMaxIov) — pipelined responses and head+body pairs coalesce into
    // one syscall instead of one send() per concatenated response.
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t skip = conn.flush_off;
    for (const Chunk& chunk : conn.flushq) {
      if (niov == kMaxIov) break;
      if (skip >= chunk.data.size()) {  // only the front chunk can be partial
        skip -= chunk.data.size();
        continue;
      }
      iov[niov].iov_base = const_cast<char*>(chunk.data.data()) + skip;
      iov[niov].iov_len = chunk.data.size() - skip;
      skip = 0;
      ++niov;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      sends_->add();
      advance_flush(conn, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Peer not draining: wait for writability under the write deadline.
      conn.want_write = true;
      update_interest(conn);
      return;
    }
    teardown(conn);  // EPIPE/ECONNRESET: peer is gone
    return;
  }
  conn.want_write = false;
  if (conn.close_now) {
    start_drain(conn);
    return;
  }
  update_state(conn);
  update_interest(conn);
}

void ConnManager::flush_and_resume(Conn& conn) {
  const std::uint64_t id = conn.id;
  flush_conn(conn);
  // Pipelined bytes may already hold the next request.
  const auto it = conns_.find(id);
  if (it != conns_.end()) try_parse(*it->second);
}

void ConnManager::advance_flush(Conn& conn, std::size_t n) {
  conn.flush_off += n;
  while (!conn.flushq.empty() &&
         conn.flush_off >= conn.flushq.front().data.size()) {
    const Chunk& chunk = conn.flushq.front();
    conn.flush_off -= chunk.data.size();
    if (chunk.end_of_response) {
      --conn.unsent;
      responses_->add();
      if (chunk.close_after) conn.close_now = true;
    }
    conn.flushq.pop_front();
  }
}

void ConnManager::on_writable(Conn& conn) {
  if (conn.flushq.empty()) return;
  flush_and_resume(conn);
}

void ConnManager::update_state(Conn& conn) {
  if (conn.state == ConnState::draining) return;  // absorbing; teardown only
  ConnState next;
  if (!conn.flushq.empty()) {
    next = ConnState::writing;
  } else if (!conn.slots.empty()) {
    next = ConnState::dispatched;
  } else {
    next = ConnState::reading;
  }
  if (next == conn.state) return;
  conn.state = next;
  switch (next) {
    case ConnState::reading:
      state_reading_->add();
      loop_.timers().arm(conn.timer, loop_.now_ms(), options_.idle_timeout_ms);
      break;
    case ConnState::dispatched:
      state_dispatched_->add();
      loop_.timers().cancel(conn.timer);  // the handler owns its own latency
      break;
    case ConnState::writing:
      state_writing_->add();
      loop_.timers().arm(conn.timer, loop_.now_ms(),
                         options_.write_timeout_ms);
      break;
    case ConnState::draining:
      break;  // unreachable: start_drain owns this transition
  }
}

void ConnManager::update_interest(Conn& conn) {
  std::uint32_t want = 0;
  if (conn.state == ConnState::draining) {
    want = kReadable;  // watch for the peer's EOF, discard everything else
  } else {
    if (conn.want_write) want |= kWritable;
    if (!conn.no_more_requests &&
        conn.slots.size() + conn.unsent < options_.max_pipeline) {
      want |= kReadable;
    }
  }
  if (want == conn.interest) return;  // skip the epoll_ctl syscall
  loop_.modify(conn.fd, want);
  conn.interest = want;
}

void ConnManager::start_drain(Conn& conn) {
  conn.state = ConnState::draining;
  state_draining_->add();
  conn.in.clear();
  conn.in_off = 0;
  ::shutdown(conn.fd, SHUT_WR);
  loop_.modify(conn.fd, kReadable);
  conn.interest = kReadable;
  loop_.timers().arm(conn.timer, loop_.now_ms(), options_.drain_timeout_ms);
}

void ConnManager::on_timeout(Conn& conn) {
  switch (conn.state) {
    case ConnState::reading:
      timeouts_idle_->add();
      respond_now(conn, 408, "request timeout\n");
      return;
    case ConnState::dispatched:
      return;  // no timer runs here; spurious fire after a state change
    case ConnState::writing:
      timeouts_write_->add();
      teardown(conn);
      return;
    case ConnState::draining:
      teardown(conn);
      return;
  }
}

void ConnManager::teardown(Conn& conn) {
  // Responses for still-unanswered slots will arrive later and find no
  // connection; release their admission slots now.
  for (const Slot& slot : conn.slots) {
    if (!slot.answered) --inflight_;
  }
  closed_->add();
  const std::uint64_t id = conn.id;
  loop_.remove(conn.fd);
  ::close(conn.fd);
  conns_.erase(id);  // destroys conn (timer detaches itself)
}

}  // namespace redundancy::net
