#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace openbg::net {

/// One accepted connection. Owned (via shared_ptr) by its event thread's
/// `conns` map; workers completing requests hold a second reference, so
/// the fd outlives any in-flight completion that still wants to queue a
/// response (QueueFrame checks `closed` and drops the frame instead).
struct Server::Conn {
  int fd = -1;
  size_t owner = 0;  // index of the owning event thread

  // Read-side state: touched ONLY by the owning event thread.
  std::string in;        // unparsed bytes; frames may span many reads
  bool goaway = false;   // framing lost: close once the output flushes
  bool epollout = false; // EPOLLOUT currently armed

  // Write-side queue: whole encoded frames, appended by any thread under
  // out_mu, drained in order by the owning event thread (single-writer
  // discipline — this is what makes torn frames structurally impossible).
  std::mutex out_mu;
  std::deque<std::string> out;
  size_t out_off = 0;  // bytes of out.front() already written

  std::atomic<int> inflight{0};   // engine calls not yet queued back
  std::atomic<bool> closed{false};

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

struct Server::EventThread {
  size_t index = 0;
  int epfd = -1;
  int wake_fd = -1;  // eventfd: flush work, adoptions, stop requests
  std::thread thread;

  // Cross-thread mailboxes (mu-guarded): fds accepted by thread 0 waiting
  // to be adopted here, and connections with freshly queued output.
  std::mutex mu;
  std::vector<int> incoming;
  std::vector<std::shared_ptr<Conn>> flush_queue;

  // Owned connections; touched only by this thread.
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  ~EventThread() {
    if (epfd >= 0) ::close(epfd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Server::Server(serve::QueryEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      governor_(options_.governor) {
  if (options_.event_threads == 0) options_.event_threads = 1;
  if (options_.worker_threads == 0) options_.worker_threads = 1;
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) Stop();
}

util::Status Server::Start() {
  if (started_.exchange(true)) {
    return util::Status::InvalidArgument("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return util::Status::IoError(
        util::StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::InvalidArgument("bad host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    util::Status s = util::Status::IoError(
        util::StrFormat("bind %s:%u: %s", options_.host.c_str(),
                        unsigned{options_.port}, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    util::Status s = util::Status::IoError(
        util::StrFormat("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  workers_ = std::make_unique<util::ThreadPool>(options_.worker_threads);

  threads_.clear();
  for (size_t i = 0; i < options_.event_threads; ++i) {
    auto et = std::make_unique<EventThread>();
    et->index = i;
    et->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    et->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (et->epfd < 0 || et->wake_fd < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return util::Status::IoError("epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = et->wake_fd;
    ::epoll_ctl(et->epfd, EPOLL_CTL_ADD, et->wake_fd, &ev);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.fd = listen_fd_;
      ::epoll_ctl(et->epfd, EPOLL_CTL_ADD, listen_fd_, &lev);
    }
    threads_.push_back(std::move(et));
  }
  for (size_t i = 0; i < threads_.size(); ++i) {
    threads_[i]->thread = std::thread([this, i] { EventLoop(i); });
  }
  return util::Status::OK();
}

void Server::WakeThread(size_t index) {
  const uint64_t one = 1;
  // write(2) is async-signal-safe; intentional no-retry (an EAGAIN means
  // the counter is already nonzero, i.e. the thread is waking anyway).
  [[maybe_unused]] ssize_t n =
      ::write(threads_[index]->wake_fd, &one, sizeof(one));
}

void Server::RequestStop() {
  stop_.store(true, std::memory_order_release);
  for (size_t i = 0; i < threads_.size(); ++i) WakeThread(i);
}

void Server::Wait() {
  for (auto& et : threads_) {
    if (et->thread.joinable()) et->thread.join();
  }
  // Event threads only exit once every in-flight engine call completed
  // (or the drain deadline force-dropped the connection); joining the
  // pool here just releases the worker threads.
  workers_.reset();
  // With every thread joined, sweep the cross-thread mailboxes: an fd
  // accepted for a thread that had already exited must still be closed,
  // and Conn references parked in a dead thread's flush_queue (pushed by
  // a worker racing the thread's exit) must be released.
  for (auto& et : threads_) {
    std::lock_guard<std::mutex> lock(et->mu);
    for (int fd : et->incoming) ::close(fd);
    et->incoming.clear();
    et->flush_queue.clear();
  }
}

void Server::Stop() {
  RequestStop();
  Wait();
}

void Server::EventLoop(size_t index) {
  EventThread* et = threads_[index].get();
  bool draining = false;
  uint64_t drain_start_ms = 0;
  epoll_event events[64];

  for (;;) {
    const int timeout_ms = draining ? 5 : 100;
    int n = ::epoll_wait(et->epfd, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == et->wake_fd) {
        uint64_t drain_count;
        while (::read(et->wake_fd, &drain_count, sizeof(drain_count)) > 0) {
        }
        continue;
      }
      if (index == 0 && fd == listen_fd_ && listen_fd_ >= 0) {
        AcceptReady(et);
        continue;
      }
      auto it = et->conns.find(fd);
      if (it == et->conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      bool alive = true;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        alive = false;
      } else {
        if (events[i].events & EPOLLIN) alive = ReadReady(et, conn);
        if (alive && (events[i].events & EPOLLOUT)) {
          alive = FlushConn(et, conn);
        }
      }
      if (!alive) CloseConn(et, conn);
    }

    AdoptIncoming(et);

    // Drain the flush mailbox: connections other threads queued output on.
    std::vector<std::shared_ptr<Conn>> flushes;
    {
      std::lock_guard<std::mutex> lock(et->mu);
      flushes.swap(et->flush_queue);
    }
    for (const auto& conn : flushes) {
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if (!FlushConn(et, conn)) CloseConn(et, conn);
    }

    if (!draining && stop_.load(std::memory_order_acquire)) {
      draining = true;
      drain_start_ms = NowMs();
      if (index == 0 && listen_fd_ >= 0) {
        ::epoll_ctl(et->epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }

    if (draining) {
      // Close every connection that is fully quiesced: no engine call in
      // flight, nothing buffered, no unread input. New requests arriving
      // meanwhile get kShuttingDown answers (HandleFrame), which still
      // flush first — the client always sees complete frames, then a clean
      // EOF. Unread input counts as busy because Linux answers a close
      // over a non-empty receive queue with RST, which would discard the
      // very answers still queued for the peer.
      std::vector<std::shared_ptr<Conn>> quiesced;
      for (auto& [fd, conn] : et->conns) {
        int unread = 0;
        bool idle = conn->inflight.load(std::memory_order_acquire) == 0 &&
                    conn->in.empty() &&
                    ::ioctl(conn->fd, FIONREAD, &unread) == 0 && unread == 0;
        if (idle) {
          std::lock_guard<std::mutex> lock(conn->out_mu);
          idle = conn->out.empty();
        }
        if (idle) quiesced.push_back(conn);
      }
      for (const auto& conn : quiesced) CloseConn(et, conn);
      if (et->conns.empty()) break;
      if (NowMs() - drain_start_ms >= options_.drain_deadline_ms) {
        // Deadline: finish the partially-written front frame (bounded
        // blocking write — never leave a torn frame), drop the rest.
        std::vector<std::shared_ptr<Conn>> remaining;
        for (auto& [fd, conn] : et->conns) remaining.push_back(conn);
        for (const auto& conn : remaining) {
          std::lock_guard<std::mutex> lock(conn->out_mu);
          if (conn->out_off > 0 && !conn->out.empty()) {
            timeval tv{0, 200000};  // 200ms best-effort budget
            ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
            const std::string& front = conn->out.front();
            while (conn->out_off < front.size()) {
              ssize_t w = ::send(conn->fd, front.data() + conn->out_off,
                                 front.size() - conn->out_off, MSG_NOSIGNAL);
              if (w <= 0) break;
              conn->out_off += static_cast<size_t>(w);
            }
          }
          conn->out.clear();
          conn->out_off = 0;
        }
        for (const auto& conn : remaining) CloseConn(et, conn);
        break;
      }
    }
  }

  // Belt-and-braces: anything still registered goes down with the loop.
  std::vector<std::shared_ptr<Conn>> leftover;
  for (auto& [fd, conn] : et->conns) leftover.push_back(conn);
  for (const auto& conn : leftover) CloseConn(et, conn);
}

void Server::AcceptReady(EventThread* et) {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept error: wait for the next event
    }
    if (util::failpoints::Triggered(kFpAccept)) {
      ::close(fd);
      accept_faults_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    SetNoDelay(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const size_t target =
        next_thread_.fetch_add(1, std::memory_order_relaxed) %
        threads_.size();
    if (target == et->index) {
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->owner = et->index;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(et->epfd, EPOLL_CTL_ADD, fd, &ev);
      et->conns.emplace(fd, std::move(conn));
    } else {
      {
        std::lock_guard<std::mutex> lock(threads_[target]->mu);
        threads_[target]->incoming.push_back(fd);
      }
      WakeThread(target);
    }
  }
}

void Server::AdoptIncoming(EventThread* et) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(et->mu);
    fds.swap(et->incoming);
  }
  for (int fd : fds) {
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);  // refuse adoptions mid-drain
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->owner = et->index;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(et->epfd, EPOLL_CTL_ADD, fd, &ev);
    et->conns.emplace(fd, std::move(conn));
  }
}

bool Server::ReadReady(EventThread* et, const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  // Bounded rounds so one firehose connection cannot starve its siblings;
  // level-triggered epoll re-fires if bytes remain.
  for (int round = 0; round < 256; ++round) {
    size_t cap = sizeof(buf);
    // net::read failpoint: clamp to 1-byte reads, stressing frame
    // reassembly across syscall boundaries.
    if (util::failpoints::Triggered(kFpRead)) cap = 1;
    ssize_t r = ::recv(conn->fd, buf, cap, 0);
    if (r > 0) {
      conn->in.append(buf, static_cast<size_t>(r));
      if (!ParseFrames(et, conn)) return false;
      if (conn->goaway) return true;  // stop consuming, flush then close
      if (static_cast<size_t>(r) < cap) return true;  // drained
      continue;
    }
    if (r == 0) return false;  // clean EOF from the peer
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
  return true;
}

bool Server::ParseFrames(EventThread* et, const std::shared_ptr<Conn>& conn) {
  size_t off = 0;
  bool ok = true;
  while (!conn->goaway) {
    if (conn->in.size() - off < kHeaderSize) break;
    FrameHeader header;
    const uint8_t* base =
        reinterpret_cast<const uint8_t*>(conn->in.data()) + off;
    HeaderParse hp = ParseHeader(base, &header);
    if (hp == HeaderParse::kBadMagic || hp == HeaderParse::kBadCrc ||
        hp == HeaderParse::kTooLarge) {
      // Framing is lost: the length field itself cannot be trusted, so
      // no later frame boundary is findable. Terminal GoAway.
      bad_header_.fetch_add(1, std::memory_order_relaxed);
      SendGoAway(et, conn, WireStatus::kBadPayload,
                 hp == HeaderParse::kTooLarge ? "oversized frame"
                                              : "bad frame header");
      break;
    }
    if (conn->in.size() - off < kHeaderSize + header.payload_len) break;
    std::string payload =
        conn->in.substr(off + kHeaderSize, header.payload_len);
    off += kHeaderSize + header.payload_len;
    if (hp == HeaderParse::kBadVersion) {
      // Header intact (CRC passed): answer the request id with our max
      // version and keep the stream — the client re-issues at version 1.
      bad_version_.fetch_add(1, std::memory_order_relaxed);
      std::string frame;
      AppendResponseFrame(&frame, static_cast<Tag>(header.tag),
                          header.request_id, header.tenant_id,
                          EncodeStatusPayload(WireStatus::kBadVersion),
                          /*error=*/true);
      QueueFrame(conn, std::move(frame));
      continue;
    }
    HandleFrame(conn, header, std::move(payload));
  }
  conn->in.erase(0, off);
  return ok;
}

void Server::HandleFrame(const std::shared_ptr<Conn>& conn,
                         const FrameHeader& header, std::string payload) {
  frames_in_.fetch_add(1, std::memory_order_relaxed);

  auto refuse = [&](WireStatus status) {
    std::string frame;
    AppendResponseFrame(&frame, static_cast<Tag>(header.tag),
                        header.request_id, header.tenant_id,
                        EncodeStatusPayload(status), /*error=*/true);
    QueueFrame(conn, std::move(frame));
  };
  // Control traffic (Ping echo, Metrics, Health): answered inline on the
  // event thread, bypassing admission.
  auto reply = [&](const std::string& text) {
    std::string frame;
    AppendResponseFrame(&frame, static_cast<Tag>(header.tag),
                        header.request_id, header.tenant_id,
                        EncodeResponsePayload(static_cast<Tag>(header.tag),
                                              serve::Response(), text));
    QueueFrame(conn, std::move(frame));
  };

  if (!ValidTag(header.tag) || !VerifyPayload(header, payload.data())) {
    bad_payload_.fetch_add(1, std::memory_order_relaxed);
    refuse(WireStatus::kBadPayload);
    return;
  }
  const Tag tag = static_cast<Tag>(header.tag);
  if (tag == Tag::kGoAway) return;  // client-side GoAway echo: ignore
  WireRequest req;
  if (!DecodeRequestPayload(tag, payload, &req)) {
    bad_payload_.fetch_add(1, std::memory_order_relaxed);
    refuse(WireStatus::kBadPayload);
    return;
  }
  req.request_id = header.request_id;
  req.tenant_id = header.tenant_id;

  switch (tag) {
    case Tag::kPing:  // also the version-negotiation probe
      reply(req.text);
      return;
    case Tag::kMetrics:
      reply(MetricsJson());
      return;
    case Tag::kHealth:
      reply(engine_->ComputeHealth().Json());
      return;
    case Tag::kGoAway:
      return;  // client echo of our terminal frame; nothing to do
    case Tag::kLinkPredict:
    case Tag::kEntityLink:
    case Tag::kNeighbors:
    case Tag::kConceptsOf:
      break;
  }

  if (stop_.load(std::memory_order_acquire)) {
    shutdown_refused_.fetch_add(1, std::memory_order_relaxed);
    refuse(WireStatus::kShuttingDown);
    return;
  }
  if (governor_.Admit(req.tenant_id) != TenantGovernor::Verdict::kAdmit) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    refuse(WireStatus::kShed);
    return;
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  DispatchToWorker(conn, std::move(req));
}

void Server::DispatchToWorker(const std::shared_ptr<Conn>& conn,
                              WireRequest req) {
  workers_->Submit([this, conn, req = std::move(req)] {
    util::Timer timer;
    serve::Response resp;
    switch (req.tag) {
      case Tag::kLinkPredict:
        resp = engine_->LinkPredictTopK(req.h, req.r, req.k, req.deadline_us);
        break;
      case Tag::kEntityLink:
        resp = engine_->EntityLink(req.text);
        break;
      case Tag::kNeighbors:
        resp = engine_->Neighbors(req.entity, req.relation);
        break;
      case Tag::kConceptsOf:
        resp = engine_->ConceptsOf(req.entity);
        break;
      default:
        resp.status = serve::ServeStatus::kInvalidArgument;
        break;
    }
    const double us = timer.Seconds() * 1e6;
    governor_.RecordLatency(req.tenant_id, us, resp.ok());
    if (req.tag == Tag::kLinkPredict && options_.canary != nullptr &&
        resp.ok()) {
      options_.canary->Observe(req.h, req.r, req.k, resp.payload.topk, us);
    }
    std::string frame;
    AppendResponseFrame(&frame, req.tag, req.request_id, req.tenant_id,
                        EncodeResponsePayload(req.tag, resp));
    QueueFrame(conn, std::move(frame));
    // AFTER the response is queued, so the drain logic can never observe
    // "idle" with the answer still in a worker's hands.
    conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void Server::QueueFrame(const std::shared_ptr<Conn>& conn,
                        std::string frame) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->out.push_back(std::move(frame));
  }
  {
    std::lock_guard<std::mutex> lock(threads_[conn->owner]->mu);
    threads_[conn->owner]->flush_queue.push_back(conn);
  }
  WakeThread(conn->owner);
}

bool Server::FlushConn(EventThread* et, const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lock(conn->out_mu);
  while (!conn->out.empty()) {
    const std::string& front = conn->out.front();
    while (conn->out_off < front.size()) {
      size_t cap = front.size() - conn->out_off;
      // net::write failpoint: clamp to 1-byte writes. The frame still
      // leaves in order — torn-write stress is about syscall boundaries,
      // and the single-writer rule keeps frame boundaries intact.
      if (util::failpoints::Triggered(kFpWrite)) cap = 1;
      ssize_t w = ::send(conn->fd, front.data() + conn->out_off, cap,
                         MSG_NOSIGNAL);
      if (w > 0) {
        conn->out_off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->epollout) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = conn->fd;
          ::epoll_ctl(et->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
          conn->epollout = true;
        }
        return true;
      }
      return false;  // peer reset
    }
    conn->out.pop_front();
    conn->out_off = 0;
  }
  if (conn->epollout) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(et->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout = false;
  }
  // A GoAway fully flushed is a finished conversation.
  return !conn->goaway;
}

void Server::CloseConn(EventThread* et, const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(et->epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  et->conns.erase(conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  // Close the fd here, not in ~Conn: a worker racing QueueFrame's `closed`
  // check can park a shared_ptr in a flush_queue that an exiting event
  // thread will never drain, and the peer must still see EOF now rather
  // than when the Server is destroyed. Only the owning event thread ever
  // touches the fd (workers just queue frames), so this is single-threaded.
  ::close(conn->fd);
  conn->fd = -1;
}

void Server::SendGoAway(EventThread* et, const std::shared_ptr<Conn>& conn,
                        WireStatus status, std::string_view reason) {
  std::string payload = EncodeStatusPayload(status);
  payload.append(reason);
  std::string frame;
  AppendResponseFrame(&frame, Tag::kGoAway, 0, 0, payload, /*error=*/true);
  conn->goaway = true;
  QueueFrame(conn, std::move(frame));
  (void)et;
}

Server::NetStats Server::stats() const {
  NetStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.accept_faults = accept_faults_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.bad_header = bad_header_.load(std::memory_order_relaxed);
  s.bad_payload = bad_payload_.load(std::memory_order_relaxed);
  s.bad_version = bad_version_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.shutdown_refused = shutdown_refused_.load(std::memory_order_relaxed);
  s.dispatched = dispatched_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::MetricsJson() const {
  NetStats s = stats();
  std::string json = util::StrFormat(
      "{\"server\":{\"port\":%u,\"draining\":%s,\"accepted\":%llu,"
      "\"accept_faults\":%llu,\"closed\":%llu,\"frames_in\":%llu,"
      "\"frames_out\":%llu,\"bad_header\":%llu,\"bad_payload\":%llu,"
      "\"bad_version\":%llu,\"shed\":%llu,\"shutdown_refused\":%llu,"
      "\"dispatched\":%llu},\"governor\":%s",
      unsigned{port_}, stopping() ? "true" : "false",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.accept_faults),
      static_cast<unsigned long long>(s.closed),
      static_cast<unsigned long long>(s.frames_in),
      static_cast<unsigned long long>(s.frames_out),
      static_cast<unsigned long long>(s.bad_header),
      static_cast<unsigned long long>(s.bad_payload),
      static_cast<unsigned long long>(s.bad_version),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.shutdown_refused),
      static_cast<unsigned long long>(s.dispatched),
      governor_.MetricsJson().c_str());
  if (options_.canary != nullptr) {
    json += ",\"canary\":" + options_.canary->MetricsJson();
  }
  json += "}";
  return json;
}

}  // namespace openbg::net
