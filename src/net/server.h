#ifndef OPENBG_NET_SERVER_H_
#define OPENBG_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/tenant_governor.h"
#include "net/wire.h"
#include "serve/canary.h"
#include "serve/engine.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace openbg::net {

struct ServerOptions {
  /// Bind address; tests and the example stick to loopback.
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read it back via port().
  uint16_t port = 0;
  /// Event (epoll) threads. Thread 0 additionally owns the listen socket;
  /// accepted connections are assigned round-robin across all of them.
  size_t event_threads = 2;
  /// Worker threads executing engine calls (the endpoint handlers run
  /// here, never on an event thread, so slow scoring cannot stall reads).
  size_t worker_threads = 2;
  /// listen(2) backlog.
  int backlog = 128;
  /// Graceful-drain budget: after Stop()/SIGTERM the server stops
  /// accepting, keeps serving in-flight requests (new ones are refused
  /// with kShuttingDown), and force-closes whatever remains after this
  /// many milliseconds. Whole frames only — a client never sees a torn
  /// frame, just a clean EOF.
  uint64_t drain_deadline_ms = 2000;
  /// Multi-tenant admission (see TenantGovernor). Applied to the four
  /// engine endpoints; Ping/Metrics/Health are control traffic and bypass
  /// admission.
  GovernorOptions governor;
  /// Optional canary controller: every successful LinkPredictTopK answer
  /// is offered to it for mirror sampling. Not owned.
  serve::CanaryController* canary = nullptr;
};

/// The OBGWIRE1 socket front-end over an embedded serve::QueryEngine:
/// a non-blocking, level-triggered epoll event loop (single acceptor +
/// N event threads), pipelined framing with out-of-order completion,
/// per-tenant admission, and graceful drain.
///
/// Threading model (single-writer discipline): each connection is owned
/// by exactly one event thread, and ONLY that thread ever reads from or
/// writes to its socket — so frames are never interleaved mid-frame no
/// matter how many workers complete out of order. Workers append whole
/// encoded frames to the connection's output queue under its own lock,
/// then wake the owning event thread through its eventfd; the event
/// thread flushes queue-order, tracking a byte offset into the front
/// frame across EAGAIN boundaries.
///
/// Request path: the event thread parses frames as bytes arrive (frames
/// may span any number of reads), answers protocol-level conditions
/// inline (ping echo, bad version, bad payload CRC, shed, shutting-down)
/// and dispatches admitted engine requests to the worker pool. A bad
/// HEADER (magic/CRC/oversized length) is unrecoverable — the length
/// field itself is untrusted — so the server sends a GoAway frame and
/// closes after flushing; a bad PAYLOAD CRC is confined to that request
/// id and the stream continues.
///
/// Failpoints: `net::accept` drops freshly-accepted connections,
/// `net::read` / `net::write` clamp socket I/O to one byte per syscall
/// (short-read reassembly and torn-write stress — the framing layer must
/// not care). All three are wired into the chaos sweep.
class Server {
 public:
  Server(serve::QueryEngine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event + worker threads.
  util::Status Start();

  /// The bound port (after Start); useful with port = 0.
  uint16_t port() const { return port_; }

  /// Async-signal-safe stop request (SIGTERM handlers call this): sets
  /// the stop flag and pokes every event thread's eventfd. Returns
  /// immediately; the drain happens on the event threads.
  void RequestStop();

  /// Blocks until every event thread has drained and exited.
  void Wait();

  /// RequestStop() + Wait().
  void Stop();

  bool stopping() const {
    return stop_.load(std::memory_order_acquire);
  }

  struct NetStats {
    uint64_t accepted = 0;        // connections adopted
    uint64_t accept_faults = 0;   // net::accept failpoint drops
    uint64_t closed = 0;          // connections torn down
    uint64_t frames_in = 0;       // well-formed request frames
    uint64_t frames_out = 0;      // response frames queued
    uint64_t bad_header = 0;      // GoAway-and-close events
    uint64_t bad_payload = 0;     // payload CRC / decode failures
    uint64_t bad_version = 0;     // version-negotiation refusals
    uint64_t shed = 0;            // governor refusals
    uint64_t shutdown_refused = 0;  // requests arriving mid-drain
    uint64_t dispatched = 0;      // engine calls handed to workers
  };
  NetStats stats() const;

  TenantGovernor& governor() { return governor_; }
  const TenantGovernor& governor() const { return governor_; }

  /// {"server":{...},"governor":{...}[,"canary":{...}]} — the per-tenant
  /// shed/latency counters ride in the governor section.
  std::string MetricsJson() const;

 private:
  struct Conn;
  struct EventThread;

  void EventLoop(size_t index);
  void AcceptReady(EventThread* et);
  void AdoptIncoming(EventThread* et);
  bool ReadReady(EventThread* et, const std::shared_ptr<Conn>& conn);
  bool ParseFrames(EventThread* et, const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn,
                   const FrameHeader& header, std::string payload);
  void DispatchToWorker(const std::shared_ptr<Conn>& conn, WireRequest req);
  void QueueFrame(const std::shared_ptr<Conn>& conn, std::string frame);
  /// Flushes conn's output queue from the owning event thread. Returns
  /// false when the connection died (peer reset).
  bool FlushConn(EventThread* et, const std::shared_ptr<Conn>& conn);
  void CloseConn(EventThread* et, const std::shared_ptr<Conn>& conn);
  void SendGoAway(EventThread* et, const std::shared_ptr<Conn>& conn,
                  WireStatus status, std::string_view reason);
  void WakeThread(size_t index);

  serve::QueryEngine* engine_;
  ServerOptions options_;
  TenantGovernor governor_;
  std::unique_ptr<util::ThreadPool> workers_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<EventThread>> threads_;
  std::atomic<size_t> next_thread_{0};  // round-robin conn assignment
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> accept_faults_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bad_header_{0};
  std::atomic<uint64_t> bad_payload_{0};
  std::atomic<uint64_t> bad_version_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> shutdown_refused_{0};
  std::atomic<uint64_t> dispatched_{0};
};

/// Failpoint site names (also listed in the chaos sweep).
inline constexpr const char* kFpAccept = "net::accept";
inline constexpr const char* kFpRead = "net::read";
inline constexpr const char* kFpWrite = "net::write";

}  // namespace openbg::net

#endif  // OPENBG_NET_SERVER_H_
