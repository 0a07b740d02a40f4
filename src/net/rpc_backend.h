#ifndef GAUSS_NET_RPC_BACKEND_H_
#define GAUSS_NET_RPC_BACKEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/shard_backend.h"
#include "net/socket.h"
#include "net/wire.h"

namespace gauss {

// ============================== RefineChannel ===============================
//
// RpcBackend's refinement batcher: callers Submit() their specs and get a
// future; a single flusher thread drains *everything* pending into one flush
// callback (one kRefine frame) per round. Submissions arriving while a round
// is in flight coalesce into the next round — so N concurrent unconverged
// queries cost one round trip per shard per round, not N. Flush results are
// split back positionally onto the waiters; a flush failure fails every
// waiter of that round. The destructor drains pending submissions, then
// joins.
// ============================================================================
class RefineChannel {
 public:
  using FlushFn = std::function<ShardBackend::RefineResult(
      const std::vector<RefineSpec>&)>;

  explicit RefineChannel(FlushFn flush);
  ~RefineChannel();

  RefineChannel(const RefineChannel&) = delete;
  RefineChannel& operator=(const RefineChannel&) = delete;

  std::future<ShardBackend::RefineResult> Submit(std::vector<RefineSpec> specs);

  BackendRefineCounters counters() const;

 private:
  struct Waiter {
    std::vector<RefineSpec> specs;
    std::promise<ShardBackend::RefineResult> promise;
  };

  void Loop();

  FlushFn flush_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;                  // guarded by mu_
  std::vector<Waiter> pending_;          // guarded by mu_
  BackendRefineCounters counters_;       // guarded by mu_
  std::thread flusher_;
};

struct RpcBackendOptions {
  std::chrono::milliseconds connect_timeout{5000};
  // Per-request ceiling. A query that carries its own deadline tightens this
  // to its remaining budget (+ a small grace for the reply to travel), so
  // the front door's shed/expiry semantics survive the network: a shard too
  // slow for the query's budget produces a typed kTimeout, not a stall.
  std::chrono::milliseconds request_timeout{30000};
};

// ShardBackend over one TCP connection to a shard server (net/shard_server.h
// or a standalone examples/gauss_shardd). Connect() performs the
// magic+version handshake (typed kProtocolMismatch on disagreement) and
// learns the shard's dimensionality and size.
//
// One connection carries everything: requests are correlated by request_id,
// a dedicated reader thread dispatches out-of-order replies to the pending
// futures, and refinement rounds are batched through a RefineChannel — one
// kRefine frame per round regardless of how many concurrent queries are
// still unconverged.
//
// Failure model: a request whose deadline passes fails with kTimeout (the
// eventual late reply is discarded); when the connection drops, every
// pending request fails with kPeerClosed and all later calls fail fast with
// the same error. The backend never reconnects — a coordinator treats a dead
// shard as down until re-wired.
class RpcBackend : public ShardBackend {
 public:
  // Connects and handshakes; returns nullptr and sets *error on failure.
  static std::unique_ptr<RpcBackend> Connect(const std::string& host,
                                             uint16_t port,
                                             const RpcBackendOptions& options,
                                             NetError* error);

  ~RpcBackend() override;

  size_t dim() const override { return dim_; }
  uint64_t tree_size() const { return tree_size_; }

  std::future<StartResult> Start(uint64_t traversal,
                                 const Query& query) override;
  std::future<RefineResult> Refine(std::vector<RefineSpec> specs) override;
  void Release(const std::vector<uint64_t>& traversals) override;
  StatsResult FetchStats() override;
  SketchResult FetchSketch() override;
  BackendRefineCounters refine_counters() const override;

 private:
  // One in-flight request: which reply frame it expects, when it expires,
  // and the promise its future observes (exactly one of the four promises
  // is active, matching `expect`).
  struct Pending {
    MsgType expect = MsgType::kError;
    SocketDeadline deadline;
    size_t refine_count = 0;  // kRefineReply: expected update count
    std::promise<StartResult> start;
    std::promise<RefineResult> refine;
    std::promise<StatsResult> stats;
    std::promise<SketchResult> sketch;
  };

  RpcBackend(TcpSocket sock, const RpcBackendOptions& options,
             const WireHelloAck& ack);

  SocketDeadline RequestDeadline(const Query* query) const;
  // Registers a pending entry (fails fast when the connection is dead) and
  // sends the frame; on send failure the entry is withdrawn and failed.
  bool SendRequest(MsgType type, uint64_t request_id,
                   const std::vector<uint8_t>& body, Pending pending);
  RefineResult FlushRefine(const std::vector<RefineSpec>& specs);

  void ReaderLoop();
  void DispatchFrame(const Frame& frame);
  // Completes one extracted entry with an error or a decoded reply.
  static void Fail(Pending&& pending, const NetError& error);
  void FailAllPending(const NetError& error);
  void SweepExpired();

  const RpcBackendOptions options_;
  size_t dim_ = 0;
  uint64_t tree_size_ = 0;

  TcpSocket sock_;
  std::mutex write_mu_;  // serializes SendAll between callers + flusher

  mutable std::mutex mu_;  // pending_ + dead_ + dead_error_
  std::unordered_map<uint64_t, Pending> pending_;
  bool dead_ = false;
  NetError dead_error_;

  std::atomic<uint64_t> next_request_id_{1};
  std::unique_ptr<RefineChannel> channel_;
  std::thread reader_;
};

}  // namespace gauss

#endif  // GAUSS_NET_RPC_BACKEND_H_
