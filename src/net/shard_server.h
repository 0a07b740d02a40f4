#ifndef GAUSS_NET_SHARD_SERVER_H_
#define GAUSS_NET_SHARD_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/shard_backend.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "service/service_stats.h"

namespace gauss {

struct ShardServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral (ask port() afterwards)
  // Patience for a client's handshake and for reply writes; a peer that
  // stalls longer loses the connection, never the server.
  std::chrono::milliseconds handshake_timeout{5000};
  std::chrono::milliseconds write_timeout{30000};
};

// Serves one shard's QueryService over the wire protocol — the library core
// of examples/gauss_shardd, and what the loopback tests spin up in-process.
//
// Execution: every connection owns one InProcessBackend (net/shard_backend.h),
// the same traversal table the in-process coordinator path uses, and
// answers kStart, kRefine, kRelease, kFetchSketch and kStats through it, so
// a remote shard's partials and updates are the in-process ones by
// construction. The traversal steps run on the shard's own worker pool
// (QueryService::SubmitWork).
//
// Concurrency model: an acceptor thread plus one handler thread per
// connection. The handler reads frames sequentially but executes kStart
// requests asynchronously on the workers, so concurrent queries from one
// coordinator pipeline instead of serializing. A kRefine batch runs as ONE
// worker closure — the server-side half of "one frame per shard per round"
// — and the handler reads the next frame only once it is answered.
//
// Handles belong to their connection. A kRefine naming a handle that is not
// registered (never started, still starting, or released) gets a typed
// kError (kProtocolError). A kRelease that overtakes its kStart (a client
// timeout race) still frees the traversal once the Start finishes. The
// connection's traversals are freed with it, on teardown or at Shutdown().
//
// Shutdown() (idempotent, also run by the destructor) closes the listener
// and every live connection, then joins all threads; in-flight traversals
// finish on the worker pool first (their replies fail silently into the
// closed sockets, and the coordinator side observes typed kPeerClosed
// errors). This is exactly the "kill a shard server mid-batch" scenario the
// fault tests exercise.
class ShardServer {
 public:
  // Binds and starts serving; nullptr + *error on failure. `service` must
  // outlive the server, and its tree's PageCache must be thread-safe.
  static std::unique_ptr<ShardServer> Listen(QueryService* service,
                                             const ShardServerOptions& options,
                                             NetError* error);

  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  uint16_t port() const { return listener_.port(); }

  void Shutdown();

  // Cumulative serving counters (queries started, batched refinement
  // rounds); also what a kStats request reports to the client.
  ServiceStats stats() const;

 private:
  struct Connection {
    explicit Connection(QueryService* service) : backend(service) {}
    TcpSocket sock;
    InProcessBackend backend;  // this connection's traversals
    std::mutex write_mu;       // one reply frame at a time
    std::mutex mu;             // starting
    // Handles whose kStart is queued or running, and whether a kRelease
    // overtook it (then the finished Start releases its traversal).
    std::unordered_map<uint64_t, bool> starting;
  };

  ShardServer(QueryService* service, const ShardServerOptions& options,
              TcpListener listener);

  void AcceptLoop();
  void HandleConnection(const std::shared_ptr<Connection>& conn);
  void HandleStart(const std::shared_ptr<Connection>& conn,
                   uint64_t request_id, const WireStart& start);
  void HandleRefine(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, std::vector<RefineSpec> specs);
  void HandleStats(const std::shared_ptr<Connection>& conn,
                   uint64_t request_id);
  void HandleFetchSketch(const std::shared_ptr<Connection>& conn,
                         uint64_t request_id);
  void SendReply(const std::shared_ptr<Connection>& conn, MsgType type,
                 uint64_t request_id, const std::vector<uint8_t>& body);
  void SendError(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                 const NetError& error);

  QueryService* const service_;
  const ShardServerOptions options_;
  TcpListener listener_;

  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;
  std::mutex conns_mu_;  // conns_ + handlers_
  std::vector<std::weak_ptr<Connection>> conns_;
  std::vector<std::thread> handlers_;
  std::thread acceptor_;

  std::atomic<uint64_t> mliq_starts_{0};
  std::atomic<uint64_t> tiq_starts_{0};
  std::atomic<uint64_t> refine_rounds_{0};
  std::atomic<uint64_t> refine_requests_{0};
};

}  // namespace gauss

#endif  // GAUSS_NET_SHARD_SERVER_H_
