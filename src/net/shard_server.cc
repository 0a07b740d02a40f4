#include "net/shard_server.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <string>
#include <utility>

#include "common/macros.h"
#include "net/frame_io.h"

namespace gauss {

namespace {

// Rejects a decoded query that the traversal constructors would abort on.
// Their preconditions are GAUSS_CHECKs, and a kStart body is untrusted bytes
// that DecodeQuery only checks for shape, not meaning.
NetError ValidateQuery(const Query& query, size_t dim) {
  if (query.pfv().dim() != dim) {
    return {NetErrorCode::kProtocolError,
            "query dimensionality " + std::to_string(query.pfv().dim()) +
                " != tree dimensionality " + std::to_string(dim)};
  }
  if (!query.pfv().Valid()) {
    return {NetErrorCode::kProtocolError,
            "query pfv needs finite means and finite positive sigmas"};
  }
  if (query.kind() == QueryKind::kMliq) {
    if (query.k() == 0) return {NetErrorCode::kProtocolError, "mliq k == 0"};
  } else if (!(query.threshold() > 0.0 && query.threshold() <= 1.0)) {
    return {NetErrorCode::kProtocolError, "tiq threshold outside (0, 1]"};
  }
  return {};
}

// Runs `step` on one of the shard's workers and returns its result.
template <typename Step>
auto OnWorker(QueryService* service, Step step) {
  decltype(step()) out;
  service->SubmitWork([&] {
    out = step();
    return QueryResponse{};
  }).get();
  return out;
}

}  // namespace

std::unique_ptr<ShardServer> ShardServer::Listen(
    QueryService* service, const ShardServerOptions& options, NetError* error) {
  GAUSS_CHECK(service != nullptr);
  // Every connection's InProcessBackend would refuse it anyway; refuse it
  // here, before a client connects.
  GAUSS_CHECK_MSG(service->tree().pool()->thread_safe(),
                  "a ShardServer needs a thread-safe PageCache");
  TcpListener listener = TcpListener::Listen(options.host, options.port, error);
  if (!listener.valid()) return nullptr;
  return std::unique_ptr<ShardServer>(
      new ShardServer(service, options, std::move(listener)));
}

ShardServer::ShardServer(QueryService* service,
                         const ShardServerOptions& options,
                         TcpListener listener)
    : service_(service),
      options_(options),
      listener_(std::move(listener)) {
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

ShardServer::~ShardServer() { Shutdown(); }

void ShardServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true);
    listener_.Shutdown();
    {
      std::lock_guard<std::mutex> lock(handlers_mu_);
      for (const Handler& handler : handlers_) handler.conn->sock.Shutdown();
    }
    acceptor_.join();
    std::vector<Handler> handlers;
    {
      std::lock_guard<std::mutex> lock(handlers_mu_);
      handlers.swap(handlers_);
    }
    // Handlers drain their in-flight worker closures before exiting, so
    // after this join no closure still references connection state.
    for (Handler& handler : handlers) handler.thread.join();
  });
}

ServiceStats ShardServer::stats() const {
  ServiceStats s;
  s.mliq_queries = mliq_starts_.load();
  s.tiq_queries = tiq_starts_.load();
  s.refine_rounds = refine_rounds_.load();
  s.refine_batched_queries = refine_requests_.load();
  return s;
}

void ShardServer::AcceptLoop() {
  while (true) {
    NetError error;
    TcpSocket sock = listener_.Accept(&error);
    if (!sock.valid()) return;  // Shutdown() or a fatal listener error
    auto conn = std::make_shared<Connection>(service_->tree());
    conn->sock = std::move(sock);
    std::vector<Handler> closed;
    {
      std::lock_guard<std::mutex> lock(handlers_mu_);
      if (stopping_.load()) {
        conn->sock.Shutdown();
        return;
      }
      // Take out the handlers whose connections have closed, to join them.
      const auto open_end = std::partition(
          handlers_.begin(), handlers_.end(),
          [](const Handler& h) { return !h.conn->finished.load(); });
      std::move(open_end, handlers_.end(), std::back_inserter(closed));
      handlers_.erase(open_end, handlers_.end());
      handlers_.push_back({conn, std::thread([this, conn] {
                             HandleConnection(conn);
                             // The peer sees the close now; the socket
                             // itself goes when the handler is joined.
                             conn->sock.Shutdown();
                             conn->finished.store(true);
                           })});
    }
    for (Handler& handler : closed) handler.thread.join();
  }
}

void ShardServer::SendReply(const std::shared_ptr<Connection>& conn,
                            MsgType type, uint64_t request_id,
                            const std::vector<uint8_t>& body) {
  const SocketDeadline deadline =
      std::chrono::steady_clock::now() + options_.write_timeout;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed reply write means the connection is dying; the client observes
  // that as kPeerClosed/kTimeout on its side, nothing to do here.
  (void)WriteFrame(conn->sock, type, request_id, body, deadline);
}

void ShardServer::SendError(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id, const NetError& error) {
  std::vector<uint8_t> body;
  EncodeError(error, &body);
  SendReply(conn, MsgType::kError, request_id, body);
}

void ShardServer::HandleConnection(const std::shared_ptr<Connection>& conn) {
  // Handshake first: anything but a well-formed, version-matching kHello
  // gets a typed kError frame and the connection closes. A peer that closes
  // or stalls gets nothing.
  Frame frame;
  const SocketDeadline handshake_deadline =
      std::chrono::steady_clock::now() + options_.handshake_timeout;
  if (NetError err = ReadFrame(conn->sock, &frame, handshake_deadline,
                               kHelloFramePayload);
      !err.ok()) {
    if (err.code == NetErrorCode::kProtocolError) SendError(conn, 0, err);
    return;
  }
  if (frame.type != MsgType::kHello) {
    SendError(conn, frame.request_id,
              {NetErrorCode::kProtocolError, "expected hello"});
    return;
  }
  WireHello hello;
  if (NetError err = DecodeHello(frame.body.data(), frame.body.size(), &hello);
      !err.ok()) {
    SendError(conn, frame.request_id, err);
    return;
  }
  if (NetError err = CheckHandshake(hello.magic, hello.version); !err.ok()) {
    SendError(conn, frame.request_id, err);
    return;
  }
  WireHelloAck ack;
  ack.dim = static_cast<uint32_t>(service_->tree().dim());
  ack.tree_size = service_->tree().size();
  std::vector<uint8_t> ack_body;
  EncodeHelloAck(ack, &ack_body);
  SendReply(conn, MsgType::kHelloAck, frame.request_id, ack_body);

  // Frame loop. kStart runs asynchronously on the shard's worker pool (so
  // concurrent queries pipeline); kRefine is one worker closure for the whole
  // batch; kRelease/kStats are cheap and handled inline.
  std::vector<std::future<QueryResponse>> inflight;
  bool open = true;
  while (open && !stopping_.load()) {
    if (!ReadFrame(conn->sock, &frame, NoDeadline()).ok()) break;
    switch (frame.type) {
      case MsgType::kStart: {
        auto start = std::make_shared<WireStart>();
        NetError err =
            DecodeStart(frame.body.data(), frame.body.size(), start.get());
        if (err.ok()) {
          err = ValidateQuery(*start->query, service_->tree().dim());
        }
        if (!err.ok()) {
          SendError(conn, frame.request_id, err);
          open = false;
          break;
        }
        if (start->query->kind() == QueryKind::kMliq) {
          mliq_starts_.fetch_add(1);
        } else {
          tiq_starts_.fetch_add(1);
        }
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->starting.emplace(start->traversal, false);
        }
        const uint64_t request_id = frame.request_id;
        inflight.push_back(service_->SubmitWork([this, conn, request_id,
                                                 start] {
          HandleStart(conn, request_id, *start);
          return QueryResponse{};
        }));
        // Prune finished futures so a long-lived connection doesn't
        // accumulate one per query.
        for (size_t i = 0; i < inflight.size();) {
          if (inflight[i].wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            inflight[i] = std::move(inflight.back());
            inflight.pop_back();
          } else {
            ++i;
          }
        }
        break;
      }
      case MsgType::kRefine: {
        std::vector<RefineSpec> specs;
        if (NetError err =
                DecodeRefine(frame.body.data(), frame.body.size(), &specs);
            !err.ok()) {
          SendError(conn, frame.request_id, err);
          open = false;
          break;
        }
        refine_rounds_.fetch_add(1);
        refine_requests_.fetch_add(specs.size());
        HandleRefine(conn, frame.request_id, std::move(specs));
        break;
      }
      case MsgType::kRelease: {
        std::vector<uint64_t> handles;
        if (NetError err =
                DecodeRelease(frame.body.data(), frame.body.size(), &handles);
            !err.ok()) {
          SendError(conn, frame.request_id, err);
          open = false;
          break;
        }
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          for (const uint64_t id : handles) {
            auto it = conn->starting.find(id);
            if (it != conn->starting.end()) it->second = true;
          }
        }
        conn->backend.Release(handles);
        break;
      }
      case MsgType::kStats: {
        if (!frame.body.empty()) {
          SendError(conn, frame.request_id,
                    {NetErrorCode::kProtocolError, "stats body not empty"});
          open = false;
          break;
        }
        HandleStats(conn, frame.request_id);
        break;
      }
      case MsgType::kFetchSketch: {
        if (!frame.body.empty()) {
          SendError(conn, frame.request_id,
                    {NetErrorCode::kProtocolError, "sketch body not empty"});
          open = false;
          break;
        }
        HandleFetchSketch(conn, frame.request_id);
        break;
      }
      default:
        SendError(conn, frame.request_id,
                  {NetErrorCode::kProtocolError, "unexpected message type"});
        open = false;
        break;
    }
  }

  // Drain queries still running on the worker pool before the connection
  // state goes away; their replies fail silently into the closed socket.
  conn->sock.Shutdown();
  for (std::future<QueryResponse>& f : inflight) f.get();
}

void ShardServer::HandleStart(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id, const WireStart& start) {
  ShardBackend::StartResult result =
      conn->backend.Start(start.traversal, *start.query).get();
  bool released = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    auto it = conn->starting.find(start.traversal);
    if (it != conn->starting.end()) {
      released = it->second;
      conn->starting.erase(it);
    }
  }
  // Released while still starting: the traversal is not kept. A damaged
  // page fails the query; otherwise the handle stays registered until the
  // coordinator's Release, as after any failed Start.
  if (released) conn->backend.Release({start.traversal});
  if (!result.error.ok()) {
    SendError(conn, request_id, result.error);
    return;
  }
  std::vector<uint8_t> body;
  EncodeStartReply(result.partial, &body);
  SendReply(conn, MsgType::kStartReply, request_id, body);
}

void ShardServer::HandleRefine(const std::shared_ptr<Connection>& conn,
                               uint64_t request_id,
                               std::vector<RefineSpec> specs) {
  // The whole round is one closure on the shard's worker pool — the remote
  // half of "one frame per shard per round".
  const ShardBackend::RefineResult result = OnWorker(
      service_, [&] { return conn->backend.Refine(std::move(specs)).get(); });
  if (!result.error.ok()) {
    SendError(conn, request_id, result.error);
    return;
  }
  std::vector<uint8_t> body;
  EncodeRefineReply(result.updates, &body);
  SendReply(conn, MsgType::kRefineReply, request_id, body);
}

void ShardServer::HandleStats(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id) {
  std::vector<uint8_t> body;
  EncodeStatsReply(conn->backend.FetchStats().io, stats(), &body);
  SendReply(conn, MsgType::kStatsReply, request_id, body);
}

void ShardServer::HandleFetchSketch(const std::shared_ptr<Connection>& conn,
                                    uint64_t request_id) {
  // The root page load runs on the shard's worker pool, same I/O placement
  // rule as kStart/kRefine.
  const ShardBackend::SketchResult result =
      OnWorker(service_, [&] { return conn->backend.FetchSketch(); });
  std::vector<uint8_t> body;
  EncodeSketchReply(result.sketch, service_->tree().dim(), &body);
  SendReply(conn, MsgType::kSketchReply, request_id, body);
}

}  // namespace gauss
