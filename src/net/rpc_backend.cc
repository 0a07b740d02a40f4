#include "net/rpc_backend.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "net/frame_io.h"

namespace gauss {

namespace {

constexpr std::chrono::milliseconds kDeadlineGrace{100};
constexpr std::chrono::milliseconds kReaderTick{100};

}  // namespace

// ------------------------------ RefineChannel -------------------------------

RefineChannel::RefineChannel(FlushFn flush) : flush_(std::move(flush)) {
  flusher_ = std::thread([this] { Loop(); });
}

RefineChannel::~RefineChannel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  flusher_.join();
}

std::future<ShardBackend::RefineResult> RefineChannel::Submit(
    std::vector<RefineSpec> specs) {
  Waiter waiter;
  waiter.specs = std::move(specs);
  std::future<ShardBackend::RefineResult> future =
      waiter.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    GAUSS_CHECK_MSG(!closed_, "Refine on a shut-down backend");
    pending_.push_back(std::move(waiter));
  }
  cv_.notify_all();
  return future;
}

BackendRefineCounters RefineChannel::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void RefineChannel::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
    if (pending_.empty()) return;  // closed, fully drained
    std::vector<Waiter> batch = std::move(pending_);
    pending_.clear();

    std::vector<RefineSpec> combined;
    for (const Waiter& w : batch) {
      combined.insert(combined.end(), w.specs.begin(), w.specs.end());
    }
    ++counters_.rounds;
    counters_.requests += combined.size();
    lock.unlock();

    // One flush carries every spec pending at round start; submissions
    // arriving during the flush ride the next round.
    ShardBackend::RefineResult round = flush_(combined);
    if (round.error.ok() && round.updates.size() != combined.size()) {
      round.error = {NetErrorCode::kProtocolError,
                     "refine round returned wrong update count"};
      round.updates.clear();
    }

    size_t offset = 0;
    for (Waiter& w : batch) {
      ShardBackend::RefineResult part;
      part.error = round.error;
      if (round.error.ok()) {
        part.updates.assign(round.updates.begin() + offset,
                            round.updates.begin() + offset + w.specs.size());
      }
      offset += w.specs.size();
      w.promise.set_value(std::move(part));
    }
    lock.lock();
  }
}

// -------------------------------- RpcBackend --------------------------------

std::unique_ptr<RpcBackend> RpcBackend::Connect(
    const std::string& host, uint16_t port, const RpcBackendOptions& options,
    NetError* error) {
  TcpSocket sock = TcpSocket::Connect(host, port, options.connect_timeout,
                                      error);
  if (!sock.valid()) return nullptr;

  const SocketDeadline deadline =
      std::chrono::steady_clock::now() + options.connect_timeout;
  std::vector<uint8_t> body;
  EncodeHello(WireHello{}, &body);
  if (NetError err = WriteFrame(sock, MsgType::kHello, 0, body, deadline);
      !err.ok()) {
    *error = std::move(err);
    return nullptr;
  }
  Frame frame;
  if (NetError err = ReadFrame(sock, &frame, deadline); !err.ok()) {
    *error = std::move(err);
    return nullptr;
  }
  if (frame.type == MsgType::kError) {
    NetError remote;
    if (NetError err =
            DecodeError(frame.body.data(), frame.body.size(), &remote);
        !err.ok()) {
      *error = std::move(err);
    } else {
      *error = std::move(remote);
    }
    return nullptr;
  }
  if (frame.type != MsgType::kHelloAck) {
    *error = {NetErrorCode::kProtocolError, "expected hello-ack"};
    return nullptr;
  }
  WireHelloAck ack;
  if (NetError err = DecodeHelloAck(frame.body.data(), frame.body.size(), &ack);
      !err.ok()) {
    *error = std::move(err);
    return nullptr;
  }
  if (NetError err = CheckHandshake(ack.magic, ack.version); !err.ok()) {
    *error = std::move(err);
    return nullptr;
  }
  return std::unique_ptr<RpcBackend>(
      new RpcBackend(std::move(sock), options, ack));
}

RpcBackend::RpcBackend(TcpSocket sock, const RpcBackendOptions& options,
                       const WireHelloAck& ack)
    : options_(options),
      dim_(ack.dim),
      tree_size_(ack.tree_size),
      sock_(std::move(sock)) {
  channel_ = std::make_unique<RefineChannel>(
      [this](const std::vector<RefineSpec>& specs) {
        return FlushRefine(specs);
      });
  reader_ = std::thread([this] { ReaderLoop(); });
}

RpcBackend::~RpcBackend() {
  // Order matters: the refine flusher needs the live reader to complete (or
  // time out) its in-flight round, so drain the channel first, then wake the
  // reader by shutting the socket down.
  channel_.reset();
  sock_.Shutdown();
  reader_.join();
}

SocketDeadline RpcBackend::RequestDeadline(const Query* query) const {
  const auto now = std::chrono::steady_clock::now();
  auto timeout = options_.request_timeout;
  if (query != nullptr && query->has_deadline()) {
    // Map the query's remaining budget (plus a little grace for the reply's
    // travel) onto the socket: the shard must answer within the budget or
    // the query fails typed, just as it would have been expired locally.
    // An already-expired query never reaches here — Start() fails it fast
    // with kDeadlineExceeded before encoding a frame — so the budget is
    // genuinely remaining time, not a negative clamped to a degenerate 1ms.
    auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
                      query->deadline() - now) +
                  kDeadlineGrace;
    budget = std::max(budget, std::chrono::milliseconds{1});
    timeout = std::min(timeout, budget);
  }
  return now + timeout;
}

void RpcBackend::Fail(Pending&& pending, const NetError& error) {
  switch (pending.expect) {
    case MsgType::kStartReply: {
      StartResult result;
      result.error = error;
      pending.start.set_value(std::move(result));
      break;
    }
    case MsgType::kRefineReply: {
      RefineResult result;
      result.error = error;
      pending.refine.set_value(std::move(result));
      break;
    }
    case MsgType::kStatsReply: {
      StatsResult result;
      result.error = error;
      pending.stats.set_value(std::move(result));
      break;
    }
    case MsgType::kSketchReply: {
      SketchResult result;
      result.error = error;
      pending.sketch.set_value(std::move(result));
      break;
    }
    default:
      break;
  }
}

bool RpcBackend::SendRequest(MsgType type, uint64_t request_id,
                             const std::vector<uint8_t>& body,
                             Pending pending) {
  const SocketDeadline deadline = pending.deadline;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) {
      const NetError error = dead_error_;
      Fail(std::move(pending), error);
      return false;
    }
    pending_.emplace(request_id, std::move(pending));
  }
  NetError error;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    error = WriteFrame(sock_, type, request_id, body, deadline);
  }
  if (!error.ok()) {
    // Withdraw the entry unless the reader already completed it.
    Pending entry;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(request_id);
      if (it != pending_.end()) {
        entry = std::move(it->second);
        pending_.erase(it);
        found = true;
      }
    }
    if (found) Fail(std::move(entry), error);
    return false;
  }
  return true;
}

std::future<ShardBackend::StartResult> RpcBackend::Start(uint64_t traversal,
                                                         const Query& query) {
  Pending pending;
  pending.expect = MsgType::kStartReply;
  std::future<StartResult> future = pending.start.get_future();

  // An expired query fails fast before any frame is written: a negative
  // remaining budget is not a socket timeout, it is the deadline verdict the
  // front door would have issued — keep that typed instead of burning a
  // round trip on a request whose reply nobody can use.
  if (query.has_deadline() &&
      query.deadline() <= std::chrono::steady_clock::now()) {
    Fail(std::move(pending),
         {NetErrorCode::kDeadlineExceeded,
          "query deadline elapsed before the request was sent"});
    return future;
  }
  pending.deadline = RequestDeadline(&query);

  const uint64_t request_id = next_request_id_.fetch_add(1);
  std::vector<uint8_t> body;
  EncodeStart(traversal, query, &body);
  SendRequest(MsgType::kStart, request_id, body, std::move(pending));
  return future;
}

std::future<ShardBackend::RefineResult> RpcBackend::Refine(
    std::vector<RefineSpec> specs) {
  return channel_->Submit(std::move(specs));
}

ShardBackend::RefineResult RpcBackend::FlushRefine(
    const std::vector<RefineSpec>& specs) {
  Pending pending;
  pending.expect = MsgType::kRefineReply;
  pending.deadline = RequestDeadline(nullptr);
  pending.refine_count = specs.size();
  std::future<RefineResult> future = pending.refine.get_future();

  const uint64_t request_id = next_request_id_.fetch_add(1);
  std::vector<uint8_t> body;
  EncodeRefine(specs, &body);
  SendRequest(MsgType::kRefine, request_id, body, std::move(pending));
  return future.get();
}

void RpcBackend::Release(const std::vector<uint64_t>& traversals) {
  if (traversals.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return;
  }
  std::vector<uint8_t> body;
  EncodeRelease(traversals, &body);
  std::lock_guard<std::mutex> lock(write_mu_);
  // Fire-and-forget: a failure here means the connection is dying, and the
  // reader will surface that through the pending requests.
  (void)WriteFrame(sock_, MsgType::kRelease, 0, body, RequestDeadline(nullptr));
}

ShardBackend::StatsResult RpcBackend::FetchStats() {
  Pending pending;
  pending.expect = MsgType::kStatsReply;
  pending.deadline = RequestDeadline(nullptr);
  std::future<StatsResult> future = pending.stats.get_future();

  const uint64_t request_id = next_request_id_.fetch_add(1);
  const std::vector<uint8_t> body;  // kStats has an empty body
  SendRequest(MsgType::kStats, request_id, body, std::move(pending));
  return future.get();
}

ShardBackend::SketchResult RpcBackend::FetchSketch() {
  Pending pending;
  pending.expect = MsgType::kSketchReply;
  pending.deadline = RequestDeadline(nullptr);
  std::future<SketchResult> future = pending.sketch.get_future();

  const uint64_t request_id = next_request_id_.fetch_add(1);
  const std::vector<uint8_t> body;  // kFetchSketch has an empty body
  SendRequest(MsgType::kFetchSketch, request_id, body, std::move(pending));
  return future.get();
}

BackendRefineCounters RpcBackend::refine_counters() const {
  return channel_->counters();
}

void RpcBackend::DispatchFrame(const Frame& frame) {
  Pending entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(frame.request_id);
    if (it == pending_.end()) return;  // late reply after a timeout: discard
    entry = std::move(it->second);
    pending_.erase(it);
  }

  if (frame.type == MsgType::kError) {
    NetError remote;
    if (NetError err =
            DecodeError(frame.body.data(), frame.body.size(), &remote);
        !err.ok()) {
      Fail(std::move(entry), err);
    } else {
      Fail(std::move(entry), remote);
    }
    return;
  }
  if (frame.type != entry.expect) {
    Fail(std::move(entry),
         {NetErrorCode::kProtocolError, "reply type mismatch"});
    return;
  }

  switch (entry.expect) {
    case MsgType::kStartReply: {
      StartResult result;
      result.error =
          DecodeStartReply(frame.body.data(), frame.body.size(),
                           &result.partial);
      entry.start.set_value(std::move(result));
      break;
    }
    case MsgType::kRefineReply: {
      RefineResult result;
      result.error = DecodeRefineReply(frame.body.data(), frame.body.size(),
                                       &result.updates);
      if (result.error.ok() && result.updates.size() != entry.refine_count) {
        result.error = {NetErrorCode::kProtocolError,
                        "refine reply count mismatch"};
        result.updates.clear();
      }
      entry.refine.set_value(std::move(result));
      break;
    }
    case MsgType::kStatsReply: {
      StatsResult result;
      result.error = DecodeStatsReply(frame.body.data(), frame.body.size(),
                                      &result.io, &result.service);
      entry.stats.set_value(std::move(result));
      break;
    }
    case MsgType::kSketchReply: {
      SketchResult result;
      result.error = DecodeSketchReply(frame.body.data(), frame.body.size(),
                                       &result.sketch);
      entry.sketch.set_value(std::move(result));
      break;
    }
    default:
      break;
  }
}

void RpcBackend::SweepExpired() {
  std::vector<Pending> expired;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline <= now) {
        expired.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Pending& entry : expired) {
    Fail(std::move(entry),
         {NetErrorCode::kTimeout, "request deadline elapsed"});
  }
}

void RpcBackend::FailAllPending(const NetError& error) {
  std::vector<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : pending_) orphans.push_back(std::move(entry));
    pending_.clear();
  }
  for (Pending& entry : orphans) Fail(std::move(entry), error);
}

void RpcBackend::ReaderLoop() {
  std::vector<uint8_t> buf;
  NetError fatal;
  bool running = true;
  while (running) {
    const NetError wait =
        sock_.WaitReadable(std::chrono::steady_clock::now() + kReaderTick);
    if (wait.code == NetErrorCode::kTimeout) {
      SweepExpired();
      continue;
    }
    if (!wait.ok()) {
      fatal = wait;
      break;
    }
    uint8_t chunk[64 * 1024];
    size_t received = 0;
    if (NetError err = sock_.RecvSome(chunk, sizeof(chunk), &received);
        !err.ok()) {
      fatal = err;
      break;
    }
    buf.insert(buf.end(), chunk, chunk + received);

    size_t offset = 0;
    while (running) {
      Frame frame;
      size_t consumed = 0;
      NetError parse_error;
      const FrameParse verdict =
          ParseFrame(buf.data() + offset, buf.size() - offset, &frame,
                     &consumed, &parse_error);
      if (verdict == FrameParse::kNeedMore) break;
      if (verdict == FrameParse::kError) {
        fatal = parse_error;
        running = false;
        break;
      }
      offset += consumed;
      DispatchFrame(frame);
    }
    buf.erase(buf.begin(), buf.begin() + offset);
    SweepExpired();
  }

  NetError final_error = fatal.ok()
                             ? NetError{NetErrorCode::kPeerClosed,
                                        "shard connection closed"}
                             : fatal;
  if (final_error.code == NetErrorCode::kIoError ||
      final_error.code == NetErrorCode::kProtocolError) {
    // The stream is unusable either way; keep the specific cause in the
    // message but make sure later fast-fails read as a dead connection.
    sock_.Shutdown();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = true;
    dead_error_ = final_error;
  }
  FailAllPending(final_error);
}

}  // namespace gauss
