// Loopback tests of the shard RPC transport (net/rpc_backend.h +
// net/shard_server.h): a real ShardServer on 127.0.0.1 answers a real
// RpcBackend, so every frame crosses an actual kernel socket. Covers the
// happy path (RPC partials bit-identical to InProcessBackend over the same
// tree), the RefineChannel batching contract, and the typed failure
// taxonomy — refused connections, foreign/future handshakes, silent peers
// (timeout), and a shard server dying with requests in flight. None of these
// may hang or crash; each must produce its NetErrorCode.

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/gauss_db.h"
#include "data/generators.h"
#include "net/frame_io.h"
#include "net/net_error.h"
#include "net/rpc_backend.h"
#include "net/shard_backend.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "service/query.h"
#include "service/shard_coordinator.h"
#include "service_test_util.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectPartialsBitIdentical(const ShardPartial& got,
                                const ShardPartial& want) {
  EXPECT_EQ(Bits(got.log_ref), Bits(want.log_ref));
  EXPECT_EQ(got.tree_size, want.tree_size);
  EXPECT_EQ(Bits(got.denominator_lo), Bits(want.denominator_lo));
  EXPECT_EQ(Bits(got.denominator_hi), Bits(want.denominator_hi));
  EXPECT_EQ(got.exhausted, want.exhausted);
  ASSERT_EQ(got.items.size(), want.items.size());
  for (size_t i = 0; i < got.items.size(); ++i) {
    EXPECT_EQ(got.items[i].id, want.items[i].id);
    EXPECT_EQ(Bits(got.items[i].scaled_density),
              Bits(want.items[i].scaled_density));
    EXPECT_EQ(Bits(got.items[i].log_density), Bits(want.items[i].log_density));
  }
}

// One served single-tree database plus a loopback shard server over a
// QueryService of the fixture's own, built over the session's tree — the
// fixture most tests below start from.
class ServedShard {
 public:
  explicit ServedShard(size_t objects = 400, ShardServerOptions options = {}) {
    ClusteredDatasetConfig config;
    config.size = objects;
    config.dim = 3;
    config.cluster_count = 5;
    config.seed = 4242;
    dataset_ = GenerateClusteredDataset(config);
    db_ = GaussDb::CreateInMemory(dataset_.dim());
    db_->Build(dataset_);
    session_.emplace(db_->Serve({.num_workers = 1}));
    service_.emplace(session_->tree(), QueryServiceOptions{.num_workers = 2});
    NetError error;
    server_ = ShardServer::Listen(&*service_, options, &error);
    EXPECT_TRUE(server_ != nullptr) << error.ToString();
  }

  Pfv Probe() const {
    Pfv probe = dataset_[0];
    probe.id = 999999;
    return probe;
  }

  const PfvDataset& dataset() const { return dataset_; }
  const GaussTree& tree() const { return session_->tree(); }
  QueryService* service() { return &*service_; }
  ShardServer* server() { return server_.get(); }
  uint16_t port() const { return server_->port(); }
  size_t size() const { return dataset_.size(); }
  size_t dim() const { return dataset_.dim(); }

 private:
  PfvDataset dataset_{0};
  std::optional<GaussDb> db_;
  std::optional<Session> session_;
  std::optional<QueryService> service_;
  std::unique_ptr<ShardServer> server_;
};

std::unique_ptr<RpcBackend> MustConnect(uint16_t port,
                                        RpcBackendOptions options = {}) {
  NetError error;
  auto backend = RpcBackend::Connect("127.0.0.1", port, options, &error);
  EXPECT_TRUE(backend != nullptr) << error.ToString();
  return backend;
}

// ------------------------------- happy path ---------------------------------

TEST(NetLoopbackTest, HandshakeLearnsDimAndTreeSize) {
  ServedShard shard;
  auto backend = MustConnect(shard.port());
  ASSERT_TRUE(backend != nullptr);
  EXPECT_EQ(backend->dim(), shard.dim());
  EXPECT_EQ(backend->tree_size(), shard.size());
}

TEST(NetLoopbackTest, StartRefineReleaseBitIdenticalToInProcess) {
  ServedShard shard;
  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);
  InProcessBackend local(shard.tree());

  // Loose accuracy leaves the denominator gap wide open, so the later
  // refinement rounds below have real work to do.
  const Query query = Query::Mliq(shard.Probe(), /*k=*/3).Accuracy(0.5);
  ShardBackend::StartResult over_rpc = rpc->Start(1, query).get();
  ShardBackend::StartResult in_process = local.Start(1, query).get();
  ASSERT_TRUE(over_rpc.error.ok()) << over_rpc.error.ToString();
  ASSERT_TRUE(in_process.error.ok());
  ExpectPartialsBitIdentical(over_rpc.partial, in_process.partial);

  // Halve the gap a few times; every update must stay bit-identical, and
  // bounds must tighten monotonically.
  double lo = over_rpc.partial.denominator_lo;
  double hi = over_rpc.partial.denominator_hi;
  for (int round = 0; round < 3 && hi - lo > 0; ++round) {
    const double target = 0.5 * (hi - lo);
    ShardBackend::RefineResult rpc_round =
        rpc->Refine({{1, target}}).get();
    ShardBackend::RefineResult local_round =
        local.Refine({{1, target}}).get();
    ASSERT_TRUE(rpc_round.error.ok()) << rpc_round.error.ToString();
    ASSERT_TRUE(local_round.error.ok());
    ASSERT_EQ(rpc_round.updates.size(), 1u);
    ASSERT_EQ(local_round.updates.size(), 1u);
    const RefineUpdate& got = rpc_round.updates[0];
    const RefineUpdate& want = local_round.updates[0];
    EXPECT_EQ(Bits(got.denominator_lo), Bits(want.denominator_lo));
    EXPECT_EQ(Bits(got.denominator_hi), Bits(want.denominator_hi));
    EXPECT_EQ(got.exhausted, want.exhausted);
    EXPECT_EQ(got.objects_evaluated, want.objects_evaluated);
    EXPECT_GE(got.denominator_lo, lo);
    EXPECT_LE(got.denominator_hi, hi);
    lo = got.denominator_lo;
    hi = got.denominator_hi;
  }

  rpc->Release({1});
  local.Release({1});
  // Released handles are gone: refining one is a typed protocol error, not
  // a crash on either side of the wire.
  ShardBackend::RefineResult after = rpc->Refine({{1, 0.0}}).get();
  EXPECT_EQ(after.error.code, NetErrorCode::kProtocolError);
}

TEST(NetLoopbackTest, FetchStatsReportsRemoteCounters) {
  ServedShard shard;
  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);
  ShardBackend::StartResult start =
      rpc->Start(5, Query::Tiq(shard.Probe(), 0.2)).get();
  ASSERT_TRUE(start.error.ok());
  rpc->Release({5});

  ShardBackend::StatsResult stats = rpc->FetchStats();
  ASSERT_TRUE(stats.error.ok()) << stats.error.ToString();
  // The traversal above touched the remote cache and counted as one TIQ.
  EXPECT_GT(stats.io.logical_reads, 0u);
  EXPECT_GE(stats.service.tiq_queries, 1u);
}

// The RefineChannel batching contract, pinned deterministically: while one
// flush is in flight, every submission arriving behind it coalesces into a
// single next round. 1 + N submissions => exactly 2 rounds.
TEST(NetLoopbackTest, RefineChannelCoalescesConcurrentSubmissions) {
  std::mutex gate;
  std::atomic<int> flushes{0};
  RefineChannel channel([&](const std::vector<RefineSpec>& specs) {
    std::lock_guard<std::mutex> hold(gate);
    flushes.fetch_add(1);
    ShardBackend::RefineResult result;
    result.updates.resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      // Echo the traversal id so positional splitting is observable.
      result.updates[i].nodes_visited = specs[i].traversal;
    }
    return result;
  });

  std::future<ShardBackend::RefineResult> first;
  std::vector<std::future<ShardBackend::RefineResult>> held;
  {
    // Hold the gate: the flusher picks up the first submission and blocks
    // inside the flush; everything submitted meanwhile must pile into one
    // second round.
    std::unique_lock<std::mutex> lock(gate);
    first = channel.Submit({{1, 0.5}});
    while (channel.counters().requests < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (uint64_t t = 2; t <= 5; ++t) {
      held.push_back(channel.Submit({{t, 0.5}, {t * 10, 0.25}}));
    }
  }

  ASSERT_EQ(first.get().updates.size(), 1u);
  for (size_t i = 0; i < held.size(); ++i) {
    ShardBackend::RefineResult result = held[i].get();
    ASSERT_TRUE(result.error.ok());
    ASSERT_EQ(result.updates.size(), 2u);
    EXPECT_EQ(result.updates[0].nodes_visited, i + 2);
    EXPECT_EQ(result.updates[1].nodes_visited, (i + 2) * 10);
  }
  EXPECT_EQ(flushes.load(), 2);
  const BackendRefineCounters counters = channel.counters();
  EXPECT_EQ(counters.rounds, 2u);
  EXPECT_EQ(counters.requests, 9u);  // 1 + 4 * 2
}

// ------------------------------ typed failures ------------------------------

TEST(NetLoopbackTest, ConnectToDeadPortFailsTyped) {
  // Grab an ephemeral port, then destroy the listener so the fd is closed and
  // the kernel refuses the connection outright. (Shutdown() alone only wakes
  // Accept(); the still-open fd would park the connect in the backlog.)
  NetError error;
  uint16_t dead_port = 0;
  {
    TcpListener listener = TcpListener::Listen("127.0.0.1", 0, &error);
    ASSERT_TRUE(listener.valid()) << error.ToString();
    dead_port = listener.port();
  }

  RpcBackendOptions options;
  options.connect_timeout = std::chrono::milliseconds(2000);
  auto backend = RpcBackend::Connect("127.0.0.1", dead_port, options, &error);
  EXPECT_TRUE(backend == nullptr);
  EXPECT_EQ(error.code, NetErrorCode::kConnectFailed);
  EXPECT_FALSE(error.message.empty());
}

TEST(NetLoopbackTest, ServeRemoteRejectsMalformedEndpointsTyped) {
  for (const char* endpoint :
       {"", "no-port-here", ":7001", "host:", "host:0", "host:99999"}) {
    ServeResult result = GaussDb::ServeRemote({endpoint});
    EXPECT_FALSE(result.ok()) << "endpoint '" << endpoint << "'";
    EXPECT_EQ(result.error().code, NetErrorCode::kConnectFailed);
  }
  ServeResult empty = GaussDb::ServeRemote({});
  EXPECT_FALSE(empty.ok());
}

// A fake shard server scripted to answer the handshake however a test needs.
class FakeServer {
 public:
  // `ack_mutator` edits the hello-ack before it is sent; when `reply` is
  // false the server accepts, reads the hello, and then goes silent.
  explicit FakeServer(bool reply,
                      std::function<void(WireHelloAck*)> ack_mutator = {}) {
    NetError error;
    listener_ = TcpListener::Listen("127.0.0.1", 0, &error);
    EXPECT_TRUE(listener_.valid()) << error.ToString();
    thread_ = std::thread([this, reply, ack_mutator] {
      NetError accept_error;
      TcpSocket conn = listener_.Accept(&accept_error);
      if (!conn.valid()) return;
      Frame hello;
      if (!ReadFrame(conn, &hello, NoDeadline()).ok()) return;
      if (!reply) {
        // Hold the connection open but never answer; the client's deadline
        // machinery must convert this into kTimeout.
        Frame never;
        (void)ReadFrame(conn, &never, NoDeadline());
        return;
      }
      WireHelloAck ack;
      ack.dim = 3;
      ack.tree_size = 1;
      if (ack_mutator) ack_mutator(&ack);
      std::vector<uint8_t> body;
      EncodeHelloAck(ack, &body);
      (void)WriteFrame(conn, MsgType::kHelloAck, hello.request_id, body,
                       NoDeadline());
      // Swallow requests without ever answering, until the client hangs up.
      // A single read would close the connection after the first request and
      // turn would-be timeouts into kPeerClosed.
      Frame never;
      while (ReadFrame(conn, &never, NoDeadline()).ok()) {
      }
    });
  }

  ~FakeServer() {
    listener_.Shutdown();
    thread_.join();
  }

  uint16_t port() const { return listener_.port(); }

 private:
  TcpListener listener_;
  std::thread thread_;
};

TEST(NetLoopbackTest, FutureWireVersionFailsHandshakeTyped) {
  FakeServer server(/*reply=*/true,
                    [](WireHelloAck* ack) { ack->version = kWireVersion + 7; });
  NetError error;
  auto backend = RpcBackend::Connect("127.0.0.1", server.port(), {}, &error);
  EXPECT_TRUE(backend == nullptr);
  EXPECT_EQ(error.code, NetErrorCode::kProtocolMismatch);
}

TEST(NetLoopbackTest, ForeignMagicFailsHandshakeTyped) {
  FakeServer server(/*reply=*/true,
                    [](WireHelloAck* ack) { ack->magic = 0x1122334455667788; });
  NetError error;
  auto backend = RpcBackend::Connect("127.0.0.1", server.port(), {}, &error);
  EXPECT_TRUE(backend == nullptr);
  EXPECT_EQ(error.code, NetErrorCode::kProtocolMismatch);
}

TEST(NetLoopbackTest, SilentServerTimesOutTyped) {
  FakeServer server(/*reply=*/false);
  RpcBackendOptions options;
  options.connect_timeout = std::chrono::milliseconds(200);
  NetError error;
  const auto before = std::chrono::steady_clock::now();
  auto backend = RpcBackend::Connect("127.0.0.1", server.port(), options,
                                     &error);
  EXPECT_TRUE(backend == nullptr);
  EXPECT_EQ(error.code, NetErrorCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::seconds(5));
}

TEST(NetLoopbackTest, ServerShutdownFailsInFlightAndLaterRequestsTyped) {
  ServedShard shard;
  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);
  ShardBackend::StartResult warm =
      rpc->Start(1, Query::Mliq(shard.Probe(), 1)).get();
  ASSERT_TRUE(warm.error.ok());
  rpc->Release({1});

  // The "kill the shard" moment: everything pending fails kPeerClosed and
  // every later call fails fast with the same code — no hangs anywhere.
  shard.server()->Shutdown();
  ShardBackend::StartResult dead =
      rpc->Start(2, Query::Mliq(shard.Probe(), 1)).get();
  EXPECT_EQ(dead.error.code, NetErrorCode::kPeerClosed);
  ShardBackend::RefineResult refine = rpc->Refine({{2, 0.5}}).get();
  EXPECT_EQ(refine.error.code, NetErrorCode::kPeerClosed);
  ShardBackend::StatsResult stats = rpc->FetchStats();
  EXPECT_EQ(stats.error.code, NetErrorCode::kPeerClosed);
  // Release after death is a silent no-op by contract.
  rpc->Release({2});
}

TEST(NetLoopbackTest, BackendDestructorDrainsWithServerGone) {
  ServedShard shard;
  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);
  // Fire a request and kill the server without ever collecting the future:
  // the backend destructor must still shut down cleanly (reader fails the
  // pending promise, channel drains, threads join).
  std::future<ShardBackend::StartResult> orphan =
      rpc->Start(9, Query::Mliq(shard.Probe(), 1));
  shard.server()->Shutdown();
  rpc.reset();
  const ShardBackend::StartResult result = orphan.get();
  if (!result.error.ok()) {
    EXPECT_EQ(result.error.code, NetErrorCode::kPeerClosed);
  }
}

TEST(NetLoopbackTest, PerQueryDeadlineMapsToSocketTimeout) {
  // A properly handshaking server that never answers queries: the query's
  // own 50 ms budget (not the 60 s request ceiling) must bound the wait.
  RpcBackendOptions slow;
  slow.request_timeout = std::chrono::milliseconds(60000);
  FakeServer silent(/*reply=*/true);
  NetError error;
  auto backend =
      RpcBackend::Connect("127.0.0.1", silent.port(), slow, &error);
  ASSERT_TRUE(backend != nullptr) << error.ToString();

  const Pfv probe(1, {0.5, 0.5, 0.5}, {0.1, 0.1, 0.1});
  const auto before = std::chrono::steady_clock::now();
  ShardBackend::StartResult result =
      backend
          ->Start(1, Query::Mliq(probe, 1)
                         .DeadlineAfter(std::chrono::milliseconds(50)))
          .get();
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(result.error.code, NetErrorCode::kTimeout);
  // 50 ms budget + 100 ms grace + reader tick; far below the 60 s ceiling.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(NetLoopbackTest, ExpiredDeadlineFailsFastBeforeAnyFrameIsWritten) {
  // A query whose deadline has already passed must fail kDeadlineExceeded on
  // the client without a frame ever hitting the wire — previously the
  // negative remaining budget was clamped to a 1 ms socket timeout, burning
  // a round trip (and a server-side traversal) on a query that was already
  // dead. The server's start counters prove no request arrived.
  ServedShard shard;
  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);

  const auto before = std::chrono::steady_clock::now();
  ShardBackend::StartResult expired =
      rpc->Start(1, Query::Mliq(shard.Probe(), 1)
                        .Deadline(before - std::chrono::milliseconds(10)))
          .get();
  EXPECT_EQ(expired.error.code, NetErrorCode::kDeadlineExceeded);
  // Fail-fast, not a 1 ms-timeout round trip that happened to lose.
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::seconds(1));
  EXPECT_EQ(shard.server()->stats().total_queries(), 0u);

  // The connection is untouched: live traffic still flows on it.
  ShardBackend::StartResult alive =
      rpc->Start(2, Query::Mliq(shard.Probe(), 1)).get();
  EXPECT_TRUE(alive.error.ok()) << alive.error.ToString();
  EXPECT_EQ(shard.server()->stats().total_queries(), 1u);
  rpc->Release({2});
}

// --------------------------- hostile start frames ---------------------------

// One kStart body that decodes cleanly but breaks a traversal precondition
// (the MLIQ/TIQ constructors GAUSS_CHECK them). `make` builds it from a
// valid probe by editing the Pfv's public fields directly: the checking Pfv
// constructor would refuse these values, but a peer's bytes are not so
// polite.
struct HostileStart {
  const char* name;
  std::function<Query(Pfv)> make;
};

const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

const HostileStart kHostileStarts[] = {
    {"MliqKZero", [](Pfv p) { return Query::Mliq(std::move(p), 0); }},
    {"MliqDimBelowTree",
     [](Pfv p) {
       p.mu.pop_back();
       p.sigma.pop_back();
       return Query::Mliq(std::move(p), 3);
     }},
    {"TiqDimAboveTree",
     [](Pfv p) {
       p.mu.push_back(0.5);
       p.sigma.push_back(0.1);
       return Query::Tiq(std::move(p), 0.2);
     }},
    {"NanMu",
     [](Pfv p) {
       p.mu[0] = kNan;
       return Query::Mliq(std::move(p), 3);
     }},
    {"InfiniteMu",
     [](Pfv p) {
       p.mu[1] = -kInf;
       return Query::Tiq(std::move(p), 0.2);
     }},
    {"ZeroSigma",
     [](Pfv p) {
       p.sigma[0] = 0.0;
       return Query::Mliq(std::move(p), 3);
     }},
    {"NegativeSigma",
     [](Pfv p) {
       p.sigma[2] = -0.25;
       return Query::Tiq(std::move(p), 0.2);
     }},
    {"NanSigma",
     [](Pfv p) {
       p.sigma[1] = kNan;
       return Query::Mliq(std::move(p), 3);
     }},
    {"TiqThresholdZero",
     [](Pfv p) { return Query::Tiq(std::move(p), 0.0); }},
    {"TiqThresholdAboveOne",
     [](Pfv p) { return Query::Tiq(std::move(p), 1.5); }},
    {"TiqThresholdNan",
     [](Pfv p) { return Query::Tiq(std::move(p), kNan); }},
};

class MalformedStartTest : public ::testing::TestWithParam<HostileStart> {};

// The hostile frame comes back as a typed kProtocolError instead of aborting
// the server; afterwards a fresh connection still answers byte-identically
// to the in-process backend and exactly like the seq-scan oracle.
TEST_P(MalformedStartTest, FailsTypedAndServerKeepsAnswering) {
  ServedShard shard;
  const Pfv probe = shard.Probe();
  {
    auto rpc = MustConnect(shard.port());
    ASSERT_TRUE(rpc != nullptr);
    const ShardBackend::StartResult result =
        rpc->Start(1, GetParam().make(probe)).get();
    EXPECT_EQ(result.error.code, NetErrorCode::kProtocolError)
        << result.error.ToString();
  }
  // Rejected before any traversal ran.
  EXPECT_EQ(shard.server()->stats().total_queries(), 0u);

  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);
  InProcessBackend local(shard.tree());
  ShardCoordinator over_rpc(std::vector<ShardBackend*>{rpc.get()});
  ShardCoordinator in_process(std::vector<ShardBackend*>{&local});
  const std::vector<Query> batch = {
      Query::Mliq(probe, 3), Query::Tiq(probe, 0.2).ExactMembership(true)};
  const BatchResult got = over_rpc.ExecuteBatch(batch);
  const BatchResult want = in_process.ExecuteBatch(batch);

  InMemoryPageDevice scan_device;
  ShardedBufferPool scan_pool(&scan_device, 1 << 12, /*num_shards=*/1);
  PfvFile scan_file(&scan_pool, shard.dim());
  scan_file.AppendAll(shard.dataset());
  const SeqScan scan(&scan_file);
  const std::vector<std::vector<IdentificationResult>> oracle = {
      scan.QueryMliq(probe, 3).items, scan.QueryTiq(probe, 0.2).items};

  ASSERT_EQ(got.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_EQ(got.responses[i].status, QueryResponse::Status::kOk);
    test::ExpectItemsBytesEqual(got.responses[i].items,
                                want.responses[i].items);
    ASSERT_EQ(got.responses[i].items.size(), oracle[i].size());
    for (size_t j = 0; j < oracle[i].size(); ++j) {
      EXPECT_EQ(got.responses[i].items[j].id, oracle[i][j].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetLoopbackTest, MalformedStartTest, ::testing::ValuesIn(kHostileStarts),
    [](const ::testing::TestParamInfo<HostileStart>& info) {
      return std::string(info.param.name);
    });

// A version-2 peer (its query and io-stats bodies carried read-ahead fields
// that version 3 dropped) is refused at the handshake, typed.
TEST(NetLoopbackTest, Version2HelloIsRefusedTyped) {
  ServedShard shard;
  NetError error;
  TcpSocket sock = TcpSocket::Connect("127.0.0.1", shard.port(),
                                      std::chrono::seconds(5), &error);
  ASSERT_TRUE(sock.valid()) << error.ToString();
  const SocketDeadline deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  WireHello hello;
  hello.version = 2;
  std::vector<uint8_t> body;
  EncodeHello(hello, &body);
  ASSERT_TRUE(WriteFrame(sock, MsgType::kHello, 1, body, deadline).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(sock, &reply, deadline).ok());
  ASSERT_EQ(reply.type, MsgType::kError);
  NetError remote;
  ASSERT_TRUE(DecodeError(reply.body.data(), reply.body.size(), &remote).ok());
  EXPECT_EQ(remote.code, NetErrorCode::kProtocolMismatch);
}

// Opens a raw connection to `port` and completes the handshake.
TcpSocket RawConnect(uint16_t port, SocketDeadline deadline) {
  NetError error;
  TcpSocket sock = TcpSocket::Connect("127.0.0.1", port,
                                      std::chrono::seconds(5), &error);
  EXPECT_TRUE(sock.valid()) << error.ToString();
  std::vector<uint8_t> body;
  EncodeHello(WireHello{}, &body);
  EXPECT_TRUE(WriteFrame(sock, MsgType::kHello, 0, body, deadline).ok());
  Frame ack;
  EXPECT_TRUE(ReadFrame(sock, &ack, deadline).ok());
  EXPECT_EQ(ack.type, MsgType::kHelloAck);
  return sock;
}

// Sends a kRefine of `traversal` and expects a typed kError naming an
// unknown traversal in reply.
void ExpectRefineRefusedTyped(TcpSocket& sock, uint64_t traversal,
                              uint64_t request_id, SocketDeadline deadline) {
  std::vector<uint8_t> body;
  EncodeRefine({{traversal, 0.0}}, &body);
  ASSERT_TRUE(
      WriteFrame(sock, MsgType::kRefine, request_id, body, deadline).ok());
  Frame reply;
  ASSERT_TRUE(ReadFrame(sock, &reply, deadline).ok());
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.request_id, request_id);
  NetError remote;
  ASSERT_TRUE(DecodeError(reply.body.data(), reply.body.size(), &remote).ok());
  EXPECT_EQ(remote.code, NetErrorCode::kProtocolError);
}

// A raw kRefine naming a handle the connection never started is answered
// with a typed kError, not an abort; the server keeps serving, and a fresh
// connection still answers bit-identically to the in-process backend.
TEST(NetLoopbackTest, RefineOfUnknownHandleFailsTypedAndServerKeepsAnswering) {
  ServedShard shard;
  {
    const SocketDeadline deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    TcpSocket sock = RawConnect(shard.port(), deadline);
    ASSERT_TRUE(sock.valid());
    ExpectRefineRefusedTyped(sock, 42, 1, deadline);
  }

  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);
  InProcessBackend local(shard.tree());
  const Query query = Query::Mliq(shard.Probe(), /*k=*/3).Accuracy(0.5);
  const ShardBackend::StartResult over_rpc = rpc->Start(1, query).get();
  const ShardBackend::StartResult in_process = local.Start(1, query).get();
  ASSERT_TRUE(over_rpc.error.ok()) << over_rpc.error.ToString();
  ASSERT_TRUE(in_process.error.ok());
  ExpectPartialsBitIdentical(over_rpc.partial, in_process.partial);
  rpc->Release({1});
  local.Release({1});
}

// A kRelease that overtakes its kStart — the Start still queued behind busy
// workers — frees the traversal once the Start finishes: the Start is still
// answered, and a later kRefine of its handle names an unknown traversal.
TEST(NetLoopbackTest, ReleaseOvertakingItsStartFreesTheTraversal) {
  ServedShard shard;
  const SocketDeadline deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  TcpSocket sock = RawConnect(shard.port(), deadline);
  ASSERT_TRUE(sock.valid());

  // Hold every worker of the shard, so the Start waits in the queue.
  std::promise<void> open_gate;
  std::shared_future<void> gate = open_gate.get_future().share();
  std::vector<std::future<QueryResponse>> held;
  for (size_t i = 0; i < shard.service()->num_workers(); ++i) {
    held.push_back(shard.service()->SubmitWork([gate] {
      gate.wait();
      return QueryResponse{};
    }));
  }

  // No ASSERT until the gate opens: an early return would leave the workers
  // held and the teardown waiting on them.
  std::vector<uint8_t> body;
  EncodeStart(5, Query::Mliq(shard.Probe(), 3).Accuracy(0.5), &body);
  EXPECT_TRUE(WriteFrame(sock, MsgType::kStart, 1, body, deadline).ok());
  body.clear();
  EncodeRelease({5}, &body);
  EXPECT_TRUE(WriteFrame(sock, MsgType::kRelease, 2, body, deadline).ok());
  // The server handles a connection's frames in order and answers kStats
  // inline, so once its reply is here the kRelease has been handled while
  // the Start still waits.
  EXPECT_TRUE(WriteFrame(sock, MsgType::kStats, 3, {}, deadline).ok());
  Frame reply;
  EXPECT_TRUE(ReadFrame(sock, &reply, deadline).ok());
  EXPECT_EQ(reply.type, MsgType::kStatsReply);

  open_gate.set_value();
  for (std::future<QueryResponse>& f : held) f.get();
  ASSERT_TRUE(ReadFrame(sock, &reply, deadline).ok());
  EXPECT_EQ(reply.type, MsgType::kStartReply);
  EXPECT_EQ(reply.request_id, 1u);
  ExpectRefineRefusedTyped(sock, 5, 4, deadline);
}

// Before the handshake the server reads no frame longer than a kHello: a
// peer that sends only a length prefix above it gets a typed kProtocolError
// at once, and the connection closes — no body buffer is allocated, and none
// is held until the handshake times out. That timeout is far longer than
// the test's own wait, so a server that waits for the body fails the test.
TEST(NetLoopbackTest, OversizedFrameBeforeHandshakeIsRefusedAtOnce) {
  ShardServerOptions options;
  options.handshake_timeout = std::chrono::minutes(10);
  ServedShard shard(400, options);
  for (const size_t payload_len : {kHelloFramePayload + 1, kMaxFramePayload}) {
    SCOPED_TRACE("length prefix " + std::to_string(payload_len));
    NetError error;
    TcpSocket sock = TcpSocket::Connect("127.0.0.1", shard.port(),
                                        std::chrono::seconds(5), &error);
    ASSERT_TRUE(sock.valid()) << error.ToString();
    const SocketDeadline deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    uint8_t prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<uint8_t>(payload_len >> (8 * i));
    }
    ASSERT_TRUE(sock.SendAll(prefix, sizeof(prefix), deadline).ok());
    Frame reply;
    ASSERT_TRUE(ReadFrame(sock, &reply, deadline).ok());
    ASSERT_EQ(reply.type, MsgType::kError);
    NetError remote;
    ASSERT_TRUE(
        DecodeError(reply.body.data(), reply.body.size(), &remote).ok());
    EXPECT_EQ(remote.code, NetErrorCode::kProtocolError);
    EXPECT_EQ(ReadFrame(sock, &reply, deadline).code,
              NetErrorCode::kPeerClosed);
  }
  // The server keeps serving.
  auto rpc = MustConnect(shard.port());
  ASSERT_TRUE(rpc != nullptr);
  EXPECT_EQ(rpc->tree_size(), shard.size());
}

// The value of a "Key:   N kB" line of /proc/self/status, in kB.
size_t ProcStatusKb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return static_cast<size_t>(std::stoull(line.substr(key.size() + 1)));
    }
  }
  ADD_FAILURE() << key << " not found in /proc/self/status";
  return 0;
}

// A server that has seen many short connections holds the threads of only
// the open ones: each accept joins the handlers whose connections closed. A
// handler never joined keeps its stack mapped, about 8 MiB of address space
// per connection.
TEST(NetLoopbackTest, ClosedConnectionsDoNotAccumulate) {
  ServedShard shard;
  // Each cycle ends only once the server has closed the connection (an
  // unexpected frame type closes it), so its handler is done by the next
  // accept however the threads are scheduled.
  const auto cycles = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const SocketDeadline deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      TcpSocket sock = RawConnect(shard.port(), deadline);
      ASSERT_TRUE(sock.valid());
      ASSERT_TRUE(WriteFrame(sock, MsgType::kHelloAck, 1, {}, deadline).ok());
      Frame reply;
      ASSERT_TRUE(ReadFrame(sock, &reply, deadline).ok());
      ASSERT_EQ(reply.type, MsgType::kError);
      ASSERT_EQ(ReadFrame(sock, &reply, deadline).code,
                NetErrorCode::kPeerClosed);
    }
  };
  cycles(20);  // warm: the first handlers' stacks, the allocator's arenas
  const size_t before_kb = ProcStatusKb("VmSize");
  cycles(300);
  const size_t after_kb = ProcStatusKb("VmSize");
  EXPECT_LT(after_kb, before_kb + 128 * 1024)
      << "VmSize grew from " << before_kb << " kB to " << after_kb
      << " kB over 300 connect-disconnect cycles";
}

}  // namespace
}  // namespace gauss
