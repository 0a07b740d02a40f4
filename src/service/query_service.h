#ifndef GAUSS_SERVICE_QUERY_SERVICE_H_
#define GAUSS_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <variant>
#include <vector>

#include "gausstree/gauss_tree.h"
#include "gausstree/query_common.h"
#include "net/net_error.h"
#include "pfv/pfv.h"
#include "service/query.h"
#include "service/request_queue.h"
#include "service/service_stats.h"

namespace gauss {

// ============================== GaussServe ==================================
//
// QueryService is the concurrent query engine over one finalized Gauss-tree:
// a fixed pool of worker threads executes MLIQ/TIQ identification queries
// pulled from a bounded MPMC request queue.
//
// This is the engine underneath the GaussDb façade (api/gauss_db.h) — most
// code should build a GaussDb and call Serve() instead of wiring a
// QueryService by hand; the service remains public for callers that manage
// their own storage stack.
//
// Serving model
//   * The tree is read-only while the service is alive (the classic
//     build-offline / serve-online shape). Build and Finalize() the tree
//     single-threaded as usual, then either hand that tree to the service or
//     — the intended production setup, and what GaussDb::Serve() does —
//     reattach with GaussTree::Open() over a default-striped
//     ShardedBufferPool on the same device, sized for serving, so concurrent
//     workers rarely collide on a stripe latch (a build pool has one).
//   * With more than one worker the tree's PageCache must advertise
//     thread_safe() (every ShardedBufferPool does; a decorating cache may
//     not); the constructor enforces this, so a racy configuration fails
//     loudly at startup instead of corrupting the cache under load.
//
// Execution paths — one pipeline, two calling conventions
//   * Submit() is the streaming path: it admits one query through the
//     bounded queue and immediately returns a std::future that becomes
//     ready when a worker finishes the query. Callers can interleave
//     submission with other work, gather futures in any order, and pipeline
//     queries without batch barriers.
//   * ExecuteBatch() is a thin wrapper: it Submit()s every query of the
//     batch, waits for all futures, and returns per-query responses in
//     request order plus aggregate ServiceStats (throughput, latency
//     percentiles, cache I/O delta, traversal-work totals). Both paths run
//     the identical worker code, so their answers are byte-identical — and
//     identical to the low-level QueryMliq/QueryTiq entry points
//     (streaming_test.cc asserts this).
//
// Admission control
//   * Queries without a deadline block in Submit() while the queue is full —
//     backpressure towards the submitting client.
//   * Queries with a deadline (Query::Deadline/DeadlineAfter) never wait:
//     a full queue sheds them (Status::kShed), an already-expired deadline
//     reports Status::kDeadlineExceeded at admission, and a deadline that
//     expires while queued reports kDeadlineExceeded instead of executing.
//     Either way the future completes with empty items and zero work — load
//     is rejected, never silently dropped.
//
// Shutdown
//   * The destructor closes the queue, drains every admitted query, and
//     joins the workers: every future obtained from Submit() is ready once
//     the destructor returns. Submitting to a destroyed/shutting-down
//     service is a caller bug (fails a GAUSS_CHECK).
//
// Typical use (hand-wired; see api/gauss_db.h for the façade equivalent):
//   ShardedBufferPool serve_pool(&device, kCachePages);
//   auto tree = GaussTree::Open(&serve_pool, meta_page);
//   QueryService service(*tree, {.num_workers = 8});
//   auto f1 = service.Submit(Query::Mliq(probe, /*k=*/3));
//   auto f2 = service.Submit(Query::Tiq(probe2, /*threshold=*/0.2)
//                                .DeadlineAfter(std::chrono::milliseconds(5)));
//   QueryResponse r1 = f1.get(), r2 = f2.get();
// ============================================================================

// Answer to one submitted Query.
struct QueryResponse {
  // kOk: the query executed; items/stats/latency are filled.
  // kShed: admission control rejected the query at a full queue (only
  //        deadline-carrying queries are shed; others wait).
  // kDeadlineExceeded: the deadline passed before execution began.
  // kShardError: a sharded coordinator could not complete the query because
  //              a shard backend failed (connection lost, request timed out,
  //              malformed reply, a damaged node page on the shard);
  //              `error` carries the typed cause (NetErrorCode::kCorrupt for
  //              a damaged page). Never produced by an unsharded
  //              QueryService.
  // kCorrupt: an unsharded QueryService's traversal reached a node page
  //           that failed validation (GtNodeStore::LoadSoa — bad checksum,
  //           malformed header, child id beyond the device); no answer.
  enum class Status : uint8_t {
    kOk = 0,
    kShed = 1,
    kDeadlineExceeded = 2,
    kShardError = 3,
    kCorrupt = 4,
  };

  QueryKind kind = QueryKind::kMliq;
  Status status = Status::kOk;

  // The failing shard's transport error when status == kShardError;
  // error.ok() otherwise.
  NetError error;

  // MLIQ: the k most likely identities, descending probability.
  // TIQ: every identity at/above the threshold, descending probability.
  // Empty unless status == kOk (a TIQ can also be legitimately empty).
  std::vector<IdentificationResult> items;

  uint64_t latency_ns = 0;  // execution time inside the worker
  TraversalStats stats;     // traversal work + denominator bounds
};

struct BatchResult {
  std::vector<QueryResponse> responses;  // responses[i] answers batch[i]
  ServiceStats stats;
};

namespace internal {

// One in-flight unit of work: either a Query descriptor (the normal serving
// path) or an opaque closure (the hook a ShardServer uses to run
// shard-local traversal steps on the shard's workers), plus the promise its
// future observes. Heap-allocated by Submit()/SubmitWork();
// ownership passes through the RequestQueue to the worker that pops it (or
// stays with Submit on shed/expiry).
struct QueryTask {
  std::variant<Query, std::function<QueryResponse()>> payload;
  std::promise<QueryResponse> promise;

  explicit QueryTask(Query q) : payload(std::move(q)) {}
  explicit QueryTask(std::function<QueryResponse()> work)
      : payload(std::move(work)) {}

  // The query descriptor, or nullptr for closure tasks.
  Query* query() { return std::get_if<Query>(&payload); }

  // Completes the task without executing it (shed / deadline-exceeded).
  // Query tasks only — closure tasks carry no deadline and are never shed.
  void CompleteUnexecuted(QueryResponse::Status status) {
    QueryResponse resp;
    resp.kind = query()->kind();
    resp.status = status;
    promise.set_value(std::move(resp));
  }
};

}  // namespace internal

struct QueryServiceOptions {
  // 0 = one worker per usable CPU (UsableCpus(), common/cpus.h).
  size_t num_workers = 0;
  // Bound of the admission queue (backpressure/shedding threshold).
  size_t queue_capacity = 1024;
};

class QueryService {
 public:
  // `tree` must be finalized and outlive the service; with num_workers > 1
  // its PageCache must be thread-safe (e.g. ShardedBufferPool).
  QueryService(const GaussTree& tree, QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Closes the queue, drains every admitted query, and joins the workers.
  // Every future returned by Submit() is ready afterwards.
  ~QueryService();

  // Streaming submission: admits the query and returns the future of its
  // response. Blocks only when the queue is full *and* the query carries no
  // deadline (deadline queries are shed instead). Thread-safe.
  std::future<QueryResponse> Submit(Query query);

  // Batch convenience over Submit(): executes every query and returns
  // responses in request order plus aggregate statistics. Blocks until the
  // batch completes. Thread-safe; concurrent batches interleave in the
  // shared queue and complete independently.
  BatchResult ExecuteBatch(const std::vector<Query>& batch);

  // Runs an arbitrary closure on a worker thread and returns the future of
  // its return value. Admission is the blocking-backpressure path (closures
  // carry no deadline, so they are never shed) — this is how a ShardServer
  // executes per-shard traversal and refinement steps on the shard's own
  // worker pool. Thread-safe.
  std::future<QueryResponse> SubmitWork(std::function<QueryResponse()> work);

  const GaussTree& tree() const { return tree_; }
  size_t num_workers() const { return workers_.size(); }

 private:
  void WorkerLoop();

  const GaussTree& tree_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;
};

// Aggregates per-response outcomes into ServiceStats: query-kind and
// admission-outcome counts, latency percentiles over executed queries only
// (a shed or expired query is counted in mliq/tiq_queries exactly once and
// contributes no latency sample and no traversal work), throughput over
// `wall_seconds`, and the caller-measured cache delta `io`. Shared by
// QueryService::ExecuteBatch and ShardCoordinator::ExecuteBatch so both
// paths count identically.
ServiceStats AggregateBatchStats(const std::vector<QueryResponse>& responses,
                                 double wall_seconds, const IoStats& io);

}  // namespace gauss

#endif  // GAUSS_SERVICE_QUERY_SERVICE_H_
