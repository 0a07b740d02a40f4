#include "service/query_service.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/cpus.h"
#include "common/macros.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"

namespace gauss {

namespace {

// The single execution path: every query — streamed or batched — goes
// through here inside a worker thread.
QueryResponse ExecuteQuery(const GaussTree& tree, const Query& query) {
  QueryResponse resp;
  resp.kind = query.kind();
  const auto start = std::chrono::steady_clock::now();
  bool corrupt = false;
  if (query.kind() == QueryKind::kMliq) {
    MliqResult r =
        QueryMliq(tree, query.pfv(), query.k(), query.mliq_options());
    resp.items = std::move(r.items);
    resp.stats = r.stats;
    corrupt = r.corrupt;
  } else {
    TiqResult r =
        QueryTiq(tree, query.pfv(), query.threshold(), query.tiq_options());
    resp.items = std::move(r.items);
    resp.stats = r.stats;
    corrupt = r.corrupt;
  }
  if (corrupt) {
    resp.status = QueryResponse::Status::kCorrupt;
    resp.items.clear();
  }
  resp.latency_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return resp;
}

// Worker count of a QueryService over `tree`, checking the tree can be
// served by that many.
size_t CheckedWorkers(const GaussTree& tree, size_t num_workers) {
  GAUSS_CHECK_MSG(tree.store().finalized(),
                  "QueryService requires a finalized tree");
  const size_t workers = num_workers != 0 ? num_workers : UsableCpus();
  GAUSS_CHECK_MSG(workers == 1 || tree.pool()->thread_safe(),
                  "multi-worker serving needs a thread-safe PageCache "
                  "(use ShardedBufferPool)");
  return workers;
}

}  // namespace

namespace internal {

AdmissionPool::AdmissionPool(size_t threads, size_t queue_capacity,
                             Execute execute)
    : execute_(std::move(execute)), queue_(queue_capacity) {
  GAUSS_CHECK(threads > 0);
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { Loop(); });
  }
}

AdmissionPool::~AdmissionPool() {
  queue_.Close();
  for (std::thread& thread : threads_) thread.join();
}

std::future<QueryResponse> AdmissionPool::Submit(Query query) {
  auto task = std::make_unique<QueryTask>(std::move(query));
  std::future<QueryResponse> future = task->promise.get_future();

  if (task->query()->has_deadline()) {
    if (task->query()->deadline() <= std::chrono::steady_clock::now()) {
      // Dead on arrival: don't occupy a queue slot.
      task->CompleteUnexecuted(QueryResponse::Status::kDeadlineExceeded);
      return future;
    }
    // A deadline query never waits on a full queue — by the time a slot
    // frees up its budget may be gone, and blocking the client would stall
    // its other submissions. Shed it instead: admission control.
    if (!queue_.TryPush(task.get())) {
      GAUSS_CHECK_MSG(!queue_.closed(), "Submit on a shut-down service");
      task->CompleteUnexecuted(QueryResponse::Status::kShed);
      return future;
    }
  } else {
    // Push blocks while the queue is full — backpressure towards the
    // submitting client. The queue only rejects after Close(), i.e. during
    // shutdown; submitting then is a caller bug.
    GAUSS_CHECK_MSG(queue_.Push(task.get()), "Submit on a shut-down service");
  }
  // The queue accepted the task: the popping thread owns and deletes it.
  task.release();
  return future;
}

std::future<QueryResponse> AdmissionPool::SubmitWork(
    std::function<QueryResponse()> work) {
  auto task = std::make_unique<QueryTask>(std::move(work));
  std::future<QueryResponse> future = task->promise.get_future();
  GAUSS_CHECK_MSG(queue_.Push(task.get()),
                  "SubmitWork on a shut-down service");
  task.release();
  return future;
}

void AdmissionPool::Loop() {
  QueryTask* raw = nullptr;
  while (queue_.Pop(&raw)) {
    std::unique_ptr<QueryTask> task(raw);
    if (Query* query = task->query()) {
      if (query->has_deadline() &&
          query->deadline() <= std::chrono::steady_clock::now()) {
        // Expired while queued: report instead of burning tree traversal on
        // an answer nobody is waiting for.
        task->CompleteUnexecuted(QueryResponse::Status::kDeadlineExceeded);
        continue;
      }
      task->promise.set_value(execute_(*query));
    } else {
      auto& work = std::get<std::function<QueryResponse()>>(task->payload);
      task->promise.set_value(work());
    }
  }
}

BatchResult AdmissionPool::ExecuteBatch(const std::vector<Query>& batch,
                                        const std::function<IoStats()>& io) {
  BatchResult result;
  if (batch.empty()) return result;

  const IoStats io_before = io();
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(batch.size());
  for (const Query& query : batch) futures.push_back(Submit(query));

  result.responses.reserve(batch.size());
  for (std::future<QueryResponse>& future : futures) {
    result.responses.push_back(future.get());
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.stats = AggregateBatchStats(result.responses, wall, io() - io_before);
  return result;
}

}  // namespace internal

QueryService::QueryService(const GaussTree& tree, QueryServiceOptions options)
    : tree_(tree),
      pool_(CheckedWorkers(tree, options.num_workers), options.queue_capacity,
            [&tree](const Query& query) {
              return ExecuteQuery(tree, query);
            }) {}

BatchResult QueryService::ExecuteBatch(const std::vector<Query>& batch) {
  return pool_.ExecuteBatch(batch, [this] { return tree_.pool()->stats(); });
}

ServiceStats AggregateBatchStats(const std::vector<QueryResponse>& responses,
                                 double wall_seconds, const IoStats& io) {
  ServiceStats stats;
  stats.wall_seconds = wall_seconds;
  stats.io = io;
  std::vector<uint64_t> latencies;
  latencies.reserve(responses.size());
  for (const QueryResponse& resp : responses) {
    if (resp.kind == QueryKind::kMliq) {
      ++stats.mliq_queries;
    } else {
      ++stats.tiq_queries;
    }
    switch (resp.status) {
      case QueryResponse::Status::kShed:
        ++stats.shed_queries;
        continue;  // no latency sample, no work done
      case QueryResponse::Status::kDeadlineExceeded:
        ++stats.deadline_exceeded_queries;
        continue;
      case QueryResponse::Status::kShardError:
        ++stats.shard_error_queries;
        continue;
      case QueryResponse::Status::kCorrupt:
        // Counted in mliq/tiq_queries only: a counter of its own would
        // change the stats wire body.
        continue;
      case QueryResponse::Status::kOk:
        break;
    }
    stats.nodes_visited += resp.stats.nodes_visited;
    stats.leaf_nodes_visited += resp.stats.leaf_nodes_visited;
    stats.objects_evaluated += resp.stats.objects_evaluated;
    latencies.push_back(resp.latency_ns);
  }
  stats.latency = LatencySummary::FromNanos(std::move(latencies));
  if (wall_seconds > 0.0) {
    stats.qps = static_cast<double>(stats.total_queries()) / wall_seconds;
  }
  return stats;
}

}  // namespace gauss
