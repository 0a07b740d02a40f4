#ifndef GAUSS_SERVICE_REQUEST_QUEUE_H_
#define GAUSS_SERVICE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

namespace gauss {

namespace internal {
struct QueryTask;  // one in-flight query: descriptor + promise (query_service.h)
}  // namespace internal

// Bounded multi-producer/multi-consumer queue of in-flight query tasks: the
// admission point of GaussServe. Producers (Submit callers) normally block
// while the queue is full — the bound is the service's backpressure
// mechanism, keeping the number of admitted-but-unserved queries finite no
// matter how fast clients submit. Deadline-carrying queries use TryPush
// instead, which rejects immediately on a full queue so admission control
// can shed them rather than make them wait. Consumers (workers) block while
// the queue is empty.
//
// The queue stores raw QueryTask pointers and never touches them; ownership
// conventions are the caller's (internal::AdmissionPool, the one owner of a
// RequestQueue, hands ownership from Submit to the popping thread).
//
// Design choice: a mutex + two condition variables rather than a lock-free
// ring. A pop is followed by an MLIQ/TIQ traversal costing tens of
// microseconds to milliseconds, so queue synchronization is noise (<1%) on
// the serving path; the mutex version is ~80 lines, trivially correct, and
// supports the blocking/closing semantics a lock-free ring would need extra
// machinery for.
class RequestQueue {
 public:
  // `capacity` > 0: maximum number of queued (not yet popped) items.
  explicit RequestQueue(size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  // Enqueues one task, blocking while the queue is full. Returns false (and
  // does not enqueue) if the queue has been closed.
  bool Push(internal::QueryTask* task);

  // Non-blocking admission: enqueues and returns true iff the queue is open
  // and has a free slot right now. Never waits — this is what deadline-based
  // shedding rejects through.
  bool TryPush(internal::QueryTask* task);

  // Dequeues into `*out`, blocking while the queue is empty. Returns false
  // once the queue is closed *and* drained — the worker shutdown signal.
  bool Pop(internal::QueryTask** out);

  // Closes the queue: subsequent Push/TryPush calls fail, Pop drains what is
  // left. Wakes every blocked producer and consumer. Idempotent — closing an
  // already-closed queue is a no-op, so shutdown paths may race on it.
  void Close();

  // True once Close() has run (racy by nature: a concurrent Close may land
  // right after the check; use for diagnostics, not admission decisions).
  bool closed() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<internal::QueryTask*> items_;
  bool closed_ = false;
};

}  // namespace gauss

#endif  // GAUSS_SERVICE_REQUEST_QUEUE_H_
