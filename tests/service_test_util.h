#ifndef GAUSS_TESTS_SERVICE_TEST_UTIL_H_
#define GAUSS_TESTS_SERVICE_TEST_UTIL_H_

// Helpers shared by the serving-layer tests (service_test, streaming_test,
// api_test, shard_serving_test): mixed MLIQ/TIQ batch construction, ground
// truth through the documented low-level API, the byte-identical result
// comparison the acceptance criteria are phrased in, and the gated
// PageCache that pins services in a known state for deterministic
// admission-control tests.

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/workload.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/tiq.h"
#include "service/query.h"
#include "storage/page_cache.h"

namespace gauss::test {

// PageCache decorator whose reads can be gated shut: a worker executing a
// query blocks inside Fetch() until the test opens the gate. This pins the
// service in a known state (worker busy, queue holding exactly the tasks the
// test placed) so admission-control behavior can be asserted without races.
class GatedPageCache : public PageCache {
 public:
  explicit GatedPageCache(PageCache* inner) : inner_(inner) {}

  PageRef Fetch(PageId id) override {
    WaitWhileGated();
    return inner_->Fetch(id);
  }
  PageRef FetchMutable(PageId id) override {
    WaitWhileGated();
    return inner_->FetchMutable(id);
  }
  void WritePage(PageId id, const void* data) override {
    inner_->WritePage(id, data);
  }
  void FlushAll() override { inner_->FlushAll(); }
  void Clear() override { inner_->Clear(); }
  IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  PageDevice* device() const override { return inner_->device(); }
  bool thread_safe() const override { return inner_->thread_safe(); }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gated_ = false;
    }
    cv_.notify_all();
  }
  // Number of threads currently blocked at the gate.
  size_t waiting() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_;
  }

 private:
  void WaitWhileGated() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.wait(lock, [this] { return !gated_; });
    --waiting_;
  }

  PageCache* inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  size_t waiting_ = 0;
};

// Busy-waits (1 ms naps) for a gate/queue condition to become observable.
inline void SpinUntil(const std::function<bool()>& pred) {
  while (!pred()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// Alternating MLIQ (k=3) / TIQ (threshold 0.2) queries over a workload.
inline std::vector<Query> MakeMixedBatch(
    const std::vector<IdentificationQuery>& workload) {
  std::vector<Query> batch;
  batch.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    if (i % 2 == 0) {
      batch.push_back(Query::Mliq(workload[i].query, /*k=*/3));
    } else {
      batch.push_back(Query::Tiq(workload[i].query, /*threshold=*/0.2));
    }
  }
  return batch;
}

// Ground truth for a batch through the low-level QueryMliq/QueryTiq API.
inline std::vector<std::vector<IdentificationResult>> DirectAnswers(
    const GaussTree& tree, const std::vector<Query>& batch) {
  std::vector<std::vector<IdentificationResult>> expected;
  expected.reserve(batch.size());
  for (const Query& query : batch) {
    if (query.kind() == QueryKind::kMliq) {
      expected.push_back(
          QueryMliq(tree, query.pfv(), query.k(), query.mliq_options()).items);
    } else {
      expected.push_back(
          QueryTiq(tree, query.pfv(), query.threshold(), query.tiq_options())
              .items);
    }
  }
  return expected;
}

// Byte-identical, not approximately equal: every execution path runs the
// very same deterministic traversal, so all double fields must match bitwise.
inline void ExpectItemsBytesEqual(const std::vector<IdentificationResult>& got,
                                  const std::vector<IdentificationResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(std::memcmp(&got[i].log_density, &want[i].log_density,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&got[i].probability, &want[i].probability,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&got[i].probability_error,
                          &want[i].probability_error, sizeof(double)),
              0);
  }
}

}  // namespace gauss::test

#endif  // GAUSS_TESTS_SERVICE_TEST_UTIL_H_
