// End-to-end benchmark, traced run: the per-layer numbers of one workload.
//
//   gauss_e2e_trace --workload tree --seed 1 --seconds 10
//
// Kept apart from gauss_e2e so the gated numbers never depend on layer
// interfaces. Everything here is timed from outside the program, around
// calls into each layer's public interface:
//   1. The nominal phase again (same clients; the whole --seconds in one
//      phase after one set-up), for the split of response time into admission-queue wait and
//      execution. Under ingest, ingest_stats() is polled every 10 ms from
//      the warm-up on, and one more merge runs under the nominal phase's
//      clients after it, for the response time while a merge runs.
//   2. The capacity search: open-loop ladder steps, starting from the
//      nominal phase's throughput, bisecting for the highest rate whose p99
//      meets the 5 ms limit (service.max_qps_slo).
//   3. A replay of 512 pool probes one at a time: through the session
//      (execution time with nothing queued), through every shard's backend
//      Start (in-process, RPC over loopback, and a DeltaBackend), through a
//      ShardCoordinator whose backends time each Start it sends, and
//      through a decorated storage stack reopened over the workload's device:
//        TimingPageDevice -> ShardedBufferPool (the workload's cache budget)
//        -> TimingPageCache -> GaussTree::Open -> QueryMliq/QueryTiq.
//      Every node a traversal expanded (the pages it fetched and its tree's
//      pinned root) is then re-scored through the batch kernels to time the
//      math layer.
// Spans (trace id = probe, name, layer, start, end, parent) are kept in
// memory and, for the first 64 replayed probes, written at exit as Chrome
// trace-event JSON to <out>/<workload>.trace.json. trace.overhead_frac
// compares the decorated traversal with the same traversal over an
// undecorated stack.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gausstree/delta_tree.h"
#include "gausstree/mliq.h"
#include "gausstree/query_common.h"
#include "gausstree/tiq.h"
#include "harness.h"
#include "math/kernels.h"
#include "net/rpc_backend.h"
#include "net/shard_backend.h"
#include "net/shard_server.h"
#include "service/shard_coordinator.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::e2e {
namespace {

constexpr size_t kReplayProbes = 512;
// Replayed probes whose spans go into the trace file.
constexpr size_t kTracedProbesWritten = 64;
constexpr auto kPollInterval = std::chrono::milliseconds(10);
// Length of each closed-loop chunk run while the traced merge runs.
constexpr double kMergeChunkS = 0.25;

// The capacity search after the nominal phase: kLadderSteps open-loop
// steps, each kLadderStepShare of --seconds long.
constexpr double kLadderStepShare = 0.055;
constexpr size_t kLadderSteps = 4;
// A step is judged on the medians over its windows, like the nominal phase.
constexpr size_t kLadderWindows = 4;
// Ladder bisection, in multiples of the nominal phase's throughput (its
// clients keep every server worker busy, so that is the saturation rate).
constexpr double kLadderStart = 0.90;
constexpr double kLadderFirstMove = 0.20;

// ---------------------------------------------------------------- spans ---

struct Span {
  uint32_t trace = 0;  // probe (pool index)
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list, -1 = root
};

// In-memory span recorder for the single replay thread: Begin() opens a span
// under the innermost open one, End() closes it and returns its duration.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 20); }

  void SetTrace(uint32_t trace) { trace_ = trace; }

  int32_t Begin(const char* name, const char* layer) {
    Span span;
    span.trace = trace_;
    span.name = name;
    span.layer = layer;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  int64_t End(int32_t index) {
    Span& span = spans_[index];
    span.end_ns = NowNs();
    open_.pop_back();
    return span.end_ns - span.start_ns;
  }

  // Pages the decorated cache served; the replay clears it per traversal.
  std::vector<PageId>& fetched() { return fetched_; }

  // Writes the spans of the first `max_traces` traces recorded (all of a
  // sharded replay would take ~100 MB).
  void WriteChromeTrace(const std::string& path, size_t max_traces) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::unordered_set<uint32_t> kept;
    const char* separator = "";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (kept.count(s.trace) == 0) {
        if (kept.size() == max_traces) continue;
        kept.insert(s.trace);
      }
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                    "\"args\": {\"span\": %zu, \"parent\": %d}}",
                    separator, s.name, s.layer,
                    1e-3 * double(s.start_ns - origin),
                    1e-3 * double(s.end_ns - s.start_ns), s.trace, i,
                    s.parent);
      out << line;
      separator = ",\n";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<PageId> fetched_;
  uint32_t trace_ = 0;
};

// ----------------------------------------------------------- decorators ---

// Times every device read.
class TimingPageDevice : public PageDevice {
 public:
  TimingPageDevice(PageDevice* inner, Tracer* tracer)
      : PageDevice(inner->page_size()), inner_(inner), tracer_(tracer) {}

  PageId Allocate() override { return inner_->Allocate(); }
  void Read(PageId id, void* out) const override {
    const int32_t span = tracer_->Begin("device.read", "storage");
    inner_->Read(id, out);
    read_us_.push_back(1e-3 * double(tracer_->End(span)));
  }
  void Write(PageId id, const void* data) override { inner_->Write(id, data); }
  size_t PageCount() const override { return inner_->PageCount(); }

  size_t reads() const { return read_us_.size(); }
  const std::vector<double>& read_us() const { return read_us_; }

 private:
  PageDevice* inner_;
  Tracer* tracer_;
  mutable std::vector<double> read_us_;
};

// Times every fetch, splits hits from misses by whether the device under
// the pool was read, and remembers which pages were fetched.
class TimingPageCache : public PageCache {
 public:
  TimingPageCache(ShardedBufferPool* inner, const TimingPageDevice* device,
                  Tracer* tracer)
      : inner_(inner), device_(device), tracer_(tracer) {}

  PageRef Fetch(PageId id) override {
    const size_t reads = device_->reads();
    const int32_t span = tracer_->Begin("fetch", "storage");
    PageRef ref = inner_->Fetch(id);
    const double us = 1e-3 * double(tracer_->End(span));
    (device_->reads() == reads ? hit_us_ : miss_us_).push_back(us);
    fetch_ns_ += static_cast<int64_t>(1e3 * us);
    tracer_->fetched().push_back(id);
    return ref;
  }
  PageRef FetchMutable(PageId id) override { return inner_->FetchMutable(id); }
  void Prefetch(PageId id) override { inner_->Prefetch(id); }
  void WritePage(PageId id, const void* data) override {
    inner_->WritePage(id, data);
  }
  void FlushAll() override { inner_->FlushAll(); }
  void Clear() override { inner_->Clear(); }
  IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  PageDevice* device() const override { return inner_->device(); }
  bool thread_safe() const override { return false; }

  // Total fetch time since the last call.
  int64_t TakeFetchNs() { return std::exchange(fetch_ns_, 0); }
  const std::vector<double>& hit_us() const { return hit_us_; }
  const std::vector<double>& miss_us() const { return miss_us_; }

 private:
  ShardedBufferPool* inner_;
  const TimingPageDevice* device_;
  Tracer* tracer_;
  int64_t fetch_ns_ = 0;
  std::vector<double> hit_us_, miss_us_;
};

// Forwards to a shard backend and times each Start from the call until the
// caller's get() returns. A coordinator gathers its shards one after the
// other, so over one query the largest of these is when its scatter had
// every shard's answer.
class TimingShardBackend : public ShardBackend {
 public:
  explicit TimingShardBackend(ShardBackend* inner) : inner_(inner) {}

  size_t dim() const override { return inner_->dim(); }
  std::future<StartResult> Start(uint64_t traversal,
                                 const Query& query) override {
    const int64_t t0 = NowNs();
    return std::async(std::launch::deferred,
                      [this, t0, started = inner_->Start(traversal, query)]()
                          mutable {
                        StartResult result = started.get();
                        last_start_ns_.store(NowNs() - t0);
                        return result;
                      });
  }
  std::future<RefineResult> Refine(std::vector<RefineSpec> specs) override {
    return inner_->Refine(std::move(specs));
  }
  void Release(const std::vector<uint64_t>& traversals) override {
    inner_->Release(traversals);
  }
  StatsResult FetchStats() override { return inner_->FetchStats(); }
  SketchResult FetchSketch() override { return inner_->FetchSketch(); }
  BackendRefineCounters refine_counters() const override {
    return inner_->refine_counters();
  }

  int64_t last_start_ns() const { return last_start_ns_.load(); }

 private:
  ShardBackend* inner_;
  std::atomic<int64_t> last_start_ns_{0};
};

// ------------------------------------------------------------- helpers ---

// Where one shard's tree lives.
struct ShardImage {
  PageDevice* device = nullptr;
  PageId meta = 0;
};

// One storage stack over every shard image: a pool with the workload's
// cache budget and the reopened trees; decorated when `tracer` is set.
struct Stack {
  std::unique_ptr<TimingPageDevice> timing_device;
  std::unique_ptr<ShardedBufferPool> pool;
  std::unique_ptr<TimingPageCache> timing_cache;
  std::vector<std::unique_ptr<GaussTree>> trees;

  Stack(const std::vector<ShardImage>& images, size_t cache_pages,
        Tracer* tracer) {
    PageDevice* device = images.front().device;
    if (tracer != nullptr) {
      timing_device = std::make_unique<TimingPageDevice>(device, tracer);
      device = timing_device.get();
    }
    pool = std::make_unique<ShardedBufferPool>(device, cache_pages);
    PageCache* cache = pool.get();
    if (tracer != nullptr) {
      timing_cache = std::make_unique<TimingPageCache>(
          pool.get(), timing_device.get(), tracer);
      cache = timing_cache.get();
    }
    for (const ShardImage& image : images) {
      trees.push_back(GaussTree::Open(cache, image.meta));
    }
  }
};

// Runs the probe's query kind on one tree with the probe's own options.
std::vector<IdentificationResult> Traverse(const GaussTree& tree,
                                           const Query& q,
                                           TraversalStats* stats) {
  if (q.kind() == QueryKind::kMliq) {
    MliqResult r = QueryMliq(tree, q.pfv(), q.k(), q.mliq_options());
    *stats = r.stats;
    return std::move(r.items);
  }
  TiqResult r = QueryTiq(tree, q.pfv(), q.threshold(), q.tiq_options());
  *stats = r.stats;
  return std::move(r.items);
}

bool SameItems(const std::vector<IdentificationResult>& items,
               const QueryResponse& ref) {
  QueryResponse r;
  r.status = ref.status;
  r.items = items;
  return SameBytes(r, ref);
}

// Re-scores one node page against the probe through the batch kernels.
struct KernelTimes {
  int64_t total_ns = 0;
  int64_t joint_ns = 0;
  int64_t hull_ns = 0;
  uint64_t leaf_entries = 0;
  uint64_t inner_entries = 0;
};

void Rescore(const GtNodeSoa& node, const Pfv& q, double log_ref,
             SigmaPolicy policy, Tracer* tracer, KernelTimes* times) {
  std::vector<double> upper(node.n), lower(node.n), scaled(node.n);
  if (node.leaf()) {
    kernels::JointBatchArgs args;
    args.mu = node.mu();
    args.sigma = node.sigma();
    args.stride = node.stride;
    args.n = node.n;
    args.dim = node.dim;
    args.mu_q = q.mu.data();
    args.sigma_q = q.sigma.data();
    args.policy = policy;
    int32_t span = tracer->Begin("kernel.joint", "math");
    kernels::JointLogDensityBatch(args, upper.data());
    const int64_t joint = tracer->End(span);
    span = tracer->Begin("kernel.exp_shift", "math");
    kernels::ExpShiftBatch(upper.data(), log_ref, node.n, scaled.data());
    times->total_ns += joint + tracer->End(span);
    times->joint_ns += joint;
    times->leaf_entries += node.n;
    return;
  }
  kernels::HullBatchArgs args;
  args.mu_lo = node.mu_lo();
  args.mu_hi = node.mu_hi();
  args.sigma_lo = node.sigma_lo();
  args.sigma_hi = node.sigma_hi();
  args.stride = node.stride;
  args.n = node.n;
  args.dim = node.dim;
  args.mu_q = q.mu.data();
  args.sigma_q = q.sigma.data();
  args.policy = policy;
  int32_t span = tracer->Begin("kernel.hull", "math");
  kernels::HullIntegralBoundsBatch(args, upper.data(), lower.data());
  const int64_t hull = tracer->End(span);
  span = tracer->Begin("kernel.exp_shift", "math");
  kernels::ExpShiftBatch(upper.data(), log_ref, node.n, scaled.data());
  kernels::ExpShiftBatch(lower.data(), log_ref, node.n, scaled.data());
  times->total_ns += hull + tracer->End(span);
  times->hull_ns += hull;
  times->inner_entries += node.n;
}

// Starts `query` on every backend at once; fills each one's Start duration
// (submit to future ready, stamped by polling so no shard waits for
// another's turn) and releases the traversals.
std::vector<double> StartAll(const std::vector<ShardBackend*>& backends,
                             const Query& query, uint64_t traversal) {
  std::vector<std::future<ShardBackend::StartResult>> futures;
  std::vector<double> ms(backends.size(), -1.0);
  const int64_t t0 = NowNs();
  for (ShardBackend* backend : backends) {
    futures.push_back(backend->Start(traversal, query));
  }
  for (size_t pending = backends.size(); pending > 0;) {
    for (size_t s = 0; s < futures.size(); ++s) {
      if (ms[s] < 0.0 && futures[s].wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready) {
        ms[s] = 1e-6 * double(NowNs() - t0);
        futures[s].get();
        --pending;
      }
    }
  }
  for (ShardBackend* backend : backends) backend->Release({traversal});
  return ms;
}

double StartOne(ShardBackend* backend, const Query& query,
                uint64_t traversal) {
  const int64_t t0 = NowNs();
  backend->Start(traversal, query).get();
  const double ms = 1e-6 * double(NowNs() - t0);
  backend->Release({traversal});
  return ms;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

// ingest_stats() sampled every 10 ms on its own thread.
class IngestPoller {
 public:
  struct Poll {
    int64_t t_ns = 0;
    IngestStats stats;
  };

  explicit IngestPoller(Session* session) : session_(session) {
    polls_.reserve(1 << 16);
    thread_ = std::thread([this] {
      LowerTimerSlack();
      while (!stop_.load()) {
        polls_.push_back(Poll{NowNs(), session_->ingest_stats()});
        std::this_thread::sleep_for(kPollInterval);
      }
    });
  }
  ~IngestPoller() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  const std::vector<Poll>& polls() const { return polls_; }

  // Merge intervals: a merge is due from the first poll showing a backlog
  // until the poll where merges_completed grows.
  std::vector<std::pair<int64_t, int64_t>> Merges() const {
    std::vector<std::pair<int64_t, int64_t>> merges;
    int64_t due = -1;
    for (size_t i = 0; i < polls_.size(); ++i) {
      const Poll& p = polls_[i];
      if (due < 0 && p.stats.merge_backlog > 0) due = p.t_ns;
      if (i > 0 && p.stats.merges_completed >
                       polls_[i - 1].stats.merges_completed) {
        merges.emplace_back(due < 0 ? polls_[i - 1].t_ns : due, p.t_ns);
        due = -1;
      }
    }
    return merges;
  }

 private:
  Session* session_;
  std::vector<Poll> polls_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct MergePhase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<double> response_ms;  // of queries sent while it ran
};

// Ingest only. The run's own background merge runs before the warm-up (see
// Harness::WarmUp), so this runs one more under load: GaussDb::MergeIngest() folds the
// delta into the base on another thread while the nominal phase's clients
// keep sending.
MergePhase RunMergePhase(Harness& harness) {
  MergePhase phase;
  std::atomic<int64_t> end_ns{0};
  phase.start_ns = NowNs();
  std::thread merge([&] {
    harness.topology().db().MergeIngest();
    end_ns.store(NowNs());
  });
  std::vector<PhaseResult> chunks;
  while (end_ns.load() == 0) {
    chunks.push_back(harness.Closed(harness.clients(), kMergeChunkS));
  }
  merge.join();
  phase.end_ns = end_ns.load();
  for (const PhaseResult& chunk : chunks) {
    for (const Sample& s : chunk.samples) {
      if (s.sched_ns < phase.end_ns) phase.response_ms.push_back(s.response_ms());
    }
  }
  return phase;
}

struct LadderStep {
  double rate = 0.0;
  double p99_ms = 0.0;
  double lateness_us_p99 = 0.0;  // how late the sender ran
  bool pass = false;
};

// One open-loop ladder step at `rate`: it meets the limit when its p99 is
// at most kLatencyLimitMs, nothing failed, and fewer than rate x 5 ms
// queries were in flight at its end (p99 and in-flight count are medians
// over the step's windows, so one scheduling hiccup does not decide it).
LadderStep RunStep(Harness& harness, double rate, double seconds) {
  LadderStep step;
  step.rate = rate;
  const PhaseResult phase = harness.Open(rate, seconds);
  step.p99_ms = phase.MedianOfWindowsMs(kLadderWindows, 0.99);
  step.lateness_us_p99 = Percentile(phase.lateness_us, 0.99);
  const double backlog_limit = std::max(1.0, rate * kLatencyLimitMs / 1000.0);
  step.pass = step.p99_ms <= kLatencyLimitMs && phase.failed == 0 &&
              phase.MedianInflightAtWindowEnds(kLadderWindows) < backlog_limit;
  return step;
}

// Highest offered rate meeting the limit, by bisection over multiples of
// `capacity`: the first step runs at kLadderStart x, and each
// later one moves up after a pass and down after a miss, by a move that
// halves every step. Every later step so lies between the highest passing
// and the lowest failing rate so far; the answer is interpolated on log
// p99 between the two.
double MaxQpsUnderSlo(Harness& harness, double capacity, double step_seconds,
                      std::vector<LadderStep>* steps) {
  double factor = kLadderStart;
  double move = kLadderFirstMove;
  for (size_t i = 0; i < kLadderSteps; ++i) {
    steps->push_back(RunStep(harness, factor * capacity, step_seconds));
    factor += steps->back().pass ? move : -move;
    move /= 2;
  }
  const LadderStep* ok = nullptr;
  const LadderStep* bad = nullptr;
  for (const LadderStep& step : *steps) {
    if (step.pass && (ok == nullptr || step.rate > ok->rate)) ok = &step;
    if (!step.pass && (bad == nullptr || step.rate < bad->rate)) bad = &step;
  }
  if (bad == nullptr) return ok->rate;
  if (ok == nullptr) {
    return bad->rate * std::min(1.0, kLatencyLimitMs / bad->p99_ms);
  }
  // A step that failed on backlog or errors, not on p99, gives nothing to
  // interpolate on.
  if (bad->p99_ms <= kLatencyLimitMs || bad->p99_ms <= ok->p99_ms) {
    return ok->rate;
  }
  const double t = (std::log(kLatencyLimitMs) - std::log(ok->p99_ms)) /
                   (std::log(bad->p99_ms) - std::log(ok->p99_ms));
  return ok->rate + t * (bad->rate - ok->rate);
}

// ---------------------------------------------------------------- main ---

int Main(int argc, char** argv) {
  Harness harness(argc, argv);
  const WorkloadSpec& spec = harness.spec();
  const double seconds = harness.args().seconds;
  std::map<std::string, double> m;

  harness.SetUp();
  m["gausstree.build_s"] = harness.setup_times().front().build_s;
  m["api.serve_s"] = harness.setup_times().front().serve_s;
  harness.Start();
  Session& session = harness.topology().session();

  // ---- 1. The nominal phase, split into queue wait and execution. ----
  std::unique_ptr<IngestPoller> poller;
  if (spec.ingest) poller = std::make_unique<IngestPoller>(&session);
  harness.WarmUp();
  const IoStats io_before = session.io_stats();
  const PhaseResult nominal = harness.Nominal(seconds);
  const IoStats io = session.io_stats() - io_before;
  harness.PrintPhase("nominal", nominal);
  if (poller) poller->Stop();
  MergePhase merge;
  if (spec.ingest) merge = RunMergePhase(harness);

  std::vector<double> wait_ms, exec_ms, response_ms;
  for (const Sample& s : nominal.samples) {
    const double exec = 1e-6 * double(s.exec_ns);
    exec_ms.push_back(exec);
    wait_ms.push_back(s.response_ms() - exec);
    response_ms.push_back(s.response_ms());
  }
  const double queries = double(nominal.samples.size());
  m["service.queue_wait_ms.p50"] = Percentile(wait_ms, 0.5);
  m["service.queue_wait_ms.p99"] = Percentile(wait_ms, 0.99);
  m["service.exec_ms.p50"] = Percentile(exec_ms, 0.5);
  m["service.exec_ms.p99"] = Percentile(exec_ms, 0.99);
  m["storage.hit_rate"] =
      io.logical_reads == 0
          ? 1.0
          : 1.0 - double(io.physical_reads) / double(io.logical_reads);
  m["storage.device_reads_per_query"] = double(io.physical_reads) / queries;
  m["storage.evictions_per_query"] = double(io.evictions) / queries;
  m["loadgen.samples"] = queries;
  // The nominal phase never overlaps a merge (Harness::Start), so all of it
  // is "outside".
  m["api.p99_ms.outside_merge"] = Percentile(response_ms, 0.99);
  // Merge and insert timings exist only under ingest, while every workload
  // reports every per-layer metric; so they go into the run's info.
  std::map<std::string, std::string> info;
  std::vector<double> merge_s, delta_sizes;
  m["api.merges"] = 0.0;
  if (poller) {
    const auto merges = poller->Merges();
    for (const auto& [from, to] : merges) merge_s.push_back(1e-9 * double(to - from));
    for (const auto& p : poller->polls()) {
      delta_sizes.push_back(double(p.stats.delta_size));
    }
    m["api.merges"] = double(merges.size());
    merge_s.push_back(1e-9 * double(merge.end_ns - merge.start_ns));
    info["merge_s_p50"] = std::to_string(Percentile(merge_s, 0.5));
    info["p99_ms_during_merge"] =
        std::to_string(Percentile(merge.response_ms, 0.99));
  }
  m["api.delta_size.mean"] = Mean(delta_sizes);

  // ---- 2. Capacity: the open-loop ladder. ----
  std::vector<LadderStep> steps;
  m["service.saturation_qps"] = nominal.achieved_qps;
  m["service.max_qps_slo"] = MaxQpsUnderSlo(
      harness, nominal.achieved_qps, kLadderStepShare * seconds, &steps);
  m["loadgen.lateness_us.p99"] = 0.0;
  for (const LadderStep& step : steps) {
    m["loadgen.lateness_us.p99"] =
        std::max(m["loadgen.lateness_us.p99"], step.lateness_us_p99);
    char line[96];
    std::snprintf(line, sizeof(line), "ladder    rate=%.0f q/s p99=%.3f ms %s",
                  step.rate, step.p99_ms, step.pass ? "pass" : "FAIL");
    harness.Progress(line);
  }

  // Stops enrolling (ingest: final merge) and runs the oracle checks, so the
  // replay below reads a quiescent device.
  harness.Finish();
  double delta_full = 0.0;
  if (const Enroller* enroller = harness.enroller()) {
    std::vector<double> insert_us;
    for (const Enroller::Record& r : enroller->records()) {
      delta_full += r.outcome == InsertOutcome::kDeltaFull;
      if (r.sched_ns >= nominal.start_ns && r.sched_ns < nominal.end_ns) {
        insert_us.push_back(1e-3 * double(r.done_ns - r.sched_ns));
      }
    }
    info["insert_p50_us"] = std::to_string(Percentile(insert_us, 0.5));
    info["insert_p99_us"] = std::to_string(Percentile(insert_us, 0.99));
  }
  m["api.delta_full_rejections"] = delta_full;

  // ---- 3. Replay of a fixed probe sample, one at a time. ----
  const std::vector<Query>& pool = harness.inputs().probes;
  Rng rng(harness.args().seed);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(
      pool.size(), std::min(kReplayProbes, pool.size()));
  std::vector<Query> replay;
  for (size_t i : sample) replay.push_back(pool[i]);

  // Through the session with nothing queued: execution time alone.
  std::vector<double> single_exec_ms;
  for (const Query& q : replay) {
    const QueryResponse r = session.Submit(q).get();
    harness.Check(r.status == QueryResponse::Status::kOk);
    single_exec_ms.push_back(1e-6 * double(r.latency_ns));
  }
  m["service.exec_inflation"] =
      Percentile(exec_ms, 0.5) / Percentile(single_exec_ms, 0.5);
  const BatchResult batch = session.ExecuteBatch(replay);
  m["service.refine_rounds_per_query"] =
      double(batch.stats.refine_rounds) / double(replay.size());
  m["service.refine_queries_per_round"] =
      batch.stats.refine_rounds == 0
          ? 0.0
          : double(batch.stats.refine_batched_queries) /
                double(batch.stats.refine_rounds);

  // The shard images the workload serves (after ingest's final merge, the
  // base header at page 0 names the merged tree).
  std::vector<ShardImage> images;
  Topology& topology = harness.topology();
  if (spec.ingest) {
    images.push_back({&topology.db().device(0), 0});
  } else {
    Session& served = topology.session();
    for (size_t s = 0; s < served.num_shards(); ++s) {
      images.push_back({&topology.db().device(s), served.shard_tree(s).meta_page()});
    }
  }

  // Backends over every shard: in-process over a one-worker service on an
  // undecorated stack, and the same service over loopback RPC.
  Stack serving(images, spec.cache_pages, nullptr);
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<ShardBackend>> in_process, rpc;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<ShardBackend*> in_process_ptrs;
  for (const auto& tree : serving.trees) {
    services.push_back(std::make_unique<QueryService>(
        *tree, QueryServiceOptions{.num_workers = 1}));
    in_process.push_back(
        std::make_unique<InProcessBackend>(services.back().get()));
    in_process_ptrs.push_back(in_process.back().get());
    NetError error;
    servers.push_back(ShardServer::Listen(services.back().get(), {}, &error));
    std::unique_ptr<RpcBackend> backend =
        servers.back() == nullptr
            ? nullptr
            : RpcBackend::Connect("127.0.0.1", servers.back()->port(), {},
                                  &error);
    if (backend == nullptr) {
      std::cerr << "loopback shard: " << error.ToString() << "\n";
      return 1;
    }
    rpc.push_back(std::move(backend));
  }

  // A delta filled to the run's mean delta size.
  const size_t delta_objects =
      static_cast<size_t>(std::llround(m["api.delta_size.mean"]));
  auto delta = std::make_shared<DeltaTree>(harness.inputs().data.dataset.dim(),
                                           std::max<size_t>(1, delta_objects));
  for (size_t i = 0; i < delta_objects; ++i) {
    Pfv pfv = harness.inputs().data.dataset[i % harness.inputs().data.dataset.size()];
    pfv.id += 1'000'000'000ull;
    delta->Append(pfv);
  }
  DeltaBackend delta_backend(delta, serving.trees.front()->options().sigma_policy);

  std::vector<double> start_max, start_sum, coordinator_ms, wire_ms, delta_us;
  uint64_t traversal = 1;
  // One untimed pass first, so the stack's cache is as warm as the session's.
  for (const Query& q : replay) StartAll(in_process_ptrs, q, traversal++);
  for (size_t i = 0; i < replay.size(); ++i) {
    const std::vector<double> starts =
        StartAll(in_process_ptrs, replay[i], traversal++);
    double sum = 0.0;
    for (double v : starts) sum += v;
    start_max.push_back(*std::max_element(starts.begin(), starts.end()));
    start_sum.push_back(sum);
    for (size_t s = 0; s < rpc.size(); ++s) {
      const double local_ms = StartOne(in_process[s].get(), replay[i], traversal++);
      const double wire = StartOne(rpc[s].get(), replay[i], traversal++);
      wire_ms.push_back(wire - local_ms);
    }
    delta_us.push_back(1e3 * StartOne(&delta_backend, replay[i], traversal++));
  }
  m["net.start_ms.max"] = Percentile(start_max, 0.5);
  m["net.start_ms.sum"] = Percentile(start_sum, 0.5);

  // The coordinator's own time: a ShardCoordinator over the same backends,
  // each timed as the coordinator starts it (with the coordinator's own
  // per-shard query plans); its execution time minus the slowest Start is
  // the time spent planning, refining and merging.
  {
    std::vector<std::unique_ptr<TimingShardBackend>> timed;
    std::vector<ShardBackend*> timed_ptrs;
    for (const auto& backend : in_process) {
      timed.push_back(std::make_unique<TimingShardBackend>(backend.get()));
      timed_ptrs.push_back(timed.back().get());
    }
    ShardCoordinator coordinator(timed_ptrs);
    for (const Query& q : replay) coordinator.Submit(q).get();
    for (const Query& q : replay) {
      const QueryResponse r = coordinator.Submit(q).get();
      harness.Check(r.status == QueryResponse::Status::kOk);
      int64_t slowest = 0;
      for (const auto& backend : timed) {
        slowest = std::max(slowest, backend->last_start_ns());
      }
      coordinator_ms.push_back(1e-6 * (double(r.latency_ns) - double(slowest)));
    }
  }
  m["service.coordinator_ms.p50"] = Percentile(coordinator_ms, 0.5);
  m["net.wire_ms.p50"] = Percentile(wire_ms, 0.5);
  m["net.delta_start_us.p50"] = Percentile(delta_us, 0.5);
  rpc.clear();
  servers.clear();
  in_process.clear();
  in_process_ptrs.clear();
  services.clear();

  // Traversals: an undecorated stack and the decorated one, each cold for
  // one pass, then warm and interleaved probe by probe.
  Tracer tracer;
  Stack plain(images, spec.cache_pages, nullptr);
  Stack traced(images, spec.cache_pages, &tracer);
  const bool check_items = spec.shards == 0 && !spec.ingest;
  TraversalStats stats;
  for (size_t i = 0; i < replay.size(); ++i) {
    tracer.SetTrace(static_cast<uint32_t>(sample[i]));
    for (const auto& tree : plain.trees) Traverse(*tree, replay[i], &stats);
    const int32_t root = tracer.Begin("replay.cold", "gausstree");
    for (const auto& tree : traced.trees) {
      const int32_t span = tracer.Begin(
          replay[i].kind() == QueryKind::kMliq ? "traversal.mliq"
                                               : "traversal.tiq",
          "gausstree");
      Traverse(*tree, replay[i], &stats);
      tracer.End(span);
    }
    tracer.End(root);
  }
  traced.timing_cache->TakeFetchNs();

  std::vector<double> plain_ms, traced_ms, self_ms, kernel_ms, mliq_ms, tiq_ms;
  std::vector<double> nodes, objects, entries;
  KernelTimes all_kernels;
  const SigmaPolicy policy = traced.trees.front()->options().sigma_policy;
  GtNodeSoa node;
  std::vector<uint8_t> page(images.front().device->page_size());
  for (size_t i = 0; i < replay.size(); ++i) {
    const Query& q = replay[i];
    tracer.SetTrace(static_cast<uint32_t>(sample[i]));
    // The undecorated traversal runs before the traced one on even probes
    // and after it on odd ones, so neither always finds the probe's data
    // warm from the other.
    const auto time_plain = [&] {
      const int64_t t0 = NowNs();
      for (const auto& tree : plain.trees) Traverse(*tree, q, &stats);
      plain_ms.push_back(1e-6 * double(NowNs() - t0));
    };
    if (i % 2 == 0) time_plain();

    double traversal_ms = 0.0, node_count = 0.0, object_count = 0.0;
    // The pages each tree's traversal fetched, tree by tree.
    std::vector<std::vector<PageId>> pages;
    const int32_t root = tracer.Begin("replay", "gausstree");
    for (const auto& tree : traced.trees) {
      tracer.fetched().clear();
      const int32_t span = tracer.Begin(
          q.kind() == QueryKind::kMliq ? "traversal.mliq" : "traversal.tiq",
          "gausstree");
      const auto items = Traverse(*tree, q, &stats);
      traversal_ms += 1e-6 * double(tracer.End(span));
      pages.push_back(tracer.fetched());
      node_count += double(stats.nodes_visited);
      object_count += double(stats.objects_evaluated);
      if (check_items) {
        harness.Check(SameItems(items, harness.references()[sample[i]]));
      }
    }
    tracer.End(root);
    if (i % 2 == 1) time_plain();
    const double fetch_ms = 1e-6 * double(traced.timing_cache->TakeFetchNs());
    traced_ms.push_back(traversal_ms);
    (q.kind() == QueryKind::kMliq ? mliq_ms : tiq_ms).push_back(traversal_ms);
    nodes.push_back(node_count);
    objects.push_back(object_count);

    // Every node each traversal expanded: the pages it fetched plus its
    // tree's pinned root (expanded without a fetch), scored against that
    // tree's reference density.
    KernelTimes kernels;
    const int32_t rescore = tracer.Begin("rescore", "math");
    for (size_t t = 0; t < traced.trees.size(); ++t) {
      const GaussTree& tree = *traced.trees[t];
      pages[t].push_back(tree.root());
      const double log_ref = internal::ComputeLogRef(tree, q.pfv());
      for (const PageId id : pages[t]) {
        images.front().device->Read(id, page.data());
        GtNodeSoa::Decode(page.data(), tree.dim(), id, &node);
        Rescore(node, q.pfv(), log_ref, policy, &tracer, &kernels);
      }
    }
    tracer.End(rescore);
    kernel_ms.push_back(1e-6 * double(kernels.total_ns));
    entries.push_back(double(kernels.leaf_entries + kernels.inner_entries));
    self_ms.push_back(traversal_ms - fetch_ms - 1e-6 * double(kernels.total_ns));
    all_kernels.joint_ns += kernels.joint_ns;
    all_kernels.hull_ns += kernels.hull_ns;
    all_kernels.leaf_entries += kernels.leaf_entries;
    all_kernels.inner_entries += kernels.inner_entries;
  }
  m["gausstree.traversal_ms.mliq"] = Percentile(mliq_ms, 0.5);
  m["gausstree.traversal_ms.tiq"] = Percentile(tiq_ms, 0.5);
  m["gausstree.self_ms.p50"] = Percentile(self_ms, 0.5);
  m["gausstree.nodes_per_query"] = Mean(nodes);
  m["gausstree.objects_per_query"] = Mean(objects);
  m["math.kernel_ms.p50"] = Percentile(kernel_ms, 0.5);
  m["math.entries_per_query"] = Mean(entries);
  m["math.joint_ns_per_entry"] =
      double(all_kernels.joint_ns) / double(std::max<uint64_t>(1, all_kernels.leaf_entries));
  m["math.hull_ns_per_entry"] =
      double(all_kernels.hull_ns) / double(std::max<uint64_t>(1, all_kernels.inner_entries));
  m["storage.fetch_hit_us.p50"] = Percentile(traced.timing_cache->hit_us(), 0.5);
  m["storage.fetch_miss_us.p50"] = Percentile(traced.timing_cache->miss_us(), 0.5);
  m["storage.device_read_us.p50"] = Percentile(traced.timing_device->read_us(), 0.5);
  m["storage.device_read_us.p99"] = Percentile(traced.timing_device->read_us(), 0.99);
  m["trace.overhead_frac"] =
      Percentile(traced_ms, 0.5) / Percentile(plain_ms, 0.5) - 1.0;

  const std::string trace_path =
      harness.args().out_dir + "/" + spec.name + ".trace.json";
  tracer.WriteChromeTrace(trace_path, kTracedProbesWritten);
  std::printf("trace: %s\n", trace_path.c_str());
  info["trace"] = trace_path;
  return harness.Report(m, info);
}

}  // namespace
}  // namespace gauss::e2e

int main(int argc, char** argv) { return gauss::e2e::Main(argc, argv); }
