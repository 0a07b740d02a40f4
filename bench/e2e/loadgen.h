#ifndef GAUSS_BENCH_E2E_LOADGEN_H_
#define GAUSS_BENCH_E2E_LOADGEN_H_

// Load generator, closed or open loop. Both stamp every completion in
// whatever order queries complete: waiting in submission order would charge
// a short query the time of a long one ahead of it.
//
// Closed loop (the nominal phase): a fixed number of clients, each a thread
// that sends its next query as soon as its previous one completes.
//
// Open loop (the capacity search): one sender thread emits Poisson arrivals
// at a fixed offered rate and one collector thread sweeps the outstanding
// futures each ~10 us. Each response is timed from its *scheduled* send
// time, so a sender delayed by a stall (or blocked by a full admission
// queue) charges the delay to the queries behind it instead of hiding it
// (no coordinated omission).
//
// The generator's threads lower their timer slack so sleeps end on time,
// all sample buffers are reserved before a phase starts, and queries carry
// no deadline (nothing is shed; overload shows as latency). Generator and
// server share the run's CPUs: pinning the server to all but one of four
// CPUs, and the generator to the last, left the sharded topology's threads
// (a worker per shard, coordinator threads, refine flushers) too few CPUs,
// and its p50 spread 0.24 over ten runs against 0.08 unpinned.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "api/gauss_db.h"
#include "common/random.h"
#include "service/query.h"

namespace gauss::e2e {

// Monotonic nanoseconds (steady clock).
int64_t NowNs();

// Lowers the calling thread's timer slack to 1 ns, so its sleeps end on
// time.
void LowerTimerSlack();

// One completed query.
struct Sample {
  int64_t sched_ns = 0;  // when it was due to be sent
  int64_t done_ns = 0;   // when the generator saw its future ready
  uint64_t exec_ns = 0;  // QueryResponse::latency_ns (execution only)
  uint32_t probe = 0;    // pool index
  bool ok = false;       // kOk and the answer passed the check

  double response_ms() const { return 1e-6 * double(done_ns - sched_ns); }
};

struct PhaseResult {
  double achieved_qps = 0.0;  // completions inside the phase / its length
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t sent = 0;
  uint64_t failed = 0;           // completions with ok == false
  std::vector<Sample> samples;   // every completion, drained after end_ns
  std::vector<double> lateness_us;  // sender: actual - scheduled send

  // Response times (ms) of the samples scheduled in each of `windows` equal
  // windows of the phase.
  std::vector<std::vector<double>> WindowsMs(size_t windows) const;
  // Response-time percentile (ms) over the whole phase.
  double PercentileMs(double q) const;
  // Median over `windows` equal windows of the per-window percentile.
  double MedianOfWindowsMs(size_t windows, double q) const;
  // Median over the windows of the number of queries in flight (sent, not
  // complete) at each window's end.
  double MedianInflightAtWindowEnds(size_t windows) const;
};

class LoadGenerator {
 public:
  using SubmitFn = std::function<std::future<QueryResponse>(Query)>;
  // True when the response is right for pool entry `probe`.
  using CheckFn = std::function<bool(uint32_t probe, const QueryResponse&)>;

  // `probes` must outlive the generator. Arrivals and probe order derive
  // from `seed`: the sender walks seeded permutations of the pool, so every
  // probe is sent equally often (+-1) over any stretch of traffic.
  LoadGenerator(SubmitFn submit, CheckFn check,
                const std::vector<Query>& probes, uint64_t seed);

  // Poisson arrivals at `rate` for `seconds`, then waits for every sent
  // query to complete.
  PhaseResult OpenLoop(double rate, double seconds);

  // `concurrency` clients for `seconds`, then waits for the last queries;
  // a sample's sched_ns is its send time.
  PhaseResult ClosedLoop(size_t concurrency, double seconds);

 private:
  uint32_t NextProbe();

  SubmitFn submit_;
  CheckFn check_;
  const std::vector<Query>& probes_;
  Rng rng_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
};

// Enrollments on their own thread, from Start() until Stop(): the first
// `burst` objects back to back, then -- once the session has completed a
// merge -- the rest as Poisson arrivals. Each Insert() is timed from its
// scheduled time, like a query.
class Enroller {
 public:
  struct Record {
    int64_t sched_ns = 0;
    int64_t done_ns = 0;
    InsertOutcome outcome = InsertOutcome::kRoutedToDelta;
  };

  // `objects` bounds the run: the enroller stops early when it runs out.
  Enroller(Session* session, std::vector<Pfv> objects, size_t burst,
           double rate, uint64_t seed);
  ~Enroller();

  Enroller(const Enroller&) = delete;
  Enroller& operator=(const Enroller&) = delete;

  void Start();
  void Stop();  // joins; idempotent

  // Valid after Stop().
  const std::vector<Record>& records() const { return records_; }
  const std::vector<Pfv>& objects() const { return objects_; }

 private:
  void Loop();
  // Sleeps until `when_ns` in short steps; false once Stop() was called.
  bool SleepUntil(int64_t when_ns);
  void Enroll(const Pfv& pfv, int64_t sched_ns);

  Session* session_;
  std::vector<Pfv> objects_;
  size_t burst_;
  double rate_;
  Rng rng_;
  std::vector<Record> records_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace gauss::e2e

#endif  // GAUSS_BENCH_E2E_LOADGEN_H_
