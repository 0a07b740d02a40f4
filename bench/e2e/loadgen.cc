#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "workload.h"

namespace gauss::e2e {

namespace {

// How long the collector sleeps between sweeps of the outstanding futures:
// its stamps are late by at most this plus one wake-up.
constexpr auto kSweepInterval = std::chrono::microseconds(10);

void SleepUntilNs(int64_t when_ns) {
  const int64_t wait = when_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

struct Pending {
  std::future<QueryResponse> future;
  int64_t sched_ns = 0;
  uint32_t probe = 0;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LowerTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

std::vector<std::vector<double>> PhaseResult::WindowsMs(size_t windows) const {
  const double length = double(end_ns - start_ns) / double(windows);
  std::vector<std::vector<double>> out(windows);
  for (const Sample& s : samples) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(double(s.sched_ns - start_ns) / length));
    out[w].push_back(s.response_ms());
  }
  return out;
}

double PhaseResult::PercentileMs(double q) const {
  return Percentile(std::move(WindowsMs(1).front()), q);
}

double PhaseResult::MedianOfWindowsMs(size_t windows, double q) const {
  std::vector<double> per_window;
  for (std::vector<double>& values : WindowsMs(windows)) {
    per_window.push_back(Percentile(std::move(values), q));
  }
  return Median(std::move(per_window));
}

double PhaseResult::MedianInflightAtWindowEnds(size_t windows) const {
  std::vector<double> counts;
  for (size_t w = 1; w <= windows; ++w) {
    const int64_t t = start_ns + (end_ns - start_ns) * int64_t(w) /
                                     int64_t(windows);
    double inflight = 0;
    for (const Sample& s : samples) inflight += s.sched_ns <= t && s.done_ns > t;
    counts.push_back(inflight);
  }
  return Median(std::move(counts));
}

LoadGenerator::LoadGenerator(SubmitFn submit, CheckFn check,
                             const std::vector<Query>& probes, uint64_t seed)
    : submit_(std::move(submit)),
      check_(std::move(check)),
      probes_(probes),
      rng_(seed),
      order_(probes.size()) {}

uint32_t LoadGenerator::NextProbe() {
  if (cursor_ == 0) {
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = uint32_t(i);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.UniformInt(i)]);
    }
  }
  const uint32_t probe = order_[cursor_];
  cursor_ = (cursor_ + 1) % order_.size();
  return probe;
}

PhaseResult LoadGenerator::OpenLoop(double rate, double seconds) {
  PhaseResult result;
  const size_t expected = static_cast<size_t>(rate * seconds * 1.3) + 1024;
  result.samples.reserve(expected);
  result.lateness_us.reserve(expected);

  // The whole schedule is drawn up front, so the sender's loop does nothing
  // but sleep and submit.
  result.start_ns = NowNs() + 2'000'000;
  result.end_ns = result.start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::pair<int64_t, uint32_t>> schedule;
  schedule.reserve(expected);
  for (double t = rng_.Exponential(rate); t < seconds;
       t += rng_.Exponential(rate)) {
    schedule.emplace_back(result.start_ns + static_cast<int64_t>(t * 1e9),
                          NextProbe());
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Pending> handoff;  // guarded by mu
  handoff.reserve(expected);
  bool sender_done = false;      // guarded by mu

  std::thread sender([&] {
    LowerTimerSlack();
    for (const auto& [sched_ns, probe] : schedule) {
      SleepUntilNs(sched_ns);
      result.lateness_us.push_back(1e-3 * double(NowNs() - sched_ns));
      Pending pending{submit_(probes_[probe]), sched_ns, probe};
      {
        std::lock_guard<std::mutex> lock(mu);
        handoff.push_back(std::move(pending));
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
    cv.notify_one();
  });

  std::thread collector([&] {
    LowerTimerSlack();
    std::vector<Pending> live, incoming;
    live.reserve(expected);
    incoming.reserve(expected);
    for (;;) {
      bool done = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (live.empty()) {
          cv.wait(lock, [&] { return sender_done || !handoff.empty(); });
        }
        incoming.swap(handoff);
        done = sender_done;
      }
      for (Pending& p : incoming) live.push_back(std::move(p));
      incoming.clear();
      for (size_t i = 0; i < live.size();) {
        if (live[i].future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        Sample sample;
        sample.done_ns = NowNs();
        sample.sched_ns = live[i].sched_ns;
        sample.probe = live[i].probe;
        const QueryResponse response = live[i].future.get();
        sample.exec_ns = response.latency_ns;
        sample.ok = response.status == QueryResponse::Status::kOk &&
                    check_(sample.probe, response);
        result.samples.push_back(sample);
        live[i] = std::move(live.back());
        live.pop_back();
      }
      if (done && live.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        if (handoff.empty()) break;
        continue;
      }
      if (!live.empty()) std::this_thread::sleep_for(kSweepInterval);
    }
  });

  sender.join();
  collector.join();

  result.sent = schedule.size();
  uint64_t inside = 0;
  for (const Sample& s : result.samples) {
    if (!s.ok) ++result.failed;
    if (s.done_ns <= result.end_ns) ++inside;
  }
  result.achieved_qps = double(inside) / seconds;
  return result;
}

PhaseResult LoadGenerator::ClosedLoop(size_t concurrency, double seconds) {
  PhaseResult result;
  result.samples.reserve(static_cast<size_t>(seconds * 200000) + concurrency);
  result.start_ns = NowNs();
  result.end_ns = result.start_ns + static_cast<int64_t>(seconds * 1e9);
  // Each client is a thread of its own that blocks on its query's future,
  // so each completion is stamped when it happens, in whatever order.
  std::mutex mu;  // guards NextProbe() and result.samples
  std::vector<std::thread> clients;
  for (size_t i = 0; i < concurrency; ++i) {
    clients.emplace_back([&] {
      LowerTimerSlack();
      for (int64_t now = NowNs(); now < result.end_ns;) {
        Sample sample;
        sample.sched_ns = now;
        {
          std::lock_guard<std::mutex> lock(mu);
          sample.probe = NextProbe();
        }
        const QueryResponse response = submit_(probes_[sample.probe]).get();
        sample.done_ns = now = NowNs();
        sample.exec_ns = response.latency_ns;
        sample.ok = response.status == QueryResponse::Status::kOk &&
                    check_(sample.probe, response);
        std::lock_guard<std::mutex> lock(mu);
        result.samples.push_back(sample);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  uint64_t inside = 0;
  for (const Sample& s : result.samples) {
    if (!s.ok) ++result.failed;
    if (s.done_ns <= result.end_ns) ++inside;
  }
  result.sent = result.samples.size();
  result.achieved_qps = double(inside) / seconds;
  return result;
}

Enroller::Enroller(Session* session, std::vector<Pfv> objects, size_t burst,
                   double rate, uint64_t seed)
    : session_(session),
      objects_(std::move(objects)),
      burst_(std::min(burst, objects_.size())),
      rate_(rate),
      rng_(seed ^ 0x696e73657274ull) {
  records_.reserve(objects_.size());
}

Enroller::~Enroller() { Stop(); }

void Enroller::Start() { thread_ = std::thread([this] { Loop(); }); }

void Enroller::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

bool Enroller::SleepUntil(int64_t when_ns) {
  // Short steps, so Stop() is honoured promptly.
  while (!stop_.load() && NowNs() < when_ns) {
    SleepUntilNs(std::min(when_ns, NowNs() + 5'000'000));
  }
  return !stop_.load();
}

void Enroller::Enroll(const Pfv& pfv, int64_t sched_ns) {
  Record record;
  record.sched_ns = sched_ns;
  record.outcome = session_->Insert(pfv).outcome;
  record.done_ns = NowNs();
  records_.push_back(record);
}

void Enroller::Loop() {
  LowerTimerSlack();
  for (size_t i = 0; i < burst_; ++i) Enroll(objects_[i], NowNs());
  while (session_->ingest_stats().merges_completed == 0) {
    if (!SleepUntil(NowNs() + 5'000'000)) return;
  }
  int64_t sched_ns = NowNs();
  for (size_t i = burst_; i < objects_.size(); ++i) {
    sched_ns += static_cast<int64_t>(rng_.Exponential(rate_) * 1e9);
    if (!SleepUntil(sched_ns)) return;
    Enroll(objects_[i], sched_ns);
  }
}

}  // namespace gauss::e2e
