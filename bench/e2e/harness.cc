#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include "math/kernels.h"

namespace gauss::e2e {

namespace {

// Threads the oracle scans use once the load has stopped.
constexpr size_t kOracleThreads = 3;
// Longest wait for the enrollment burst's merge before the nominal phase.
constexpr double kMergeWaitLimitS = 30.0;

}  // namespace

size_t WindowsOf(double seconds) {
  return std::max<size_t>(1, std::llround(seconds * kWindowsPerSecond));
}

Harness::Harness(int argc, char** argv) : args_(ParseArgs(argc, argv)) {
  spec_ = FindWorkload(args_.workload);
  // Before any thread starts, so every one inherits it.
  cpus_ = ConfineToCpus(spec_->cpus);
  inputs_ = MakeInputs(*spec_, args_.gallery);
  std::filesystem::create_directories(args_.out_dir);
  db_path_ = args_.out_dir + "/" + spec_->name + "-" +
             std::to_string(static_cast<long>(::getpid())) + ".gauss";
  Progress("inputs    gallery=" + std::to_string(inputs_.data.dataset.size()) +
           " probes=" + std::to_string(inputs_.probes.size()));
}

Harness::~Harness() {
  enroller_.reset();
  load_.reset();
  topology_.reset();
  if (spec_->on_file) std::remove(db_path_.c_str());
}

void Harness::SetUp() {
  if (enroller_ != nullptr) FinishIngest();
  enroller_.reset();
  topology_.reset();
  SetupTimes times;
  topology_ = std::make_unique<Topology>(*spec_, inputs_.data.dataset,
                                         db_path_, &times);
  setups_.push_back(times);
  char line[96];
  std::snprintf(line, sizeof(line), "setup     build=%.3f s serve=%.3f s",
                times.build_s, times.serve_s);
  Progress(line);
}

void Harness::Start() {
  if (load_ == nullptr) {
    refs_ = ReferenceAnswers(topology_->session(), inputs_.probes);
    for (const QueryResponse& ref : refs_) {
      ++attempted_;
      if (ref.status != QueryResponse::Status::kOk) ++failed_;
    }
    Progress("reference answers=" + std::to_string(refs_.size()));
    // Under ingest the gallery grows while queries run, so an answer can
    // only be checked for its status there; the oracle checks the final set.
    // Elsewhere every set-up of the same gallery must answer byte for byte
    // like the first.
    LoadGenerator::CheckFn check =
        spec_->ingest ? LoadGenerator::CheckFn(
                            [](uint32_t, const QueryResponse&) { return true; })
                      : LoadGenerator::CheckFn(
                            [this](uint32_t probe, const QueryResponse& r) {
                              return SameBytes(r, refs_[probe]);
                            });
    load_ = std::make_unique<LoadGenerator>(
        [this](Query q) { return topology_->session().Submit(std::move(q)); },
        std::move(check), inputs_.probes, args_.seed);
  }
  if (spec_->ingest) {
    // A burst of one merge threshold starts a background merge at once;
    // the Poisson enrollments after it stop short of a second threshold. So
    // every topology merges exactly twice (the final MergeIngest() of
    // Finish() is the second) and no nominal phase overlaps a merge.
    const size_t burst = IngestOptions{}.merge_threshold;
    const size_t count = burst + burst * 4 / 5;
    enroller_ = std::make_unique<Enroller>(
        &topology_->session(),
        MakeEnrollments(inputs_.data.dataset.size(), count), burst,
        spec_->enroll_per_s, args_.seed);
    enroller_->Start();
  }
}

PhaseResult Harness::Open(double rate, double seconds) {
  PhaseResult phase = load_->OpenLoop(rate, seconds);
  attempted_ += phase.sent;
  failed_ += phase.failed;
  return phase;
}

PhaseResult Harness::Closed(size_t concurrency, double seconds) {
  PhaseResult phase = load_->ClosedLoop(concurrency, seconds);
  attempted_ += phase.sent;
  failed_ += phase.failed;
  return phase;
}

size_t Harness::clients() {
  return kClientsPerWorker * topology_->session().num_workers();
}

void Harness::WarmUp() {
  if (spec_->ingest) {
    // The enrollment burst's merge runs before any load: under queries, the
    // retired epoch's pages were freed before or after the new epoch's
    // cache filled depending on timing, and the peak resident set of a run
    // took one of two values 3 MiB apart.
    const double deadline = NowSeconds() + kMergeWaitLimitS;
    while (topology_->session().ingest_stats().merges_completed == 0 &&
           NowSeconds() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  Closed(clients(), kWarmupSeconds);
  Progress("warm-up   done");
}

PhaseResult Harness::Nominal(double seconds) {
  return Closed(clients(), seconds);
}

size_t Harness::live_objects() const {
  size_t accepted = 0;
  if (enroller_ != nullptr) {
    for (const Enroller::Record& r : enroller_->records()) {
      accepted += r.outcome == InsertOutcome::kRoutedToDelta;
    }
  }
  return inputs_.data.dataset.size() + accepted;
}

void Harness::Finish() {
  if (enroller_ != nullptr) {
    FinishIngest();
    return;
  }
  const std::vector<Query> sample(inputs_.probes.begin(),
                                  inputs_.probes.begin() + kOracleSample);
  const std::vector<QueryResponse> answers(refs_.begin(),
                                           refs_.begin() + kOracleSample);
  const size_t bad = OracleFailures(inputs_.data.dataset, sample, answers,
                                    kOracleThreads);
  attempted_ += sample.size();
  failed_ += bad;
}

void Harness::FinishIngest() {
  const std::vector<Query> sample(inputs_.probes.begin(),
                                  inputs_.probes.begin() + kOracleSample);
  enroller_->Stop();
  PfvDataset final_set = inputs_.data.dataset;
  const std::vector<Enroller::Record>& records = enroller_->records();
  for (size_t i = 0; i < records.size(); ++i) {
    ++attempted_;
    if (records[i].outcome == InsertOutcome::kRoutedToDelta) {
      final_set.Add(enroller_->objects()[i]);
    } else {
      ++failed_;
      std::cout << "INSERT REJECTED: "
                << InsertOutcomeName(records[i].outcome) << "\n";
    }
  }
  topology_->db().MergeIngest();
  ++attempted_;
  if (topology_->db().size() != final_set.size()) {
    ++failed_;
    std::cout << "OBJECT COUNT MISMATCH: database holds "
              << topology_->db().size() << ", expected " << final_set.size()
              << "\n";
  }
  const std::vector<QueryResponse> answers =
      ReferenceAnswers(topology_->session(), sample);
  attempted_ += sample.size();
  failed_ += OracleFailures(final_set, sample, answers, kOracleThreads);
}

void Harness::Progress(const std::string& line) const {
  std::printf("[+%6.2fs] %s\n", NowSeconds() - start_s_, line.c_str());
}

void Harness::PrintPhase(const char* name, const PhaseResult& phase) const {
  char line[192];
  std::snprintf(line, sizeof(line),
                "%-9s sent=%-7llu failed=%llu achieved=%.0f q/s p50=%.3f ms "
                "p99=%.3f ms",
                name, static_cast<unsigned long long>(phase.sent),
                static_cast<unsigned long long>(phase.failed),
                phase.achieved_qps, phase.PercentileMs(0.5),
                phase.PercentileMs(0.99));
  Progress(line);
  std::string cells = "windows   p50/p99 ms:";
  const double seconds = 1e-9 * double(phase.end_ns - phase.start_ns);
  for (const std::vector<double>& values : phase.WindowsMs(WindowsOf(seconds))) {
    std::snprintf(line, sizeof(line), " %.3f/%.3f", Percentile(values, 0.5),
                  Percentile(values, 0.99));
    cells += line;
  }
  Progress(cells);
}

int Harness::Report(const std::map<std::string, double>& metrics,
                    std::map<std::string, std::string> info) {
  Progress("checked   attempted=" + std::to_string(attempted_) +
           " failed=" + std::to_string(failed_));
  info["backend"] = kernels::ActiveBackend().name;
  info["compiler"] = __VERSION__;
  info["server_workers"] =
      std::to_string(topology_->session().num_workers());
  info["clients"] = std::to_string(clients());
  info["cpus"] = std::to_string(cpus_);
  PrintResult(spec_->name, attempted_, failed_, metrics, info);
  return failed_ == 0 ? 0 : 1;
}

}  // namespace gauss::e2e
