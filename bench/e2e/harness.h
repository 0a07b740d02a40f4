#ifndef GAUSS_BENCH_E2E_HARNESS_H_
#define GAUSS_BENCH_E2E_HARNESS_H_

// The run life cycle both executables share: parse the command line, build
// the fixed inputs, set the topology up (timed), take reference answers with
// one query outstanding, drive load through the front door, and finish with
// the oracle checks. Every failed operation is counted.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "workload.h"

namespace gauss::e2e {

// Length of the discarded warm-up before each nominal phase. The first
// second of concurrent load after an idle spell (a fresh process, or a
// single-threaded set-up) runs at about half speed on virtual machines: the
// host's halt polling adapts to the wake-up rate.
inline constexpr double kWarmupSeconds = 1.0;
// Closed-loop clients per server worker. With two queries per worker, a
// worker that finishes one always finds the next one queued, so no server
// thread goes idle between queries. On a virtual machine, waking an idle
// CPU costs from microseconds to milliseconds depending on the host's load;
// an open loop at a fixed rate pays that on most queries, and whenever the
// host slowed the guest below the offered rate its queue grew for the rest
// of the run.
inline constexpr size_t kClientsPerWorker = 2;
// A nominal-phase timing is the median, over the phase's windows of
// 1/kWindowsPerSecond s each, of the window's percentile. A shared host
// stalls the guest for milliseconds a few times a second; over windows this
// short most hold no stall, so the median window's percentile is the
// program's, not the host's, while the phase's windows all count alike.
inline constexpr double kWindowsPerSecond = 8.0;
// Windows of a phase `seconds` long (at least one).
size_t WindowsOf(double seconds);

class Harness {
 public:
  Harness(int argc, char** argv);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // Sets the topology up anew (timed; setup_times() gains an entry). An
  // earlier topology is ended first: under ingest with Finish()'s checks.
  void SetUp();

  // On the first call, reference answers for every pool probe and the load
  // generator, which sends through whichever topology is set up. Under
  // ingest, then an enroller on the current topology.
  void Start();

  PhaseResult Open(double rate, double seconds);
  PhaseResult Closed(size_t concurrency, double seconds);

  // Clients of the warm-up and the nominal phase: kClientsPerWorker per
  // server worker.
  size_t clients();

  // The discarded warm-up, kWarmupSeconds long. Under ingest it first waits
  // for the enrollment burst's merge.
  void WarmUp();
  // A nominal phase `seconds` long.
  PhaseResult Nominal(double seconds);

  // Ingest: stops enrolling, merges what is buffered, checks the object
  // count and answers the oracle sample on the final set. Others: checks
  // the oracle sample's reference answers. Adds every failure.
  void Finish();

  // Counts one checked operation outside the load phases.
  void Check(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  // Prints the result line, removes temporary files; returns the exit code
  // (non-zero when anything failed).
  int Report(const std::map<std::string, double>& metrics,
             std::map<std::string, std::string> info);

  // Prints one progress line, stamped with the seconds since start-up.
  void Progress(const std::string& line) const;
  // Progress lines summing a phase up: whole-phase figures, then each
  // window's p50/p99 (windows as WindowsOf the phase's length).
  void PrintPhase(const char* name, const PhaseResult& phase) const;

  const Args& args() const { return args_; }
  const WorkloadSpec& spec() const { return *spec_; }
  const Inputs& inputs() const { return inputs_; }
  Topology& topology() { return *topology_; }
  const std::vector<SetupTimes>& setup_times() const { return setups_; }
  const std::vector<QueryResponse>& references() const { return refs_; }
  Enroller* enroller() { return enroller_.get(); }
  // Objects the database should hold: gallery plus accepted enrollments.
  size_t live_objects() const;

 private:
  // Finish() under ingest, for the current topology.
  void FinishIngest();

  const double start_s_ = NowSeconds();
  Args args_;
  const WorkloadSpec* spec_ = nullptr;
  size_t cpus_ = 0;  // CPUs the run is confined to
  Inputs inputs_;
  std::string db_path_;
  std::vector<SetupTimes> setups_;
  std::vector<QueryResponse> refs_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  // Declared after the topology it drives, so both die before it.
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<LoadGenerator> load_;
  std::unique_ptr<Enroller> enroller_;
};

}  // namespace gauss::e2e

#endif  // GAUSS_BENCH_E2E_HARNESS_H_
