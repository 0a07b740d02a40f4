// End-to-end benchmark: the gated numbers of one workload run.
//
//   gauss_e2e --workload tree --seed 1 --seconds 10
//
// Drives the GaussDb/Session front door with a closed loop of two clients
// per server worker and prints one JSON result line (see PrintResult). The
// run is kRounds rounds, each of them:
//   1. a timed set-up (setup_s is the median over the rounds); the first
//      round then takes reference answers for every probe;
//   2. warm-up (discarded);
//   3. a nominal phase of --seconds / kRounds, cut into windows of 1/8 s.
// p50_ms is the median over the windows of all rounds of each window's
// median. Every answer is checked (workload.h) and any failure exits
// non-zero. The open-loop capacity search (max_qps_slo) runs in the traced
// run, gauss_e2e_trace.
// bench/e2e/run.py builds and runs this; see bench/e2e/README.md.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace gauss::e2e {
namespace {

// A shared host now and then slows the guest for several seconds. Nominal
// phases placed between the set-ups spread the measured load over two to
// three times the wall time of one phase, so such a spell slows a minority
// of the windows, which their median ignores.
constexpr size_t kRounds = 3;

int Main(int argc, char** argv) {
  Harness harness(argc, argv);
  const double round_s = harness.args().seconds / double(kRounds);
  const size_t windows = WindowsOf(round_s);

  std::vector<PhaseResult> rounds;
  IoStats io;
  double peak_rss_mb = 0.0;
  for (size_t r = 0; r < kRounds; ++r) {
    harness.SetUp();
    harness.Start();
    Session& session = harness.topology().session();
    harness.WarmUp();
    if (r == 0) {
      // The server is set up and warm (caches filled, ingest's first merge
      // done), and the load generator holds only the warm-up's samples.
      // Later set-ups, the nominal phases' samples and the checks' oracle
      // scans are the harness's memory.
      peak_rss_mb = PeakRssMb();
    }
    const IoStats io_before = session.io_stats();
    rounds.push_back(harness.Nominal(round_s));
    io += session.io_stats() - io_before;
    harness.PrintPhase("nominal", rounds.back());
  }
  harness.Finish();

  // Median over every round's windows of the window's q-th percentile.
  const auto median_of_windows = [&](double q) {
    std::vector<double> per_window;
    for (const PhaseResult& phase : rounds) {
      for (std::vector<double>& values : phase.WindowsMs(windows)) {
        per_window.push_back(Percentile(std::move(values), q));
      }
    }
    return Median(std::move(per_window));
  };
  size_t samples = 0;
  double qps = 0.0;
  for (const PhaseResult& phase : rounds) {
    samples += phase.samples.size();
    qps += phase.achieved_qps / double(kRounds);
  }
  std::vector<double> setups;
  for (const SetupTimes& t : harness.setup_times()) setups.push_back(t.total_s());

  std::map<std::string, double> metrics;
  metrics["p50_ms"] = median_of_windows(0.50);
  metrics["pages_per_query"] = double(io.logical_reads) / double(samples);
  metrics["setup_s"] = Median(setups);
  metrics["peak_rss_mb"] = peak_rss_mb;
  metrics["bytes_per_object"] = double(harness.topology().device_bytes()) /
                                double(harness.live_objects());

  // The tail is reported but not gated: on a shared virtual machine it
  // follows the host's stalls (see README.md, "Repeatability").
  std::map<std::string, std::string> info;
  info["p90_ms"] = std::to_string(median_of_windows(0.90));
  info["p99_ms"] = std::to_string(median_of_windows(0.99));
  info["nominal_samples"] = std::to_string(samples);
  info["nominal_qps"] = std::to_string(qps);
  info["windows"] = std::to_string(windows * kRounds);
  std::string setup_list;
  for (double s : setups) {
    setup_list += (setup_list.empty() ? "" : ",") + std::to_string(s);
  }
  info["setups_s"] = setup_list;
  return harness.Report(metrics, info);
}

}  // namespace
}  // namespace gauss::e2e

int main(int argc, char** argv) { return gauss::e2e::Main(argc, argv); }
