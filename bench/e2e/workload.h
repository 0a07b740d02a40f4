#ifndef GAUSS_BENCH_E2E_WORKLOAD_H_
#define GAUSS_BENCH_E2E_WORKLOAD_H_

// The four serving topologies of the end-to-end benchmark, their fixed
// inputs, and the answer checks every run applies. Shared by gauss_e2e (the
// gated numbers) and gauss_e2e_trace (the per-layer replay). Everything here
// goes through the public GaussDb/Session/Query facade; the oracle is
// SeqScan.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/gauss_db.h"
#include "data/paper_datasets.h"
#include "service/query.h"

namespace gauss::e2e {

// Command line shared by both executables:
//   --workload NAME --seed N --seconds S [--gallery N] [--out DIR]
struct Args {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured (nominal) load; gauss_e2e splits it over its
  // rounds. Warm-ups and the traced run's capacity search come on top.
  double seconds = 10.0;
  // Gallery size override (0 = the workload's own); --smoke passes 5000.
  size_t gallery = 0;
  // Where traces and temporary database files go (inside the checkout).
  std::string out_dir = "build-e2e/out";
};

// Parses argv; prints usage and exits 2 on anything malformed.
Args ParseArgs(int argc, char** argv);

struct WorkloadSpec {
  const char* name;
  size_t shards;        // 0 = one tree
  bool on_file;         // CreateOnFile instead of CreateInMemory
  bool ingest;          // live ingest with Poisson enrollments
  size_t gallery;       // objects at Build()
  size_t cache_pages;   // ServeOptions::cache_pages
  double enroll_per_s;  // Poisson enrollment rate (ingest only)
  size_t cpus;          // CPUs the run is confined to (0 = all it may use)
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// p99 limit of every workload (ms): the latency limit of max_qps_slo.
inline constexpr double kLatencyLimitMs = 5.0;

// Distinct probes per run; the sender cycles through seeded permutations of
// the pool, so every probe is sent equally often (+-1) in any phase.
inline constexpr size_t kProbePool = 2048;
// Probes whose reference answers are checked against SeqScan.
inline constexpr size_t kOracleSample = 64;

// The fixed inputs: the paper's data set 2 surrogate at the workload's size
// and the Figure 7 probe mix over it. Both come from the generators'
// canonical seeds, so every seed measures the same gallery and pool; the
// run seed drives arrivals, probe order and enrollment times.
struct Inputs {
  PaperDataset data;
  std::vector<Query> probes;  // kProbePool queries, Figure 7 mix
};
Inputs MakeInputs(const WorkloadSpec& spec, size_t gallery_override);

// Figure 7 mix by pool index: half 1-MLIQ at accuracy 1e-2, a quarter TIQ
// P=0.8 and a quarter TIQ P=0.2, both TIQ with the paper's lazy Figure 5
// membership rule.
Query MakeProbe(const Pfv& pfv, size_t index);

// Fresh objects to enroll during an ingest run: the `count` objects of the
// same data set 2 distribution that follow a `gallery`-object base (ids
// above it). Fixed like the gallery, so every seed merges the same objects
// and only their arrival times vary.
std::vector<Pfv> MakeEnrollments(size_t gallery, size_t count);

// Wall-clock split of one set-up.
struct SetupTimes {
  double build_s = 0.0;  // Create + Build
  double serve_s = 0.0;  // Serve
  double total_s() const { return build_s + serve_s; }
};

// One live serving topology. The session is declared after the database,
// so it is torn down first.
class Topology {
 public:
  // Builds and serves `gallery` as `spec` says; `db_path` is the backing
  // file of file-backed workloads.
  Topology(const WorkloadSpec& spec, const PfvDataset& gallery,
           const std::string& db_path, SetupTimes* times);

  // Front door the load goes through.
  Session& session() { return *session_; }
  GaussDb& db() { return *db_; }

  // Device bytes across the database's device(s).
  uint64_t device_bytes();

 private:
  std::optional<GaussDb> db_;
  std::optional<Session> session_;
};

// Server-side worker budget: nproc - 1 (a sharded database still gets one
// worker per shard, the façade's minimum).
size_t ServerWorkers();

// Confines the calling thread, and every thread it starts from then on, to
// the first `cpus` CPUs it may use (0 = leaves it as it is). Returns the
// number of CPUs it then runs on.
size_t ConfineToCpus(size_t cpus);

// Exact byte equality of two answers (ids and the raw bits of every
// probability, error and log density).
bool SameBytes(const QueryResponse& a, const QueryResponse& b);

// Reference answers, one query outstanding at a time, before any load.
std::vector<QueryResponse> ReferenceAnswers(Session& session,
                                            const std::vector<Query>& probes);

// Checks answers against SeqScan over `gallery`: MLIQ top-1 id equal and
// every probability within its reported error of the exact value; a TIQ set
// contains the exact set and every extra id's interval reaches the
// threshold. Returns the number of failing probes and prints each failure.
// Spreads the scans over `threads` threads.
size_t OracleFailures(const PfvDataset& gallery,
                      const std::vector<Query>& probes,
                      const std::vector<QueryResponse>& answers,
                      size_t threads);

// Seconds since an arbitrary steady epoch.
double NowSeconds();

// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

// Median and nearest-rank percentile of a sample (sorts a copy).
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Appends `"name": value` pairs as one JSON object line to stdout:
//   {"workload": ..., "correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {...}, "info": {...}}
void PrintResult(const std::string& workload, uint64_t attempted,
                 uint64_t failed, const std::map<std::string, double>& metrics,
                 const std::map<std::string, std::string>& info);

}  // namespace gauss::e2e

#endif  // GAUSS_BENCH_E2E_WORKLOAD_H_
