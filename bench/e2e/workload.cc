#include "workload.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "pfv/pfv_file.h"
#include "scan/seq_scan.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss::e2e {

namespace {

// The gallery is the paper's data set 2 size except for ingest, where
// merging a 100k base took ~10 s and would turn a run into a merge
// benchmark. Ingest's Poisson enrollments (after the burst that starts its
// merge, see Harness::Start) run at 100/s, so they span a round's warm-up
// and nominal phase without reaching a second merge threshold.
//
// `shards` serves through the ShardCoordinator, which admits two queries at
// a time: on four CPUs half of its CPU time was idle. A thread woken on an
// idle virtual CPU waits until the host runs that CPU again, which on a
// loaded host takes milliseconds, and its p50 doubled in such spells while
// `tree` moved by 15%. On two CPUs it keeps the CPUs busy and moved by
// 5-15% in the same spells. A live ingest session serves through a
// coordinator too, but its queries are short enough that four CPUs stay
// busy: confined to two, its ten-run p50 spread was larger in three of
// four comparisons.
const WorkloadSpec kWorkloads[] = {
    // name        shards file   ingest gallery  cache  enroll cpus
    {"tree",       0,     false, false, 100000, 8192,  0,     0},
    {"tree_file",  0,     true,  false, 100000, 256,   0,     0},
    {"shards",     4,     false, false, 100000, 8192,  0,     2},
    {"ingest",     0,     true,  true,  20000,  4096,  100,   0},
};

[[noreturn]] void Usage(const char* message) {
  std::cerr << "error: " << message << "\n"
            << "usage: gauss_e2e --workload NAME --seed N --seconds S "
               "[--gallery N] [--out DIR]\n";
  std::exit(2);
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// SeqScan answer of one probe, in the probe's own query kind.
std::vector<IdentificationResult> Exact(const SeqScan& scan, const Query& q) {
  if (q.kind() == QueryKind::kMliq) return scan.QueryMliq(q.pfv(), q.k()).items;
  return scan.QueryTiq(q.pfv(), q.threshold()).items;
}

bool WithinError(const IdentificationResult& got, double exact) {
  // The reported error is a certified half-width; the slack only absorbs
  // the last-bit rounding of two different summation orders.
  return std::fabs(got.probability - exact) <=
         got.probability_error + 1e-9 * std::max(1.0, exact);
}

// Empty string when `got` passes the oracle; otherwise what is wrong.
std::string OracleVerdict(const Query& q, const QueryResponse& got,
                          const std::vector<IdentificationResult>& exact) {
  if (got.status != QueryResponse::Status::kOk) return "status not kOk";
  if (q.kind() == QueryKind::kMliq) {
    if (got.items.empty() || exact.empty()) return "empty MLIQ answer";
    if (got.items[0].id != exact[0].id) {
      return "MLIQ top-1 id " + std::to_string(got.items[0].id) +
             " != exact " + std::to_string(exact[0].id);
    }
    if (!WithinError(got.items[0], exact[0].probability)) {
      return "MLIQ probability outside its certified error";
    }
    return "";
  }
  for (const IdentificationResult& e : exact) {
    const auto it = std::find_if(
        got.items.begin(), got.items.end(),
        [&](const IdentificationResult& g) { return g.id == e.id; });
    if (it == got.items.end()) {
      return "TIQ misses exact member " + std::to_string(e.id);
    }
    if (!WithinError(*it, e.probability)) {
      return "TIQ probability outside its certified error";
    }
  }
  for (const IdentificationResult& g : got.items) {
    const bool member = std::any_of(
        exact.begin(), exact.end(),
        [&](const IdentificationResult& e) { return e.id == g.id; });
    if (!member && g.probability + g.probability_error < q.threshold()) {
      return "TIQ extra " + std::to_string(g.id) +
             " whose interval does not reach the threshold";
    }
  }
  return "";
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--gallery") {
      args.gallery = std::strtoull(value, &end, 10);
      if (*end != '\0' || args.gallery == 0) {
        Usage("--gallery takes a positive integer");
      }
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (FindWorkload(args.workload) == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  return args;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Query MakeProbe(const Pfv& pfv, size_t index) {
  switch (index % 4) {
    case 0:
    case 1:
      return Query::Mliq(pfv, 1).Accuracy(1e-2);
    case 2:
      return Query::Tiq(pfv, 0.8).ExactMembership(false);
    default:
      return Query::Tiq(pfv, 0.2).ExactMembership(false);
  }
}

Inputs MakeInputs(const WorkloadSpec& spec, size_t gallery_override) {
  Inputs inputs;
  const size_t gallery = gallery_override != 0 ? gallery_override
                                                : spec.gallery;
  inputs.data = GeneratePaperDataset2(gallery);
  const std::vector<IdentificationQuery> workload =
      GeneratePaperWorkload(inputs.data, kProbePool);
  inputs.probes.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    inputs.probes.push_back(MakeProbe(workload[i].query, i));
  }
  return inputs;
}

std::vector<Pfv> MakeEnrollments(size_t gallery, size_t count) {
  // The generator draws objects sequentially after fixed cluster centres,
  // so a larger data set extends the gallery with fresh objects of the same
  // distribution.
  const PaperDataset extended = GeneratePaperDataset2(gallery + count);
  const std::vector<Pfv>& objects = extended.dataset.objects();
  return std::vector<Pfv>(objects.begin() + gallery, objects.end());
}

size_t ServerWorkers() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max<size_t>(1, cores - 1);
}

size_t ConfineToCpus(size_t cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  if (cpus == 0 || size_t(CPU_COUNT(&allowed)) <= cpus) {
    return size_t(CPU_COUNT(&allowed));
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  size_t n = 0;
  for (int c = 0; c < CPU_SETSIZE && n < cpus; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &chosen);
      ++n;
    }
  }
  if (::sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return size_t(CPU_COUNT(&allowed));
  }
  return n;
}

Topology::Topology(const WorkloadSpec& spec, const PfvDataset& gallery,
                   const std::string& db_path, SetupTimes* times) {
  GaussDbOptions options;
  options.shards.num_shards = spec.shards;
  options.ingest.enabled = spec.ingest;
  const double t0 = NowSeconds();
  db_.emplace(spec.on_file
                  ? GaussDb::CreateOnFile(db_path, gallery.dim(), options)
                  : GaussDb::CreateInMemory(gallery.dim(), options));
  db_->Build(gallery);
  const double t1 = NowSeconds();

  ServeOptions serve;
  serve.num_workers = ServerWorkers();
  serve.cache_pages = spec.cache_pages;
  session_.emplace(db_->Serve(serve));
  times->build_s = t1 - t0;
  times->serve_s = NowSeconds() - t1;
}

uint64_t Topology::device_bytes() {
  // Every layout here keeps all shards on device 0.
  PageDevice& device = db_->device(0);
  return static_cast<uint64_t>(device.PageCount()) * device.page_size();
}

bool SameBytes(const QueryResponse& a, const QueryResponse& b) {
  if (a.status != b.status || a.items.size() != b.items.size()) return false;
  for (size_t i = 0; i < a.items.size(); ++i) {
    const IdentificationResult& x = a.items[i];
    const IdentificationResult& y = b.items[i];
    if (x.id != y.id || !SameDouble(x.probability, y.probability) ||
        !SameDouble(x.probability_error, y.probability_error) ||
        !SameDouble(x.log_density, y.log_density)) {
      return false;
    }
  }
  return true;
}

std::vector<QueryResponse> ReferenceAnswers(Session& session,
                                            const std::vector<Query>& probes) {
  std::vector<QueryResponse> refs;
  refs.reserve(probes.size());
  for (const Query& probe : probes) refs.push_back(session.Submit(probe).get());
  return refs;
}

size_t OracleFailures(const PfvDataset& gallery,
                      const std::vector<Query>& probes,
                      const std::vector<QueryResponse>& answers,
                      size_t threads) {
  InMemoryPageDevice device;
  // Sized to hold the whole file: the scan is the oracle, not a subject.
  const size_t record = 8 + 16 * gallery.dim();
  const size_t pages = gallery.size() * record / (device.page_size() - 8) + 64;
  ShardedBufferPool pool(&device, std::max<size_t>(pages, 256));
  PfvFile file(&pool, gallery.dim());
  file.AppendAll(gallery);
  const SeqScan scan(&file);

  std::vector<std::string> verdicts(probes.size());
  std::vector<std::thread> workers;
  threads = std::max<size_t>(1, threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < probes.size(); i += threads) {
        verdicts[i] = OracleVerdict(probes[i], answers[i],
                                    Exact(scan, probes[i]));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  size_t failures = 0;
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].empty()) continue;
    ++failures;
    std::cout << "ORACLE MISMATCH probe " << i << ": " << verdicts[i] << "\n";
  }
  return failures;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  // On Linux ru_maxrss is the peak resident set (VmHWM) in KiB.
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void PrintResult(const std::string& workload, uint64_t attempted,
                 uint64_t failed, const std::map<std::string, double>& metrics,
                 const std::map<std::string, std::string>& info) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": \"" << workload << "\", \"correct\": "
      << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    out << sep << "\"" << name << "\": "
        << (std::isfinite(value) ? value : 0.0);
    sep = ", ";
  }
  out << "}, \"info\": {";
  sep = "";
  for (const auto& [name, value] : info) {
    out << sep << "\"" << name << "\": \"" << value << "\"";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace gauss::e2e
