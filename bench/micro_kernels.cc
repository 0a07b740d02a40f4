// Ablation A7 (bench/README.md): micro-kernels of the hot query path, measured
// with google-benchmark — Gaussian density evaluation, the Lemma 2/3 hull
// bounds, the hull integral, node serialization and page loads, and the
// batch scoring kernels (math/kernels.h) across every SIMD backend this CPU
// can run.
//
// Two modes:
//   * default            — google-benchmark over all registered benches
//                          (batch-kernel benches registered per runnable
//                          backend at startup).
//   * GAUSS_BENCH_JSON   — kernel regression cells: for every runnable
//     set (smoke mode)     backend and kernel, (1) cross-check the output
//                          bit-for-bit against the scalar reference — any
//                          mismatch exits non-zero, which is what makes the
//                          smoke a correctness gate, not just a timer — and
//                          (2) append a {bench, cell, ns_per_entry} JSON
//                          line for bench/check_regression.py. The
//                          delta_scan cell does the same for the live
//                          delta's bound-pruned scan (ScanDelta) against
//                          the scan that scores every object, and the
//                          exp_shift_far cell for exp_shift over that
//                          scan's rebasing inputs against PortableExp.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "api/gauss_db.h"
#include "common/random.h"
#include "eval/report.h"
#include "data/paper_datasets.h"
#include "data/workload.h"
#include "gausstree/delta_tree.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/node.h"
#include "math/gaussian.h"
#include "math/hull.h"
#include "math/hull_integral.h"
#include "math/kernels.h"
#include "net/shard_backend.h"
#include "service/query.h"
#include "storage/sharded_buffer_pool.h"
#include "tests/delta_scan_reference.h"
#include "tests/legacy_image.h"

namespace gauss {
namespace {

void BM_GaussianPdf(benchmark::State& state) {
  Rng rng(1);
  const double x = rng.Uniform(-3, 3);
  const double mu = rng.Uniform(-3, 3);
  const double sigma = rng.Uniform(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianPdf(x, mu, sigma));
  }
}
BENCHMARK(BM_GaussianPdf);

void BM_GaussianLogPdf(benchmark::State& state) {
  Rng rng(2);
  const double x = rng.Uniform(-3, 3);
  const double mu = rng.Uniform(-3, 3);
  const double sigma = rng.Uniform(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianLogPdf(x, mu, sigma));
  }
}
BENCHMARK(BM_GaussianLogPdf);

void BM_JointLogDensityVector(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> mu_v(d), sg_v(d), mu_q(d), sg_q(d);
  for (size_t i = 0; i < d; ++i) {
    mu_v[i] = rng.Uniform(0, 1);
    sg_v[i] = rng.Uniform(0.01, 0.1);
    mu_q[i] = rng.Uniform(0, 1);
    sg_q[i] = rng.Uniform(0.01, 0.1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(JointLogDensity(mu_v.data(), sg_v.data(),
                                             mu_q.data(), sg_q.data(), d));
  }
}
BENCHMARK(BM_JointLogDensityVector)->Arg(10)->Arg(27);

void BM_LogUpperHull(benchmark::State& state) {
  DimBounds b;
  b.mu_lo = 0.2;
  b.mu_hi = 0.6;
  b.sigma_lo = 0.01;
  b.sigma_hi = 0.08;
  double x = -1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogUpperHull(x, b));
    x += 1e-6;  // sweep across the piecewise cases
    if (x > 2.0) x = -1.0;
  }
}
BENCHMARK(BM_LogUpperHull);

void BM_LogLowerHull(benchmark::State& state) {
  DimBounds b;
  b.mu_lo = 0.2;
  b.mu_hi = 0.6;
  b.sigma_lo = 0.01;
  b.sigma_hi = 0.08;
  double x = -1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogLowerHull(x, b));
    x += 1e-6;
    if (x > 2.0) x = -1.0;
  }
}
BENCHMARK(BM_LogLowerHull);

void BM_HullIntegral(benchmark::State& state) {
  const IntegralMethod method = state.range(0) == 0
                                    ? IntegralMethod::kErf
                                    : IntegralMethod::kSigmoidPoly5;
  DimBounds b;
  b.mu_lo = 0.2;
  b.mu_hi = 0.6;
  b.sigma_lo = 0.01;
  b.sigma_hi = 0.08;
  for (auto _ : state) {
    benchmark::DoNotOptimize(UpperHullIntegral(b, method));
  }
}
BENCHMARK(BM_HullIntegral)->Arg(0)->Arg(1);

GtNode MakeLeaf(size_t dim, size_t records) {
  Rng rng(4);
  GtNode node;
  node.kind = GtNodeKind::kLeaf;
  for (size_t r = 0; r < records; ++r) {
    std::vector<double> mu(dim), sigma(dim);
    for (double& m : mu) m = rng.Uniform(0, 1);
    for (double& s : sigma) s = rng.Uniform(0.01, 0.1);
    node.pfvs.push_back(Pfv(r, std::move(mu), std::move(sigma)));
  }
  return node;
}

void BM_LeafSerialize(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const GtCapacities caps = GtCapacities::ForPageSize(8192, dim);
  const GtNode node = MakeLeaf(dim, caps.leaf);
  std::vector<uint8_t> page(8192);
  for (auto _ : state) {
    node.Serialize(page.data(), dim);
    benchmark::DoNotOptimize(page.data());
  }
}
BENCHMARK(BM_LeafSerialize)->Arg(10)->Arg(27);

// Random node loads through GtNodeStore::LoadSoa on the e2e `tree` gallery
// (paper data set 2 surrogate: 100k objects, dim 10, 8 KiB pages) behind a
// cache holding the whole tree. Every load is a warm, already-verified hit,
// so the cell isolates what a visit costs beyond the fetch: a pointer view
// into the pinned frame.
struct LoadFixture {
  InMemoryPageDevice device{kDefaultPageSize};
  std::unique_ptr<ShardedBufferPool> pool;
  std::unique_ptr<GaussTree> tree;
  std::vector<PageId> nodes;  // every node but the pinned root
};

LoadFixture& GalleryTree() {
  static LoadFixture f;
  if (f.tree != nullptr) return f;
  PageId meta = kInvalidPageId;
  {
    ShardedBufferPool build(&f.device, 64, /*num_shards=*/1);
    GaussTree tree(&build, 10);
    tree.BulkLoad(GeneratePaperDataset2(100000).dataset);
    tree.Finalize();
    meta = tree.meta_page();
  }
  f.nodes = test::TreeNodePages(f.device, meta);
  f.nodes.erase(f.nodes.begin());
  f.pool = std::make_unique<ShardedBufferPool>(&f.device,
                                               f.device.PageCount());
  f.tree = GaussTree::Open(f.pool.get(), meta);
  return f;
}

void BM_LoadSoaHit(benchmark::State& state) {
  const LoadFixture& f = GalleryTree();
  const GtNodeStore& store = f.tree->store();
  Rng rng(8);
  std::vector<PageId> order(1 << 16);
  for (PageId& id : order) id = f.nodes[rng.UniformInt(f.nodes.size())];
  GtNodeSoa view;
  for (const PageId id : f.nodes) store.LoadSoa(id, &view);  // warm
  size_t i = 0;
  for (auto _ : state) {
    store.LoadSoa(order[i++ & (order.size() - 1)], &view);
    benchmark::DoNotOptimize(view.planes);
    view.page.Release();  // as a traversal's Expand does
  }
}
BENCHMARK(BM_LoadSoaHit);

// ------------------------------ batch kernels -------------------------------

// SoA fixtures shaped like a node view: `n` entries at node scale (a dim-8
// 8KiB leaf holds ~60 pfvs), stride padded to kernels::kMaxLanes (node
// pages use stride n; any stride >= n is valid), and — when `edges` — a sprinkling of the values the
// kernels route through their scalar special-case path (denormal/huge
// sigmas, far-off means, NaN/inf), so the bit cross-check also covers the
// block-abort machinery.
struct JointFixture {
  size_t n = 0, dim = 0, stride = 0;
  std::vector<double> planes;  // dim mu planes then dim sigma planes
  std::vector<double> mu_q, sigma_q;

  kernels::JointBatchArgs Args() const {
    kernels::JointBatchArgs args;
    args.mu = planes.data();
    args.sigma = planes.data() + dim * stride;
    args.stride = stride;
    args.n = n;
    args.dim = dim;
    args.mu_q = mu_q.data();
    args.sigma_q = sigma_q.data();
    return args;
  }
};

struct HullFixture {
  size_t n = 0, dim = 0, stride = 0;
  std::vector<double> planes;  // mu_lo | mu_hi | sigma_lo | sigma_hi groups
  std::vector<double> mu_q, sigma_q;

  kernels::HullBatchArgs Args() const {
    kernels::HullBatchArgs args;
    args.mu_lo = planes.data();
    args.mu_hi = planes.data() + dim * stride;
    args.sigma_lo = planes.data() + 2 * dim * stride;
    args.sigma_hi = planes.data() + 3 * dim * stride;
    args.stride = stride;
    args.n = n;
    args.dim = dim;
    args.mu_q = mu_q.data();
    args.sigma_q = sigma_q.data();
    return args;
  }
};

void SprinkleEdges(Rng& rng, double* mu, double* sigma) {
  switch (static_cast<int>(rng.Uniform(0, 6))) {
    case 0: *sigma = 5e-324; break;                                 // denormal
    case 1: *sigma = 1e300; break;
    case 2: *mu = 1e9; break;                                       // huge |z|
    case 3: *mu = std::numeric_limits<double>::quiet_NaN(); break;
    case 4: *mu = std::numeric_limits<double>::infinity(); break;
    default: break;  // leave the ordinary value
  }
}

JointFixture MakeJointFixture(size_t n, size_t dim, bool edges) {
  Rng rng(edges ? 11 : 5);
  JointFixture f;
  f.n = n;
  f.dim = dim;
  f.stride = kernels::PadEntries(n);
  f.planes.assign(2 * dim * f.stride, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double mu = rng.Uniform(0, 1);
      double sigma = rng.Uniform(0.01, 0.1);
      if (edges && rng.Uniform(0, 1) < 0.2) SprinkleEdges(rng, &mu, &sigma);
      f.planes[i * f.stride + j] = mu;
      f.planes[(dim + i) * f.stride + j] = sigma;
    }
  }
  for (size_t i = 0; i < dim; ++i) {
    f.mu_q.push_back(rng.Uniform(0, 1));
    f.sigma_q.push_back(rng.Uniform(0.01, 0.1));
  }
  return f;
}

HullFixture MakeHullFixture(size_t n, size_t dim, bool edges) {
  Rng rng(edges ? 13 : 7);
  HullFixture f;
  f.n = n;
  f.dim = dim;
  f.stride = kernels::PadEntries(n);
  f.planes.assign(4 * dim * f.stride, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double lo = rng.Uniform(0, 1), hi = rng.Uniform(0, 1);
      double slo = rng.Uniform(0.01, 0.05), shi = rng.Uniform(0.05, 0.1);
      if (edges && rng.Uniform(0, 1) < 0.2) {
        // Stay inside the hull domain invariant (kernels.h HullBatchArgs:
        // mu_lo <= mu_hi, 0 < sigma_lo <= sigma_hi) — extreme, not invalid.
        switch (static_cast<int>(rng.Uniform(0, 4))) {
          case 0: slo = 5e-324; break;
          case 1: shi = 1e300; break;
          case 2: lo = -1e9; break;
          default: hi = 1e9; break;
        }
      }
      if (lo > hi) std::swap(lo, hi);
      if (slo > shi) std::swap(slo, shi);
      f.planes[i * f.stride + j] = lo;
      f.planes[(dim + i) * f.stride + j] = hi;
      f.planes[(2 * dim + i) * f.stride + j] = slo;
      f.planes[(3 * dim + i) * f.stride + j] = shi;
    }
  }
  for (size_t i = 0; i < dim; ++i) {
    f.mu_q.push_back(rng.Uniform(0, 1));
    f.sigma_q.push_back(rng.Uniform(0.01, 0.1));
  }
  return f;
}

std::vector<double> MakeExpFixture(size_t n, bool edges) {
  Rng rng(edges ? 17 : 9);
  std::vector<double> log_in(n);
  for (size_t j = 0; j < n; ++j) {
    log_in[j] = rng.Uniform(-900, 10);
    if (edges && rng.Uniform(0, 1) < 0.2) {
      switch (static_cast<int>(rng.Uniform(0, 3))) {
        case 0: log_in[j] = 800.0; break;  // overflow after the shift
        case 1: log_in[j] = std::numeric_limits<double>::quiet_NaN(); break;
        default: log_in[j] = -std::numeric_limits<double>::infinity(); break;
      }
    }
  }
  return log_in;
}

constexpr size_t kBatchEntries = 64;
// A node-shaped ragged fill: a dim-10 inner page holds at most 24 child
// entries and a typical expansion scores ~20, so the last n % width entries
// run as a partial block. n = 64 is whole blocks on every backend.
constexpr size_t kRaggedEntries = 21;

void BM_JointLogDensityBatch(benchmark::State& state,
                             const kernels::KernelBackend* backend, size_t dim,
                             size_t n) {
  const JointFixture f = MakeJointFixture(n, dim, false);
  const kernels::JointBatchArgs args = f.Args();
  std::vector<double> out(f.n);
  for (auto _ : state) {
    backend->joint_log_density(args, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.n));
}

void BM_HullBoundsBatch(benchmark::State& state,
                        const kernels::KernelBackend* backend, size_t dim,
                        size_t n) {
  const HullFixture f = MakeHullFixture(n, dim, false);
  const kernels::HullBatchArgs args = f.Args();
  std::vector<double> upper(f.n), lower(f.n);
  for (auto _ : state) {
    backend->hull_bounds(args, upper.data(), lower.data());
    benchmark::DoNotOptimize(upper.data());
    benchmark::DoNotOptimize(lower.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.n));
}

void RegisterBatchBenchmarks() {
  for (const kernels::KernelBackend* backend : kernels::CompiledBackends()) {
    if (!kernels::Runnable(*backend)) continue;
    for (const size_t dim : {size_t{8}, size_t{27}}) {
      for (const size_t n : {kBatchEntries, kRaggedEntries}) {
        const std::string suffix = std::string("/") + backend->name +
                                   "/dim:" + std::to_string(dim) +
                                   "/n:" + std::to_string(n);
        benchmark::RegisterBenchmark(
            ("BM_JointLogDensityBatch" + suffix).c_str(),
            [backend, dim, n](benchmark::State& state) {
              BM_JointLogDensityBatch(state, backend, dim, n);
            });
        benchmark::RegisterBenchmark(
            ("BM_HullBoundsBatch" + suffix).c_str(),
            [backend, dim, n](benchmark::State& state) {
              BM_HullBoundsBatch(state, backend, dim, n);
            });
      }
    }
  }
}

// ------------------------- kernel regression cells --------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Best-observed ns per entry of `fn` over one n-entry batch: calibrated to
// ~2ms timed blocks, minimum across blocks (same noise stance as the
// guard's min-collapse across smoke re-runs).
template <typename Fn>
double TimeNsPerEntry(size_t n, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm
  size_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    if (ns >= 2e6 || iters >= (size_t{1} << 24)) break;
    iters *= 2;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int block = 0; block < 5; ++block) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    best = std::min(best, ns / (static_cast<double>(iters) * n));
  }
  return best;
}

void EmitKernelCell(const std::string& cell, double ns_per_entry) {
  BenchCellMetrics metrics;
  metrics.bench = "micro_kernels";
  metrics.scale = 1.0;  // kernel cost is dataset-size independent
  metrics.cell = cell;
  metrics.ns_per_entry = ns_per_entry;
  AppendBenchJson(metrics);
}

// exp_shift over the rebasing inputs of the delta scan below: for each
// probe, the joint log densities of the delta objects within 768 of the
// best one (the band the bound-pruned scan scores), rebased on the best.
// About a tenth of them lie below -700, where a block used to fall back to
// the scalar reference. Cross-checks every output against PortableExp bit
// for bit and emits ns per element (active backend). Returns the number of
// mismatching elements.
int RunExpShiftFarCell(const DeltaTree& delta, size_t n,
                       const std::vector<Query>& probes) {
  struct Rebase {
    std::vector<double> log_in;
    double log_ref;
  };
  std::vector<Rebase> rebases;
  size_t elements = 0;
  size_t far = 0;
  std::vector<double> log_density(n);
  for (const Query& probe : probes) {
    kernels::JointBatchArgs args;
    args.mu = delta.mu_planes();
    args.sigma = delta.sigma_planes();
    args.stride = delta.plane_stride();
    args.n = n;
    args.dim = delta.dim();
    args.mu_q = probe.pfv().mu.data();
    args.sigma_q = probe.pfv().sigma.data();
    args.policy = SigmaPolicy::kConvolution;
    kernels::JointLogDensityBatch(args, log_density.data());
    Rebase rebase;
    rebase.log_ref = *std::max_element(log_density.begin(), log_density.end());
    for (const double ld : log_density) {
      if (!(ld >= rebase.log_ref - 768.0)) continue;
      rebase.log_in.push_back(ld);
      far += ld - rebase.log_ref < -700.0;
    }
    elements += rebase.log_in.size();
    rebases.push_back(std::move(rebase));
  }

  int failures = 0;
  std::vector<double> out(n);
  for (const Rebase& r : rebases) {
    kernels::ExpShiftBatch(r.log_in.data(), r.log_ref, r.log_in.size(),
                           out.data());
    for (size_t i = 0; i < r.log_in.size(); ++i) {
      const double want = kernels::PortableExp(r.log_in[i] - r.log_ref);
      if (std::memcmp(&want, &out[i], sizeof(double)) != 0) ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "FAIL exp_shift_far: %d of %zu elements differ from "
                 "PortableExp\n",
                 failures, elements);
  }

  const double ns = TimeNsPerEntry(elements, [&] {
    for (const Rebase& r : rebases) {
      kernels::ExpShiftBatch(r.log_in.data(), r.log_ref, r.log_in.size(),
                             out.data());
    }
    benchmark::DoNotOptimize(out.data());
  });
  std::printf(
      "  exp_shift_far: %.2f ns/element (%.1f elements per probe, %.1f%% "
      "below -700)\n",
      ns, double(elements) / double(rebases.size()),
      100.0 * double(far) / double(elements));
  EmitKernelCell(std::string("kernel=exp_shift_far,backend=") +
                     kernels::ActiveBackend().name,
                 ns);
  return failures;
}

// The live delta scan at the `ingest` workload's shape: the 536 data set 2
// objects enrolled after a 20k base (ids 20000-20535) in a delta of the
// default capacity, probed by the end-to-end benchmark's 2048-probe pool
// (Figure 7 mix over the base: half 1-MLIQ, a quarter each TIQ 0.8 and
// 0.2). Cross-checks ScanDelta against the full scan bit for bit on every
// probe under both sigma policies and emits the pruned scan's ns per delta
// object (active backend). Returns the number of mismatching probes.
int RunDeltaScanCell() {
  constexpr size_t kBase = 20000;
  constexpr size_t kEnrolled = 536;
  const PaperDataset extended = GeneratePaperDataset2(kBase + kEnrolled);
  const size_t dim = extended.dataset.dim();
  DeltaTree delta(dim, IngestOptions{}.delta_capacity);
  for (size_t i = kBase; i < kBase + kEnrolled; ++i) {
    delta.Append(extended.dataset.objects()[i]);
  }
  std::vector<Query> probes;
  for (const IdentificationQuery& q :
       GeneratePaperWorkload(GeneratePaperDataset2(kBase), 2048)) {
    switch (probes.size() % 4) {
      case 0:
      case 1:
        probes.push_back(Query::Mliq(q.query, 1).Accuracy(1e-2));
        break;
      case 2:
        probes.push_back(Query::Tiq(q.query, 0.8).ExactMembership(false));
        break;
      default:
        probes.push_back(Query::Tiq(q.query, 0.2).ExactMembership(false));
    }
  }

  int failures = 0;
  size_t scored = 0;
  size_t full = 0;
  for (const SigmaPolicy policy :
       {SigmaPolicy::kConvolution, SigmaPolicy::kAdditive}) {
    for (size_t p = 0; p < probes.size(); ++p) {
      ShardPartial got;
      const DeltaScanStats stats =
          ScanDelta(delta, kEnrolled, probes[p], policy, &got);
      if (policy == SigmaPolicy::kConvolution) {
        scored += stats.scored;
        full += stats.full;
      }
      if (!test::SamePartial(got, test::FullDeltaScan(delta, kEnrolled,
                                                      probes[p], policy))) {
        std::fprintf(stderr,
                     "FAIL delta_scan probe=%zu policy=%d: bits differ from "
                     "the full scan\n",
                     p, static_cast<int>(policy));
        ++failures;
      }
    }
  }

  failures += RunExpShiftFarCell(delta, kEnrolled, probes);

  size_t next = 0;
  const double pruned_ns = TimeNsPerEntry(kEnrolled, [&] {
    ShardPartial partial;
    ScanDelta(delta, kEnrolled, probes[next++ % probes.size()],
              SigmaPolicy::kConvolution, &partial);
    benchmark::DoNotOptimize(partial.denominator_lo);
  });
  const double full_ns = TimeNsPerEntry(kEnrolled, [&] {
    const ShardPartial partial =
        test::FullDeltaScan(delta, kEnrolled, probes[next++ % probes.size()],
                            SigmaPolicy::kConvolution);
    benchmark::DoNotOptimize(partial.denominator_lo);
  });
  std::printf(
      "  delta_scan n=%zu: %.2f ns/object (%.2f us/scan; scored %.1f of %zu "
      "per probe, %zu full scans); scoring every object: %.2f ns/object\n",
      kEnrolled, pruned_ns, pruned_ns * kEnrolled * 1e-3,
      double(scored) / double(probes.size()), kEnrolled, full, full_ns);
  EmitKernelCell(std::string("kernel=delta_scan,backend=") +
                     kernels::ActiveBackend().name +
                     ",n=" + std::to_string(kEnrolled),
                 pruned_ns);
  return failures;
}

// Smoke mode: cross-check every runnable backend bit-for-bit against the
// scalar reference (random + edge fixtures at every partial-block length
// 1..2*kMaxLanes+1 and at node scale), and emit one ns/entry cell per
// (kernel, backend, dim) at n = 64 and at the ragged node fill n = 21.
// Returns the process exit code: non-zero on any bit mismatch.
int RunKernelCells() {
  const kernels::KernelBackend& scalar = kernels::ScalarBackend();
  std::printf("active backend: %s\n", kernels::ActiveBackend().name);
  int failures = 0;

  std::vector<size_t> check_ns;
  for (size_t n = 1; n <= 2 * kernels::kMaxLanes + 1; ++n) {
    check_ns.push_back(n);
  }
  check_ns.push_back(kRaggedEntries);
  check_ns.push_back(kBatchEntries - 3);
  check_ns.push_back(kBatchEntries);

  for (const kernels::KernelBackend* backend : kernels::CompiledBackends()) {
    if (!kernels::Runnable(*backend)) {
      std::printf("  %s: compiled but not runnable on this CPU, skipped\n",
                  backend->name);
      continue;
    }
    for (const size_t dim : {size_t{8}, size_t{27}}) {
      // Bit-identity: every partial-block length of every backend, plain
      // and edge fixtures.
      for (const bool edges : {false, true}) {
        for (const size_t n : check_ns) {
          JointFixture jf = MakeJointFixture(n, dim, edges);
          std::vector<double> ref(n), got(n);
          scalar.joint_log_density(jf.Args(), ref.data());
          backend->joint_log_density(jf.Args(), got.data());
          if (!SameBits(ref, got)) {
            std::fprintf(stderr,
                         "FAIL joint_log_density %s dim=%zu n=%zu edges=%d: "
                         "bits differ from scalar\n",
                         backend->name, dim, n, edges);
            ++failures;
          }
          HullFixture hf = MakeHullFixture(n, dim, edges);
          std::vector<double> ref_up(n), ref_lo(n), got_up(n), got_lo(n);
          scalar.hull_bounds(hf.Args(), ref_up.data(), ref_lo.data());
          backend->hull_bounds(hf.Args(), got_up.data(), got_lo.data());
          if (!SameBits(ref_up, got_up) || !SameBits(ref_lo, got_lo)) {
            std::fprintf(stderr,
                         "FAIL hull_bounds %s dim=%zu n=%zu edges=%d: "
                         "bits differ from scalar\n",
                         backend->name, dim, n, edges);
            ++failures;
          }
          const std::vector<double> log_in = MakeExpFixture(n, edges);
          std::vector<double> ref_exp(n), got_exp(n);
          scalar.exp_shift(log_in.data(), -3.5, n, ref_exp.data());
          backend->exp_shift(log_in.data(), -3.5, n, got_exp.data());
          if (!SameBits(ref_exp, got_exp)) {
            std::fprintf(stderr,
                         "FAIL exp_shift %s n=%zu edges=%d: "
                         "bits differ from scalar\n",
                         backend->name, n, edges);
            ++failures;
          }
        }
      }

      // Timing cells (ordinary-value fixtures: the hot path's common case).
      // The n = 64 cells keep their historical names.
      for (const size_t n : {kBatchEntries, kRaggedEntries}) {
        const JointFixture jf = MakeJointFixture(n, dim, false);
        const kernels::JointBatchArgs jargs = jf.Args();
        std::vector<double> out(n);
        const double joint_ns = TimeNsPerEntry(n, [&] {
          backend->joint_log_density(jargs, out.data());
          benchmark::DoNotOptimize(out.data());
        });
        const HullFixture hf = MakeHullFixture(n, dim, false);
        const kernels::HullBatchArgs hargs = hf.Args();
        std::vector<double> upper(n), lower(n);
        const double hull_ns = TimeNsPerEntry(n, [&] {
          backend->hull_bounds(hargs, upper.data(), lower.data());
          benchmark::DoNotOptimize(upper.data());
        });
        std::string key = std::string("backend=") + backend->name + ",dim=" +
                          std::to_string(dim);
        if (n != kBatchEntries) key += ",n=" + std::to_string(n);
        std::printf("  %-28s joint %7.2f ns/entry   hull %7.2f ns/entry\n",
                    key.c_str(), joint_ns, hull_ns);
        EmitKernelCell("kernel=joint_log_density," + key, joint_ns);
        EmitKernelCell("kernel=hull_bounds," + key, hull_ns);
      }
    }
  }

  failures += RunDeltaScanCell();
  if (failures > 0) {
    std::fprintf(stderr, "%d kernel cross-check failure(s)\n", failures);
    return 1;
  }
  std::printf("all runnable backends bit-identical to scalar\n");
  return 0;
}

}  // namespace
}  // namespace gauss

int main(int argc, char** argv) {
  // Smoke mode (ctest micro_kernels_smoke): kernel regression cells + bit
  // cross-check instead of the google-benchmark harness.
  const char* json = std::getenv("GAUSS_BENCH_JSON");
  if (json != nullptr && json[0] != '\0') return gauss::RunKernelCells();

  gauss::RegisterBatchBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
