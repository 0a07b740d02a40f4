#ifndef GAUSS_API_GAUSS_DB_H_
#define GAUSS_API_GAUSS_DB_H_

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gausstree/delta_tree.h"
#include "gausstree/gauss_tree.h"
#include "net/net_error.h"
#include "net/shard_backend.h"
#include "pfv/pfv.h"
#include "service/query.h"
#include "service/query_service.h"
#include "service/shard_coordinator.h"
#include "storage/page.h"
#include "storage/page_device.h"
#include "storage/sharded_buffer_pool.h"

namespace gauss {

// =============================== GaussDb ====================================
//
// The public face of the system: "identification queries as a database
// service" (paper abstract) in three calls, without hand-wiring devices,
// buffer pools, trees, and worker pools:
//
//   GaussDb db = GaussDb::CreateInMemory(/*dim=*/12);
//   db.Build(dataset);                        // bulk-load + finalize
//   Session session = db.Serve();             // concurrent serving stack
//
//   // Streaming: per-query futures, optional deadlines.
//   auto future = session.Submit(Query::Mliq(probe, /*k=*/3));
//   QueryResponse who = future.get();
//
//   // Batch: submit-and-gather over the same execution path.
//   BatchResult result = session.ExecuteBatch(batch);
//
// GaussDb owns the storage stack and drives it through an explicit
// lifecycle. The states and the transitions between them:
//
//   Building ──Serve()──> Serving(static)        (GaussDbOptions::ingest off)
//   Building ──Serve()──> Serving(live ingest)   (GaussDbOptions::ingest on)
//
// A Session is a share of a serving engine (api/serving_engine.h). The
// engine publishes immutable epochs — per-shard serving stacks (cache +
// reopened tree + worker pool) behind one front door — and every Session
// call forwards to the current epoch. The two serving states differ only in
// the engine's shape: a static engine has a single epoch without deltas,
// a live one keeps publishing new epochs as enrollments merge.
//
//   * Building — CreateInMemory()/CreateOnFile()/CreateOnDirectory() pick
//     the page device(s) and attach one-stripe ShardedBufferPool(s) plus
//     empty GaussTree(s). Build() bulk-loads; Insert() holds one object for
//     the next Finalize() and returns InsertResult{kRoutedToBuild}.
//     Finalize() bulk-loads what Insert() holds — explicit, or implied by
//     Serve() — so a database has one build path, the bulk load: Insert()s
//     into an empty database write the image Build() of the same objects
//     in the same order writes.
//   * Serving (static) — Serve() switches the stack: it flushes and tears
//     down the build pool(s), then builds a new engine whose one epoch
//     reattaches the finalized tree(s) via GaussTree::Open() over
//     latch-striped ShardedBufferPool(s) and starts QueryService worker
//     pools. The returned Session is that engine's only share; queries go
//     through Session::Submit()/ExecuteBatch(). The pages are immutable:
//     Insert() now returns InsertResult{kFinalized} — a typed, recoverable
//     rejection, never an abort (enrollment pipelines race serving cutover
//     all the time; a lost race must be reportable).
//   * Serving (live ingest) — with GaussDbOptions::ingest.enabled, the
//     database keeps one engine whose epochs also carry deltas, so it keeps
//     absorbing Insert() while queries run (InsertResult{kRoutedToDelta});
//     see "Live ingest" below. GaussDb::Insert() and Session::Insert() are
//     the same entry point in this state.
//   * Reopen — OpenFile()/OpenDirectory() attach to a database persisted by
//     an earlier Create*() + Finalize() run (state: Building, so more
//     Insert()s are fine; Finalize() rebuilds each shard they reach from
//     its image plus its new objects, as a live-ingest merge does). Both
//     return an OpenResult: a missing file, unrecognizable or truncated
//     manifest/header, or a version/page-size/shard-layout mismatch is
//     reported as a typed OpenError for the caller to handle (a serving
//     fleet must degrade a bad replica, not abort).
//     An image in an older format is refused with kNeedsUpgrade;
//     GaussDb::Upgrade() rewrites it once, offline.
//     Opening also walks and checksums every node page (kCorruptPage).
//     A node page damaged after that fails only the queries that reach
//     it, typed (QueryResponse::Status::kCorrupt, or kShardError carrying
//     NetErrorCode::kCorrupt). API misuse (serving an unbuilt database,
//     out-of-range shard indexes) still aborts.
//
// Live ingest (GaussDbOptions::ingest, src/gausstree/README.md): the gallery
// keeps growing while MLIQ/TIQ traffic runs. Each serving epoch is an
// immutable base image (the per-shard trees, served exactly as in the static
// state) plus one small mutable DeltaTree per shard that absorbs Insert()s;
// the delta registers as one more backend behind the ShardCoordinator and
// reports *exact* degenerate denominator intervals, so combined answers
// remain provably exact — a query admitted at time t sees precisely the
// enrollments published before t. Queries snapshot the epoch at admission
// (a shared_ptr copy — no stop-the-world, no reader latching); once the
// buffered delta passes IngestOptions::merge_threshold, a background merge
// thread (MergePolicy::kBackground; or MergeIngest() under kManual) rebuilds
// the base through the existing bulk loader on pages of the same device(s)
// that the serving image does not use, publishes a fresh epoch atomically,
// and retires the old one after its last in-flight query drains. The
// retired image's pages are then recycled, and the next merge writes there:
// a device holds at most two images per shard, the serving one and the one
// being merged. The free pages are derived, not stored — a live Serve()
// after a reopen recycles every page no shard header reaches.
// Session::ingest_stats() reports delta size, epoch, merges completed,
// merge backlog and the devices' total and free pages alongside
// io_stats().
//
// Sharding (GaussDbOptions::shards, ShardOptions::num_shards >= 1): the
// gallery is cut into N regions of the feature space (api/partitioner.h), one
// Gauss-tree each. Build() cuts at the median of the widest mu axis,
// recursively, snapping each cut to a full leaf block, and the shard trees
// bulk-load their parts of the gallery in place (no copy), side by side. The
// Insert()s of an empty database are cut the same way at Finalize(); once
// the shards are built, Insert() routes an object to a shard by the paper's
// Section 5.3 insertion rule applied to the shards' root MBRs. Serve()
// returns a Session whose front door is a
// ShardCoordinator scatter-gathering every query across per-shard
// QueryServices and combining the per-shard Bayes-denominator bounds — with
// refinement rounds when the combined interval is too loose — so MLIQ/TIQ
// answers equal the single-tree algorithm's (see service/shard_coordinator.h
// for the algorithm and its correctness argument, including the seeded Start
// that lets spatial shards prune each other, and
// tests/shard_equivalence_test.cc for the differential proof).
// The coordinator protocol never sees where a shard's pages live, which is
// why the same Session serves both storage layouts below unchanged.
//
// Distributed serving: the coordinator reaches its shards through the
// ShardBackend seam (net/shard_backend.h), so shards may also live on other
// *hosts*. Run one `gauss_shardd` per shard file (examples/gauss_shardd.cc,
// built on net/shard_server.h), then connect a front door with
// GaussDb::ServeRemote({"hostA:7001", "hostB:7001", ...}) — the returned
// Session shares an engine whose epoch scatter-gathers over RpcBackends
// speaking the versioned binary wire protocol (src/net/README.md) instead
// of in-process worker pools. Remote sessions serve; they do not enroll.
// Answers are byte-identical to local serving (the loopback differential in
// tests/shard_equivalence_test.cc proves it); a dead or too-slow shard
// fails queries with a typed QueryResponse::Status::kShardError instead of
// hanging.
//
// Two persistent layouts:
//
//   * Single-file (CreateOnFile): every shard tree lives as a page region of
//     the one device. Page 0 holds a GaussDb shard manifest (own magic;
//     format version, num_shards, partition kind, dimensionality, page size,
//     per-shard header page ids) written by Finalize(); each shard tree
//     keeps its ordinary GaussTree header on its own page. An unsharded
//     database has no manifest (its tree header sits directly at page 0),
//     and OpenFile() distinguishes the two by the page-0 magic — both
//     layouts reopen transparently, sharding options are restored from the
//     manifest and the caller's ShardOptions are ignored.
//
//   * Directory (CreateOnDirectory): one *device per shard*, for galleries
//     larger than one device. `<dir>/MANIFEST` is a small text file naming
//     the format version, page size, dimensionality, partition kind, shard
//     count, and the per-shard relative paths; each `<dir>/shard-NNNN.gauss`
//     is an ordinary single-tree FilePageDevice image (GaussTree header at
//     page 0) — so any shard file is independently openable with
//     OpenFile() for inspection or repair, and per-shard files can live on
//     different mounts via symlinks. Each shard gets its own one-stripe
//     build pool and its own striped serving pool, so reads proceed across
//     all N files truly in parallel. Session::io_stats() still merges the
//     per-shard counters into one per-session view. OpenDirectory()
//     reattaches; the manifest's facts override the caller's ShardOptions.
//
// Lifetime rules: GaussDb owns the device(s); every engine borrows them, so
// a Session must be destroyed before its GaussDb. Serve() may be called
// multiple times — without ingest each call builds an independent engine
// (own cache budget, own workers) over the same read-only pages, which is
// how several differently-sized frontends can share one database. With
// ingest enabled there is one engine per database (inserts must have a
// single routing authority); the first Serve() call's options build it and
// later calls return additional Sessions sharing it. One process owns a
// live database's devices: its merges overwrite the pages of retired
// images, so a second process serving the same file could read a page
// while it is rewritten. Replacing or destroying a Session releases its
// share; the last share tears the engine down in dependency order: the
// coordinator drains the queries still in flight, the backends close,
// then each shard's service, tree and cache go.
//
// The low-level layers stay public and documented for callers that need
// them: QueryMliq()/QueryTiq() over a GaussTree are the re-entrant query
// kernels (gausstree/mliq.h, tiq.h), QueryService is the raw serving
// engine (service/query_service.h), and ShardCoordinator the raw
// scatter-gather front door (service/shard_coordinator.h). Everything
// GaussDb does is expressible through them; the façade only removes the
// plumbing.
// ============================================================================

// Sharding configuration (build-time: partitioning is part of the
// database's persistent identity, not of one serving session).
struct ShardOptions {
  // 0 = unsharded single tree (the default; its header at page 0).
  // >= 1 partitions the gallery over this many Gauss-trees behind one
  // scatter-gather front door. 1 is a valid degenerate case (one shard
  // behind a coordinator) and useful for testing the combination logic.
  size_t num_shards = 0;
};

// When the live-ingest merge runs (IngestOptions::merge_policy).
enum class MergePolicy {
  // A background thread rebuilds the base once the buffered delta reaches
  // IngestOptions::merge_threshold. The default.
  kBackground,
  // Merges happen only on explicit GaussDb::MergeIngest() calls — for
  // deterministic tests and callers that schedule compaction themselves.
  kManual,
};

// Live-ingest configuration (GaussDbOptions::ingest): insert-while-serving
// with epoch-based base/delta serving. Disabled by default — the static
// build-then-serve flow is unchanged.
struct IngestOptions {
  // Master switch: with it off, Serve() builds the classic immutable stack
  // and post-Serve Insert() returns InsertResult{kFinalized}.
  bool enabled = false;
  // Capacity of each per-shard delta buffer, in objects. A full delta
  // rejects Insert() with kDeltaFull (typed backpressure) until a merge
  // drains it, so this bounds both query-time delta scan cost and the
  // worst-case merge batch.
  size_t delta_capacity = 4096;
  // Background policy only: total buffered objects (across shards) that
  // trigger a merge.
  size_t merge_threshold = 1024;
  MergePolicy merge_policy = MergePolicy::kBackground;
};

// Build-phase configuration.
struct GaussDbOptions {
  // Index construction parameters (sigma policy, split strategy, ...).
  GaussTreeOptions tree;
  // Page size of the backing device (bytes).
  uint32_t page_size = kDefaultPageSize;
  // Gallery partitioning over multiple Gauss-trees.
  ShardOptions shards;
  // Insert-while-serving (see the lifecycle overview above).
  IngestOptions ingest;
};

// Where an Insert() landed — or why it was rejected. Rejections are typed
// and recoverable, mirroring the OpenResult/ServeResult idiom: enrollment
// racing a serving cutover is an operational condition, not API misuse, so
// it must never take the process down.
enum class InsertOutcome {
  kRoutedToBuild,      // build phase: held for the next Finalize()'s load
  kRoutedToDelta,      // live ingest: absorbed by the epoch's delta
  kFinalized,          // serving without ingest: the pages are immutable
  kDeltaFull,          // live ingest backpressure: delta at capacity, retry
                       // after the merge drains it
  kDimensionMismatch,  // pfv dimensionality != database dimensionality
  kInvalidPfv,         // mismatched mu/sigma lengths or non-positive sigma
};

// Human-readable name of an InsertOutcome ("routed_to_delta", ...).
const char* InsertOutcomeName(InsertOutcome outcome);

struct InsertResult {
  InsertOutcome outcome = InsertOutcome::kRoutedToBuild;
  std::string message;  // what was wrong; empty on success

  // True when the object is in the database (build phase or delta).
  bool ok() const {
    return outcome == InsertOutcome::kRoutedToBuild ||
           outcome == InsertOutcome::kRoutedToDelta;
  }
  explicit operator bool() const { return ok(); }
};

// Live-ingest counters, exposed by Session::ingest_stats() alongside
// io_stats(). All zero for sessions without live ingest.
struct IngestStats {
  // Objects currently buffered across the epoch's delta(s) — enrolled,
  // serving, not yet merged into the base.
  size_t delta_size = 0;
  // Serving epoch id (1 = the image Serve() built; +1 per merge).
  uint64_t epoch = 0;
  uint64_t inserts_accepted = 0;
  uint64_t merges_completed = 0;
  // Buffered objects awaiting a merge that is due: under kBackground, the
  // delta size once it passed merge_threshold (0 below it); under kManual
  // every buffered object counts.
  size_t merge_backlog = 0;
  // Pages of the database's devices (each counted once), and how many of
  // them are free: recycled from retired images, not yet reused. Their
  // difference is what the serving image occupies.
  size_t device_pages = 0;
  size_t free_pages = 0;
};

// Serving-stack configuration for one GaussDb::Serve() call.
struct ServeOptions {
  // Worker threads; 0 = one per usable CPU (common/cpus.h). For a sharded
  // database this is the *total* budget, split evenly over the shards (at
  // least one worker per shard). A sharded or live session executes its
  // queries on min(budget, usable CPUs) coordinator threads.
  size_t num_workers = 0;
  // Cache budget of the serving pool(s), in pages. For a sharded database
  // the budget is split evenly over the per-shard pools.
  size_t cache_pages = 1 << 12;
  // Bound of the admission queue (backpressure/shedding threshold). Behind
  // a ShardCoordinator (sharded or live-ingest sessions) this bounds the
  // coordinator's front-door queue, where every query is admitted, and
  // each per-shard queue, which sees only ShardServer work, never a query.
  size_t queue_capacity = 1024;
  // ServeRemote() only: TCP connect + handshake patience per shard endpoint,
  // and the per-request ceiling (a query's own deadline tightens the latter;
  // see RpcBackendOptions in net/rpc_backend.h).
  uint64_t rpc_connect_timeout_ms = 5000;
  uint64_t rpc_request_timeout_ms = 30000;
};

// Why an OpenFile()/OpenDirectory() attempt was rejected. These are the
// recoverable conditions — a damaged or foreign *image*; API misuse (e.g.
// serving an unbuilt database) still aborts via GAUSS_CHECK.
enum class OpenErrorCode {
  kIoError,            // file/directory missing or unreadable, size not a
                       // page multiple (truncated mid-page)
  kNotAGaussDb,        // no recognizable GaussDb/Gauss-tree header
  kVersionMismatch,    // manifest or tree header format version unsupported
  kPageSizeMismatch,   // opened with a page size != the persisted one
  kCorruptManifest,    // manifest present but truncated or inconsistent
  kMissingShardFile,   // directory manifest names a shard file that is absent
  kShardCountMismatch, // manifest shard count disagrees with its shard list
  kCorruptPage,        // a node page fails its checksum or is malformed,
                       // the tree reaches a page twice, or a tree header
                       // is malformed or disagrees with its leaves
  kNeedsUpgrade,       // an older format this build reads only through
                       // GaussDb::Upgrade()
};

// Human-readable name of an OpenErrorCode ("page_size_mismatch", ...).
const char* OpenErrorCodeName(OpenErrorCode code);

struct OpenError {
  OpenErrorCode code = OpenErrorCode::kIoError;
  std::string message;  // what was wrong, with the offending path/values
};

class OpenResult;
struct StoredImage;  // api/upgrade.h

// The serving engine (api/serving_engine.h): epochs of per-shard serving
// stacks behind one front door, delta routing and the merge thread under
// live ingest. Every Session holds a share of one.
class ServingEngine;

// A share of a serving engine over one finalized GaussDb (or, from
// GaussDb::ServeRemote, over shard servers on other hosts). Every call
// forwards to the engine's current epoch; what the engine serves — one tree,
// N shards behind a ShardCoordinator, a remote fleet, a live base + delta —
// is invisible here. A static Serve() call gets an engine of its own; a
// live-ingest database has one engine that every Serve() shares. Move-only;
// releasing the last share of an engine drains its outstanding queries and
// joins all its workers. A local session must not outlive the GaussDb it
// came from; a remote one has no GaussDb.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // Streaming submission — see QueryService::Submit() /
  // ShardCoordinator::Submit(). Each query snapshots the serving epoch at
  // admission, so under live ingest it sees exactly the enrollments
  // published before it.
  std::future<QueryResponse> Submit(Query query);

  // Batch submission — see QueryService::ExecuteBatch() /
  // ShardCoordinator::ExecuteBatch().
  BatchResult ExecuteBatch(const std::vector<Query>& batch);

  // Live enrollment against the serving front door: routes to the owning
  // shard's delta (kRoutedToDelta) on a live-ingest session and reports
  // kFinalized on a static or remote one. Same typed results as
  // GaussDb::Insert().
  InsertResult Insert(const Pfv& pfv);

  // Live-ingest counters (delta size, epoch, merges completed, merge
  // backlog); all zero for static sessions. See IngestStats.
  IngestStats ingest_stats() const;

  // True when this session serves a live-ingest engine.
  bool live_ingest() const;

  // The reopened read-only tree (for the low-level QueryMliq/QueryTiq API
  // and for structural inspection). Unsharded static sessions only — a
  // sharded session has one tree per shard (use shard_tree()), and a
  // live-ingest session's trees are epoch-owned and retire on merge.
  const GaussTree& tree() const;

  // Per-shard tree of a (possibly unsharded, shard 0) local static session.
  const GaussTree& shard_tree(size_t shard) const;

  // The serving page cache (I/O statistics, Clear() for cold-start
  // experiments while no queries are in flight). Unsharded static sessions
  // only — sharded sessions have one cache per shard, live-ingest sessions
  // epoch-owned ones; see io_stats().
  ShardedBufferPool& cache();

  // I/O counters summed over all serving caches (1 for unsharded sessions).
  // Per-session by construction: each static Serve() call owns its own
  // caches, so concurrent sessions over one database never blend their
  // counters — also true under the directory layout, where the caches
  // additionally sit on different devices. Remote sessions report the
  // remote shard caches' counters (fetched over the wire; a dead shard
  // contributes nothing). Live-ingest sessions report the current epoch's
  // caches plus every retired epoch's accumulated counters.
  IoStats io_stats() const;

  // Base shards: shard trees for local sessions, endpoints for remote ones
  // (a live-ingest session's deltas are not counted — they hold no pages).
  size_t num_shards() const;
  // True when a ShardCoordinator scatter-gathers over the base shards: a
  // sharded database, or a remote fleet.
  bool sharded() const;

  // The per-shard QueryService of a local static session — what a
  // gauss_shardd process hands to its ShardServer, and what the loopback
  // tests wrap in per-shard RPC servers.
  QueryService* shard_service(size_t shard);

  // Total workers of the per-shard QueryService pools (0 for remote
  // sessions). They execute an unsharded session's queries and serve a
  // ShardServer over shard_service(); a sharded or live session's queries
  // run on its coordinator threads instead (coordinator_threads()).
  size_t num_workers() const;

  // Threads of the ShardCoordinator front door: min(ServeOptions budget,
  // UsableCpus()) for a local session, 2 for a remote one, 0 when the
  // front door is the one QueryService.
  size_t coordinator_threads() const;

 private:
  friend class GaussDb;
  explicit Session(std::shared_ptr<ServingEngine> engine);

  std::shared_ptr<ServingEngine> engine_;
};

// Success-or-typed-error result of GaussDb::ServeRemote(): connecting to a
// shard fleet can fail per endpoint (refused, timeout, version mismatch,
// inconsistent dimensionality), and a front door must degrade, not abort.
class ServeResult {
 public:
  /*implicit*/ ServeResult(Session session) : session_(std::move(session)) {}
  /*implicit*/ ServeResult(NetError error) : error_(std::move(error)) {}

  bool ok() const { return session_.has_value(); }
  explicit operator bool() const { return ok(); }

  // The typed rejection; only meaningful when !ok().
  const NetError& error() const {
    GAUSS_CHECK_MSG(!ok(), "ServeResult::error() on a successful connect");
    return error_;
  }

  // Moves the connected session out; aborts with the error message if the
  // connect was rejected.
  Session value() && {
    GAUSS_CHECK_MSG(ok(), error_.message.c_str());
    Session session = std::move(*session_);
    session_.reset();
    return session;
  }

 private:
  std::optional<Session> session_;
  NetError error_;
};

class GaussDb {
 public:
  // A fresh database over a heap-backed device — experiments, tests, and
  // datasets that fit in RAM.
  static GaussDb CreateInMemory(size_t dim, GaussDbOptions options = {});

  // A fresh database persisted to `path` (truncates existing content).
  // Finalize()/Serve() sync the file; OpenFile() reattaches later.
  static GaussDb CreateOnFile(const std::string& path, size_t dim,
                              GaussDbOptions options = {});

  // A fresh database persisted to the directory `path` (created if absent),
  // one FilePageDevice per shard: `path/shard-NNNN.gauss` plus a
  // `path/MANIFEST` text file written by Finalize(). Requires
  // options.shards.num_shards >= 1 — the directory layout exists to spread
  // a sharded gallery over multiple devices (each shard file can be a
  // symlink onto its own mount). OpenDirectory() reattaches later.
  static GaussDb CreateOnDirectory(const std::string& path, size_t dim,
                                   GaussDbOptions options = {});

  // Reattaches to a database file written by CreateOnFile() + Finalize().
  // Tree options, dimensionality, and sharding are read back from the
  // persistent headers (tree header or shard manifest at page 0);
  // `options.tree`/`options.shards` are ignored. A missing file, a damaged
  // or foreign manifest/header, or `options.page_size` differing from the
  // page size the file was created with comes back as a typed OpenError
  // (see OpenResult), and so does a node page that fails its checksum or
  // structural checks (kCorruptPage): opening walks every node page. An
  // image in an older format is kNeedsUpgrade (see Upgrade()).
  static OpenResult OpenFile(const std::string& path,
                             GaussDbOptions options = {});

  // Reattaches to a database directory written by CreateOnDirectory() +
  // Finalize(): parses `path/MANIFEST` and opens every listed shard file as
  // its shard's device. The manifest's facts (shard count, partition kind,
  // page size, dimensionality) override `options`. Typed error paths mirror
  // OpenFile()'s and add the directory-specific ones: a manifest naming a
  // missing shard file (kMissingShardFile), a shard list disagreeing with
  // the declared count (kShardCountMismatch), a shard file that is not a
  // single-tree image or disagrees on page size/dimensionality.
  static OpenResult OpenDirectory(const std::string& path,
                                  GaussDbOptions options = {});

  // Offline: rewrites the database file or directory at `from`, in any
  // format a build has written (api/upgrade.h), as a new image at `to` in
  // the current one: same layout family, page size, dim, shard count and
  // tree options, objects bulk-loaded in id order and cut spatially. Fails
  // with Open*()'s typed errors, or kIoError when `to` is `from`; of
  // `options` only page_size and ingest apply.
  static OpenResult Upgrade(const std::string& from, const std::string& to,
                            GaussDbOptions options = {});

  GaussDb(GaussDb&&) = default;
  GaussDb& operator=(GaussDb&&) = default;

  // Bulk-loads an empty database (top-down hull-integral partitioning — the
  // fast, more selective build) and finalizes it. Sharded databases cut the
  // dataset spatially first (api/partitioner.h) and bulk-load every shard
  // tree straight from `dataset`, through its part's positions. The shard
  // loads run side by side: each tree first reserves its pages in shard
  // order (GaussTree::ReserveBulkLoad), then up to UsableCpus() loaders
  // each take the next shard, the CPUs shared out among them as bulk-load
  // threads. So the image is byte-identical to loads run one after another,
  // on any number of CPUs.
  void Build(const PfvDataset& dataset);

  // Inserts one object. Build phase (kRoutedToBuild): the object is held,
  // ids plus SoA planes, until the next Finalize() bulk-loads it. Into an
  // empty database it is held unrouted, and Finalize() cuts and loads the
  // held objects exactly as Build() would a dataset of them in insertion
  // order. Into a built or reopened one it is routed to a shard now, by the
  // paper's Section 5.3 rule over the shards' root MBRs (each grown by the
  // objects already routed to it), and Finalize() rebuilds that shard from
  // its image plus its held objects. Serving with live ingest
  // enabled (GaussDbOptions::ingest): appends to the owning shard's delta
  // (kRoutedToDelta) — visible to every query admitted afterwards, with
  // kDeltaFull backpressure when the delta is at capacity and a merge has
  // not caught up. Serving without ingest: kFinalized. Never aborts on
  // lifecycle state; malformed input reports kDimensionMismatch /
  // kInvalidPfv.
  InsertResult Insert(const Pfv& pfv);

  // Loads the objects Insert() holds: an empty database's are cut and
  // bulk-loaded like Build()'s; each shard of a built one that holds objects
  // is rebuilt from its leaves, read in place, plus those objects, on pages
  // its image does not use (first those no header reaches, such as an image
  // an earlier process retired), its header redirected to the new image and
  // the old image's pages recycled (RebuildShards, the step of a live-ingest
  // merge). Then writes the tree headers, the manifest when sharded (page 0
  // of the single file, or the MANIFEST text file of a directory), and syncs
  // file-backed devices. Idempotent; Serve() calls it implicitly.
  void Finalize();

  // Switches to the serve phase: tears down the build pool(s) and returns a
  // Session serving the finalized pages. Unsharded: one ShardedBufferPool +
  // QueryService stack. Sharded: one stack per shard behind a
  // ShardCoordinator — under the directory layout each stack's cache sits
  // on its shard's own device, so shard reads never queue behind another
  // shard's device. May be called repeatedly; after the first call the
  // build phase is over (Insert() then reports kFinalized, or keeps
  // routing to the delta under live ingest). Without ingest every call
  // builds a new serving engine from its `options`; with
  // GaussDbOptions::ingest.enabled the first call builds the database's one
  // live engine and later calls return Sessions sharing it.
  Session Serve(ServeOptions options = {});

  // Connects a scatter-gather front door to shard servers on other hosts:
  // one "host:port" endpoint per shard, each a running gauss_shardd (or any
  // net/shard_server.h). No local GaussDb is involved — the shards own
  // their storage stacks; the returned Session is the only share of a
  // serving engine whose one epoch holds an RpcBackend per endpoint behind
  // a ShardCoordinator. Fails typed (ServeResult) when an endpoint is
  // unreachable (kConnectFailed/kTimeout), speaks a different protocol
  // version (kProtocolMismatch), or the shards disagree on dimensionality
  // (kProtocolMismatch). Only the rpc_* and queue_capacity fields of
  // `options` apply. The shard images are immutable from here:
  // Session::Insert() reports kFinalized — enroll on the hosts that own the
  // pages, then restart their shard servers.
  static ServeResult ServeRemote(const std::vector<std::string>& endpoints,
                                 ServeOptions options = {});

  // Rebuilds the base image from base + delta now (live ingest only;
  // MergePolicy::kManual callers drive merging with this, kBackground
  // callers may force one). Returns false when there was nothing to merge
  // or the database serves without ingest. Blocks until the new epoch
  // serves.
  bool MergeIngest();

  // Live-ingest counters; zeros unless Serve() built a live engine.
  IngestStats ingest_stats() const;

  size_t size() const;
  size_t dim() const { return dim_; }
  // True when every shard tree is finalized and no inserted object waits
  // for a Finalize().
  bool finalized() const;

  // Number of shard trees (1 for an unsharded database).
  size_t num_shards() const { return num_shards_; }
  bool sharded() const { return sharded_; }

  // True when each shard has its own device (directory layout).
  bool per_shard_devices() const { return per_shard_devices_; }

  // The backing device of `shard` (shared by the build pool and every
  // Session). Single-device layouts route every shard to the one device.
  PageDevice& device(size_t shard = 0) { return *devices_[DeviceOf(shard)]; }

  // Build-phase tree access (nullptr once Serve() has switched phases).
  // `shard` indexes the partition for sharded databases. A tree holds the
  // objects of the last load; those inserted since wait for Finalize().
  const GaussTree* build_tree(size_t shard = 0) const {
    return shard < trees_.size() ? trees_[shard].get() : nullptr;
  }

 private:
  GaussDb() = default;

  // Page the first persistent header lives at. Single-device layouts:
  // GaussDb always allocates it first on a fresh device — the tree header
  // (unsharded) or the shard manifest — which is what OpenFile()
  // relies on. Directory layout: every shard file is a single-tree image,
  // so each shard's tree header lands here on its own device.
  static constexpr PageId kMetaPage = 0;

  // Device index backing `shard`: identity under per-shard devices, 0
  // otherwise.
  size_t DeviceOf(size_t shard) const {
    return per_shard_devices_ ? shard : 0;
  }

  // A database of `options` and `dim` without devices; AddDevice appends
  // one with its one-stripe build pool.
  static GaussDb Empty(const GaussDbOptions& options, size_t dim);
  void AddDevice(std::unique_ptr<PageDevice> device);

  // Open*()'s result once `image` at `path` has been read: kNeedsUpgrade,
  // kCorruptPage when a tree fails GaussTree::TryOpen, or the database.
  static OpenResult Attach(const std::string& path, StoredImage* image,
                           GaussDbOptions options);

  // Creates the (empty) shard trees on the fresh device(s): single-device —
  // the manifest page first when sharded, then one tree per shard in shard
  // order; per-shard devices — one tree at page 0 of each device.
  void InitFreshTrees();

  // Writes the directory layout's MANIFEST text file (Finalize() writes
  // the single-file layout's page-0 manifest itself).
  void WriteDirectoryManifest();

  // Whether the shard trees have been loaded (Build, Finalize, Open*):
  // inserts are routed and rebuild their shards from then on.
  bool built() const { return trees_.front()->store().finalized(); }
  // Finalize()'s loads of the held objects: into the empty trees, cut as
  // Build() cuts, or as rebuilds of the built shards that hold some.
  void LoadPending();
  void RebuildPending();

  GaussDbOptions options_;
  // One device for the in-memory/single-file layouts; one per shard for the
  // directory layout (DeviceOf maps shard -> device index).
  std::vector<std::unique_ptr<PageDevice>> devices_;
  // Build pools, parallel to devices_: one LRU stripe each (the build path
  // is single-threaded; per-shard pools exist so each shard's pages stay on
  // its own device).
  std::vector<std::unique_ptr<ShardedBufferPool>> build_pools_;
  // Build-phase trees, one per shard; empty while serving.
  std::vector<std::unique_ptr<GaussTree>> trees_;
  // Build-phase inserts waiting for Finalize(), per shard, in insertion
  // order; before the trees are built every insert waits in pending_[0],
  // unrouted. Each shard's objects fill fixed-capacity DeltaTree chunks,
  // so an append never moves an object and every chunk reads as one
  // GaussTree::SoaRun.
  std::vector<std::vector<std::unique_ptr<DeltaTree>>> pending_;
  // Built sharded databases: each shard's root entry grown by its held
  // objects, what inserts are routed against; empty until the first routed
  // insert after a load.
  std::vector<GtChildEntry> routes_;

  bool sharded_ = false;
  bool per_shard_devices_ = false;
  std::string directory_;  // CreateOnDirectory/OpenDirectory root
  size_t num_shards_ = 1;
  std::vector<PageId> shard_metas_;  // per-shard header page ids

  size_t dim_ = 0;
  size_t size_ = 0;  // cached once trees_ are torn down

  // Live serving engine, built by the first Serve() call with
  // options_.ingest.enabled and shared with every Session (static engines
  // belong to their Sessions alone). Declared last: its destructor joins the
  // merge thread and drains the current epoch's coordinator before the
  // devices it reads from go away.
  std::shared_ptr<ServingEngine> live_;
};

// Success-or-typed-error result of OpenFile()/OpenDirectory(). Callers that
// can degrade check ok() and read error(); callers that cannot (tests,
// one-shot tools) call value(), which keeps the old fail-loudly behavior —
// it aborts with the error message when the open was rejected.
class OpenResult {
 public:
  /*implicit*/ OpenResult(GaussDb db) : db_(std::move(db)) {}
  /*implicit*/ OpenResult(OpenError error) : error_(std::move(error)) {}

  bool ok() const { return db_.has_value(); }
  explicit operator bool() const { return ok(); }

  // The typed rejection; only meaningful when !ok().
  const OpenError& error() const {
    GAUSS_CHECK_MSG(!ok(), "OpenResult::error() on a successful open");
    return error_;
  }

  // Moves the opened database out; aborts with the error message if the
  // open was rejected.
  GaussDb value() && {
    GAUSS_CHECK_MSG(ok(), error_.message.c_str());
    GaussDb db = std::move(*db_);
    db_.reset();
    return db;
  }

  GaussDb& operator*() {
    GAUSS_CHECK_MSG(ok(), error_.message.c_str());
    return *db_;
  }
  GaussDb* operator->() { return &**this; }

 private:
  std::optional<GaussDb> db_;
  OpenError error_;
};

}  // namespace gauss

#endif  // GAUSS_API_GAUSS_DB_H_
