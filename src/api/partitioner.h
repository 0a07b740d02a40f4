#ifndef GAUSS_API_PARTITIONER_H_
#define GAUSS_API_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "gausstree/gauss_tree.h"
#include "gausstree/node.h"
#include "pfv/pfv.h"

namespace gauss {

// How a sharded GaussDb assigns objects to shards. Part of the database's
// persistent identity: the page-0 manifest and the directory MANIFEST both
// record it, so a reopened database keeps routing the way it was built.
enum class PartitionKind : uint32_t {
  // Images written before spatial partitioning: SplitMix64 of the id,
  // optionally seeded. Read and routed, never written by a new Build().
  kHash = 0,
  // Every new Build(): shards are regions of the feature space.
  kSpatial = 1,
};

// Shard router of a sharded GaussDb.
//
// Why space, not hash. An identification query must consult every shard —
// the Bayes denominator spans the whole gallery (service/shard_coordinator.h)
// — but a shard whose region lies far from the query can stop at its root
// once some other shard has shown k objects denser than anything the far
// shard could hold. Hash shards never can: each holds a random 1/N of every
// cluster, so each must dig as deep as one tree would. Spatial shards let
// the coordinator run the most promising shard first and ship its real
// answer as a pruning floor to the others (the seeded Start), which is what
// keeps pages/query near one tree's and flat in the shard count.
//
// The cut (Build). A recursive split at the median of the widest mu axis of
// the part being cut; ties go to the lowest axis, then the lower id, then the
// earlier dataset position. At a cut of n objects into p parts the left side
// takes l = floor(p/2) parts and m = floor(n*l/p) objects, snapped to a full
// leaf block: with C the leaf capacity, s = m/l and B the largest C*2^j <= s,
// m becomes l*B when s <= B*(C+1)/C. The bulk loader halves a range until it
// fits one leaf, so a subtree of between C*2^j and (C+1)*2^j objects pays
// one extra leaf per object above C*2^j — a 25,000-object shard takes 1005
// nodes, a 24,576-object one 547. There is no snap when s < C (a part
// smaller than one leaf has no band to avoid). Each part keeps dataset
// order.
//
// Routing (Insert and live-ingest deltas). The paper's Section 5.3 insertion
// rule applied above the shard trees, to their root entries (ChooseSubtree in
// gausstree/gauss_tree.h): a containing root MBR with the smallest cost, else
// the least cost growth, ties to the lowest shard index. Hash images keep
// routing by the id hash with their persisted seed, exactly as when they were
// built.
class Partitioner {
 public:
  // The router of every new build.
  static Partitioner Spatial(size_t num_shards) {
    return Partitioner(num_shards, PartitionKind::kSpatial, 0);
  }
  // The router of a hash image, with its persisted seed.
  static Partitioner Hash(size_t num_shards, uint64_t seed) {
    return Partitioner(num_shards, PartitionKind::kHash, seed);
  }

  size_t num_shards() const { return num_shards_; }
  PartitionKind kind() const { return kind_; }
  uint64_t hash_seed() const { return seed_; }

  // True when Route() reads the shards' root entries (a spatial database of
  // more than one shard); callers may skip collecting them otherwise.
  bool routes_by_bounds() const {
    return kind_ == PartitionKind::kSpatial && num_shards_ > 1;
  }

  // Shard of `pfv`. `roots[s]` is shard s's root entry
  // (GaussTree::RootEntry); it is read only when routes_by_bounds().
  size_t Route(const Pfv& pfv, const std::vector<GtChildEntry>& roots,
               const GaussTreeOptions& options) const {
    if (num_shards_ == 1) return 0;
    if (kind_ == PartitionKind::kHash) {
      return static_cast<size_t>(Mix(pfv.id ^ seed_) % num_shards_);
    }
    GAUSS_CHECK(roots.size() == num_shards_);
    return ChooseSubtree(roots, pfv, options);
  }

  // The spatial cut of `dataset` into num_shards() parts (see above), for
  // trees of `leaf_capacity` objects per leaf. Deterministic: a pure
  // function of the dataset and its arguments.
  std::vector<PfvDataset> SplitSpatial(const PfvDataset& dataset,
                                       size_t leaf_capacity) const;

 private:
  Partitioner(size_t num_shards, PartitionKind kind, uint64_t seed)
      : num_shards_(num_shards), kind_(kind), seed_(seed) {
    GAUSS_CHECK_MSG(num_shards_ > 0, "Partitioner needs >= 1 shard");
  }

  // SplitMix64 finalizer (public-domain constants, Steele et al.).
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  size_t num_shards_;
  PartitionKind kind_;
  uint64_t seed_;
};

}  // namespace gauss

#endif  // GAUSS_API_PARTITIONER_H_
