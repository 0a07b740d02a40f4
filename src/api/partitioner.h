#ifndef GAUSS_API_PARTITIONER_H_
#define GAUSS_API_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gausstree/gauss_tree.h"
#include "pfv/pfv.h"

namespace gauss {

// The shard cut of a sharded GaussDb.
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
// smaller than one leaf has no band to avoid).
//
// The cut is an index cut: a part is a list of dataset positions, and each
// list is ascending. Build hands each shard tree the caller's dataset and
// its part (GaussTree::BulkLoad over positions), so a sharded build copies
// no pfv. Inserts and live-ingest deltas then go to the shard ChooseSubtree
// (gausstree/gauss_tree.h) picks among the shards' root entries.

// The spatial cut of `dataset` into `num_shards` >= 1 parts (see above), for
// trees of `leaf_capacity` objects per leaf: part s lists the positions of
// shard s's objects, ascending. The parts are disjoint and cover [0, n).
// Deterministic: a pure function of the dataset and its arguments.
std::vector<std::vector<uint32_t>> SplitSpatial(const PfvDataset& dataset,
                                                size_t num_shards,
                                                size_t leaf_capacity);
// The same cut of the objects of `runs` (GaussTree::SoaRun), counted over
// the runs in order: the parts of a dataset holding those objects in that
// order (GaussDb's Finalize() cuts the build-phase inserts with it).
std::vector<std::vector<uint32_t>> SplitSpatial(
    const std::vector<GaussTree::SoaRun>& runs, size_t dim, size_t num_shards,
    size_t leaf_capacity);

}  // namespace gauss

#endif  // GAUSS_API_PARTITIONER_H_
