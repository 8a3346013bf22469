#ifndef TUFAST_GRAPH_DYNAMIC_DYNAMIC_GRAPH_H_
#define TUFAST_GRAPH_DYNAMIC_DYNAMIC_GRAPH_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/compiler.h"
#include "common/spin.h"
#include "common/types.h"
#include "graph/builder.h"
#include "graph/dynamic/edge_update.h"
#include "graph/graph.h"
#include "htm/htm_config.h"
#include "tm/batch_executor.h"
#include "tm/outcome.h"

namespace tufast {

/// One vertex's adjacency as observed by a single committed transaction:
/// the degree counter and every live slot, read atomically together.
struct VertexSnapshot {
  TmWord degree = 0;
  std::vector<std::pair<VertexId, uint32_t>> edges;
};

/// Mutable, concurrently-updatable directed graph whose every structural
/// mutation is one TuFast transaction (DESIGN.md "Dynamic-graph
/// subsystem").
///
/// Layout: per-vertex unrolled adjacency lists. Each block is exactly one
/// cache line — a `next` link word plus kSlotsPerBlock edge slots — so a
/// low-degree insert/delete touches O(1) lines and fits H mode. Slots
/// pack (target, weight) into one TmWord; deletes tombstone the slot in
/// place and later inserts reuse tombstones. Blocks live in a chunked
/// arena addressed by index (never by raw pointer), are never freed or
/// recycled while transactions run, and `next` words are write-once
/// (0 -> index), so a concurrent traversal can never follow a dangling or
/// cyclic chain even from a doomed optimistic read.
///
/// Concurrency contract: all words of vertex u (head, degree, every slot
/// of its chain) are guarded by u's lock in the shared per-vertex
/// LockTable, i.e. every transactional access passes `u` as the lock
/// vertex. A mutation therefore locks exactly one vertex, declares write
/// intent up front (ReadForUpdate), and can never deadlock: no
/// shared->exclusive upgrade, no second lock. Read-only snapshots take
/// shared mode only.
///
/// The live degree counter doubles as the `size_hint` source for
/// TuFast::Run() (SizeHintFor): low-degree vertices route to H, hubs to
/// O/L, exactly the paper's §IV degree heuristic applied to writes.
///
/// Quiesced-only operations (Freeze, LoadCsrQuiesced, CompactQuiesced,
/// TotalLiveEdges, CheckInvariantsQuiesced) require that no transaction
/// is in flight; they scan or rebuild without instrumentation.
class DynamicGraph {
 public:
  static constexpr int kSlotsPerBlock = 7;

  struct Options {
    /// Weighted graphs store and Freeze() per-edge weights; unweighted
    /// ones ignore the weight operand everywhere.
    bool weighted = false;
  };

  explicit DynamicGraph(VertexId capacity)
      : DynamicGraph(capacity, Options{}) {}
  DynamicGraph(VertexId capacity, Options options);
  ~DynamicGraph();
  TUFAST_DISALLOW_COPY_AND_MOVE(DynamicGraph);

  /// Builds a dynamic store pre-loaded from an immutable CSR (quiesced
  /// bulk load, no transactions). Duplicate (u, v) edges in the source
  /// collapse to one slot keeping the first weight; capacity is
  /// `g.NumVertices() + extra_capacity` to leave room for AddVertex.
  static std::unique_ptr<DynamicGraph> FromCsr(const Graph& g,
                                               VertexId extra_capacity = 0);

  VertexId capacity() const { return capacity_; }
  VertexId NumVertices() const {
    return num_vertices_.load(std::memory_order_acquire);
  }
  bool HasWeights() const { return weighted_; }

  /// Racy (relaxed) live degree — the Run() size-hint source. Exact only
  /// when quiesced.
  uint32_t ApproxDegree(VertexId v) const {
    return static_cast<uint32_t>(
        __atomic_load_n(&degree_[v], __ATOMIC_RELAXED));
  }

  /// Degree-derived transaction size hint: a mutation scans every slot of
  /// the chain (live + tombstones) plus the link/degree words, so the
  /// live degree is the cheap lower bound that routes hub-vertex
  /// mutations out of H mode (paper §IV degree heuristic).
  uint64_t SizeHintFor(VertexId v) const {
    return uint64_t{ApproxDegree(v)} + kSlotsPerBlock + 2;
  }

  /// Sum of all degree counters. Exact when quiesced; racy otherwise.
  uint64_t TotalLiveEdges() const;

  /// Arena introspection (tests: tombstone reuse, compaction).
  uint64_t AllocatedBlocks() const {
    return allocated_blocks_.load(std::memory_order_acquire);
  }
  uint64_t FreeListBlocks() const;

  // -------------------------------------------------------------------
  // Transactional mutation API. Every call is one (or, for ApplyBatch,
  // one per source-vertex group) scheduler transaction; `worker` is the
  // caller's worker slot, `tm` any scheduler with the Run(worker, hint,
  // body) shape (TuFast or any baseline).

  /// Inserts edge (u, v). Returns true if the edge is new; if it already
  /// exists this is an upsert (weight rewritten on weighted graphs) and
  /// returns false.
  template <typename Scheduler>
  bool InsertEdge(Scheduler& tm, int worker, VertexId u, VertexId v,
                  uint32_t weight = 0) {
    const EdgeUpdate up = EdgeUpdate::Insert(u, v, weight);
    ApplyResult result;
    ApplyGroup(tm, worker, u, {&up, 1}, &result);
    return result.inserted == 1;
  }

  /// Deletes edge (u, v). Returns true if it was present.
  template <typename Scheduler>
  bool DeleteEdge(Scheduler& tm, int worker, VertexId u, VertexId v) {
    const EdgeUpdate up = EdgeUpdate::Delete(u, v);
    ApplyResult result;
    ApplyGroup(tm, worker, u, {&up, 1}, &result);
    return result.removed == 1;
  }

  /// Rewrites the weight of an existing edge; never inserts. Returns true
  /// if the edge was present.
  template <typename Scheduler>
  bool UpdateWeight(Scheduler& tm, int worker, VertexId u, VertexId v,
                    uint32_t weight) {
    const EdgeUpdate up = EdgeUpdate::Reweight(u, v, weight);
    ApplyResult result;
    ApplyGroup(tm, worker, u, {&up, 1}, &result);
    return result.updated == 1;
  }

  /// Appends a fresh vertex (empty adjacency) and returns its id. The id
  /// is claimed atomically; the transaction formalizes the (already
  /// zeroed) per-vertex words so the new vertex is born under TM
  /// visibility rules.
  template <typename Scheduler>
  VertexId AddVertex(Scheduler& tm, int worker) {
    const VertexId id = num_vertices_.fetch_add(1, std::memory_order_acq_rel);
    TUFAST_CHECK(id < capacity_);
    tm.Run(worker, 2, [&](auto& txn) {
      txn.Write(id, &heads_[id], 0);
      txn.Write(id, &degree_[id], 0);
    });
    return id;
  }

  /// Applies a batch of mixed updates, grouping them by source vertex so
  /// each group is ONE transaction (amortizing Run() overhead and lock
  /// traffic across a vertex's updates). Groups preserve the relative
  /// order of a vertex's updates; cross-vertex order is not preserved
  /// (each group commits independently). Groups run through the batch
  /// executor (tm/batch_executor.h), so on TuFast several small groups
  /// fuse into one H-mode region; per-group private state (spares,
  /// tallies) keeps each group independently idempotent as the fused
  /// contract requires.
  template <typename Scheduler>
  ApplyResult ApplyBatch(Scheduler& tm, int worker,
                         std::span<const EdgeUpdate> updates) {
    ApplyResult result;
    if (updates.empty()) return result;
    // Stable order-by-source: indices, not copies, to keep per-vertex
    // update order intact.
    std::vector<uint32_t> order(updates.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return updates[a].src < updates[b].src;
                     });
    struct GroupCtx {
      VertexId u = 0;
      std::vector<EdgeUpdate> updates;
      std::vector<uint64_t> spares;
      size_t spares_used = 0;
      ApplyResult local;
    };
    std::vector<GroupCtx> groups;
    size_t i = 0;
    while (i < order.size()) {
      GroupCtx& ctx = groups.emplace_back();
      ctx.u = updates[order[i]].src;
      size_t inserts = 0;
      for (; i < order.size() && updates[order[i]].src == ctx.u; ++i) {
        ctx.updates.push_back(updates[order[i]]);
        if (ctx.updates.back().op == EdgeUpdate::Op::kInsert) ++inserts;
      }
      // Spares are pre-allocated outside the transactions (allocation
      // inside a hardware region would abort real HTM).
      if (inserts > 0) {
        GrabSpares((inserts + kSlotsPerBlock - 1) / kSlotsPerBlock,
                   &ctx.spares);
      }
    }
    RunBatch(
        tm, worker, 0, groups.size(),
        [&](uint64_t g) {
          return SizeHintFor(groups[g].u) + 2 * groups[g].updates.size();
        },
        [&](auto& txn, uint64_t g) {
          GroupCtx& ctx = groups[g];
          ctx.local = ApplyResult{};  // Reset private state: re-executes.
          ctx.spares_used = 0;
          for (const EdgeUpdate& up : ctx.updates) {
            ApplyOneInTxn(txn, ctx.u, up, ctx.spares, &ctx.spares_used,
                          &ctx.local);
          }
        });
    // RunBatch only returns after every group committed (no user aborts
    // here), so the private tallies reflect the committed executions.
    for (GroupCtx& ctx : groups) {
      ReturnSpares(
          std::span<const uint64_t>(ctx.spares).subspan(ctx.spares_used));
      result.Merge(ctx.local);
    }
    return result;
  }

  /// Walks vertex u's adjacency chain inside an already-open transaction
  /// (or MVCC snapshot) context, invoking `visit(target, weight)` for
  /// every live slot. Returns false iff the walk was cut short — the
  /// chain outran `bound` or a link pointed at an unpublished block.
  /// On a consistent read that means the bound itself was stale (the
  /// arena grew since it was computed), never a real cycle: links are
  /// write-once and blocks are not recycled while transactions run. On a
  /// doomed optimistic read the dangling values are garbage and commit
  /// will fail anyway.
  template <typename Txn, typename Visitor>
  bool VisitAdjacencyInTxn(Txn& txn, VertexId u, uint64_t bound,
                           Visitor&& visit) const {
    TmWord link = txn.Read(u, &heads_[u]);
    uint64_t steps = 0;
    while (link != 0) {
      if (steps++ >= bound) return false;
      const Block* b = BlockAt(link - 1);
      if (b == nullptr) return false;
      for (int s = 0; s < kSlotsPerBlock; ++s) {
        const TmWord sw = txn.Read(u, &b->slots[s]);
        if (SlotLive(sw)) visit(SlotTarget(sw), SlotWeight(sw));
      }
      link = txn.Read(u, &b->next);
    }
    return true;
  }

  /// Reads one vertex's degree counter and live adjacency in a single
  /// transaction (shared mode only — never blocks writers into upgrade
  /// deadlocks). The committed snapshot is per-vertex atomic: the stress
  /// suite checks `out->degree == out->edges.size()` and target
  /// uniqueness against it.
  ///
  /// A truncated walk must never surface as success: if the transaction
  /// COMMITTED but the chain outran the traversal bound, the reads were
  /// provably consistent (validation passed), so the bound was stale —
  /// the walk is retried with a widened bound instead of silently
  /// returning partial edges. Doomed-read garbage never reaches the
  /// caller because those transactions fail validation and re-execute.
  template <typename Scheduler>
  RunOutcome ReadVertexSnapshot(Scheduler& tm, int worker, VertexId u,
                                VertexSnapshot* out) const {
    uint64_t slack = 0;
    for (int attempt = 0;; ++attempt) {
      bool complete = false;
      RunOutcome rc = tm.Run(worker, SizeHintFor(u), [&](auto& txn) {
        out->edges.clear();
        out->degree = txn.Read(u, &degree_[u]);
        complete = VisitAdjacencyInTxn(
            txn, u, TraversalBound() + slack, [&](VertexId t, uint32_t w) {
              out->edges.emplace_back(t, w);
            });
      });
      if (!rc.committed || complete) return rc;
      // A consistent chain is never longer than the arena, so a fresh
      // bound + doubling slack must terminate; the cap is a backstop.
      TUFAST_CHECK(attempt < 64);
      slack = slack == 0 ? TraversalBound() : slack * 2;
    }
  }

  /// Read-only variant running under Scheduler::RunReadOnly: with MVCC
  /// enabled it resolves every word against one commit-timestamp
  /// snapshot and can never abort; without MVCC it degrades to
  /// ReadVertexSnapshot semantics through an ordinary transaction.
  template <typename Scheduler>
  RunOutcome ReadVertexSnapshotRO(Scheduler& tm, int worker, VertexId u,
                                  VertexSnapshot* out) const {
    uint64_t slack = 0;
    for (int attempt = 0;; ++attempt) {
      bool complete = false;
      RunOutcome rc = tm.RunReadOnly(worker, SizeHintFor(u), [&](auto& txn) {
        out->edges.clear();
        out->degree = txn.Read(u, &degree_[u]);
        complete = VisitAdjacencyInTxn(
            txn, u, TraversalBound() + slack, [&](VertexId t, uint32_t w) {
              out->edges.emplace_back(t, w);
            });
      });
      if (!rc.committed || complete) return rc;
      TUFAST_CHECK(attempt < 64);
      slack = slack == 0 ? TraversalBound() : slack * 2;
    }
  }

  /// Transactionally frozen CSR: one read-only transaction scans every
  /// vertex, so with MVCC enabled this is a globally consistent cut of a
  /// LIVE graph (writers keep committing; the snapshot can never abort
  /// them or be aborted). Without MVCC the scan is one giant transaction
  /// — correct, but it serializes against every writer; prefer quiescing
  /// + Freeze() there. Neighbors come out sorted like Freeze().
  template <typename Scheduler>
  Graph FreezeSnapshotRO(Scheduler& tm, int worker) const {
    const VertexId n = NumVertices();
    std::vector<std::vector<std::pair<VertexId, uint32_t>>> adj;
    const uint64_t hint = TotalLiveEdges() + 2 * uint64_t{n} + 2;
    uint64_t slack = 0;
    for (int attempt = 0;; ++attempt) {
      bool complete = true;
      RunOutcome rc = tm.RunReadOnly(worker, hint, [&](auto& txn) {
        adj.assign(n, {});
        complete = true;
        const uint64_t bound = TraversalBound() + slack;
        for (VertexId u = 0; u < n && complete; ++u) {
          complete = VisitAdjacencyInTxn(
              txn, u, bound, [&](VertexId t, uint32_t w) {
                adj[u].emplace_back(t, w);
              });
        }
      });
      if (rc.committed && complete) break;
      TUFAST_CHECK(attempt < 64);
      if (rc.committed) slack = slack == 0 ? TraversalBound() : slack * 2;
    }
    GraphBuilder builder(n);
    for (VertexId u = 0; u < n; ++u) {
      for (const auto& [target, weight] : adj[u]) {
        if (weighted_) {
          builder.AddEdge(u, target, weight);
        } else {
          builder.AddEdge(u, target);
        }
      }
    }
    return builder.Build({.remove_self_loops = false,
                          .remove_duplicate_edges = false,
                          .sort_neighbors = true});
  }

  // -------------------------------------------------------------------
  // Quiesced operations (no transactions may be in flight).

  /// Immutable CSR snapshot: the existing algorithm suite and engines run
  /// on it unchanged. Neighbors come out sorted by target; weights are
  /// emitted iff the graph is weighted.
  Graph Freeze() const;

  /// Bulk-replaces the contents from a CSR (see FromCsr).
  void LoadCsrQuiesced(const Graph& g);

  /// Rebuilds every adjacency chain without tombstones or slack blocks
  /// and resets the arena — the reclamation pass for delete-heavy
  /// streams. Degrees and the frozen view are unchanged.
  void CompactQuiesced();

  /// Structural audit: degree counters match live-slot counts, no
  /// duplicate targets, chains are in-range and acyclic. Returns a
  /// violation description, or nullopt when consistent.
  std::optional<std::string> CheckInvariantsQuiesced() const;

  /// Applies one update without any transaction machinery (quiesced
  /// bulk path): WAL recovery replays committed records through this so
  /// the rebuild neither takes locks nor re-logs.
  void ApplyQuiescedUpdate(const EdgeUpdate& up, ApplyResult* res = nullptr);

  /// Grows the live-vertex count to at least `n` (quiesced), formalizing
  /// the zeroed per-vertex words like AddVertex does transactionally.
  void EnsureVerticesQuiesced(VertexId n);

 private:
  /// One cache line: a link word (block index + 1, 0 = end of chain)
  /// followed by kSlotsPerBlock edge slots.
  struct alignas(kCacheLineBytes) Block {
    TmWord next;
    TmWord slots[kSlotsPerBlock];
  };
  static_assert(sizeof(Block) == kCacheLineBytes);

  static constexpr uint64_t kBlocksPerChunk = 4096;
  static constexpr uint64_t kMaxChunks = 16384;

  // Slot encoding: 0 = never used, low-32 all-ones = tombstone, else
  // low 32 bits = target + 1 and high 32 bits = weight. Capacity is
  // checked at construction so target + 1 never collides with the
  // tombstone pattern.
  static constexpr TmWord kTombstoneSlot = 0xFFFFFFFFull;
  static TmWord EncodeSlot(VertexId target, uint32_t weight) {
    return (TmWord{weight} << 32) | (TmWord{target} + 1);
  }
  static bool SlotLive(TmWord sw) {
    const uint32_t low = static_cast<uint32_t>(sw);
    return low != 0 && low != 0xFFFFFFFFu;
  }
  static VertexId SlotTarget(TmWord sw) {
    return static_cast<VertexId>(static_cast<uint32_t>(sw) - 1);
  }
  static uint32_t SlotWeight(TmWord sw) {
    return static_cast<uint32_t>(sw >> 32);
  }

  Block* BlockAt(uint64_t idx) {
    if (TUFAST_UNLIKELY(idx >= kMaxChunks * kBlocksPerChunk)) return nullptr;
    Block* chunk =
        chunks_[idx / kBlocksPerChunk].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : chunk + idx % kBlocksPerChunk;
  }
  const Block* BlockAt(uint64_t idx) const {
    return const_cast<DynamicGraph*>(this)->BlockAt(idx);
  }

 public:
  /// Upper bound on any consistent chain length, used to cut short
  /// traversals running on doomed (to-be-aborted) optimistic reads.
  /// Public so external chain walkers (VisitAdjacencyInTxn callers) can
  /// compute the bound themselves.
  uint64_t TraversalBound() const {
    const uint64_t forced =
        forced_traversal_bound_.load(std::memory_order_relaxed);
    if (TUFAST_UNLIKELY(forced != 0)) return forced;
    return allocated_blocks_.load(std::memory_order_acquire) + 2;
  }

 public:
  /// Test seam: forces TraversalBound() to `bound` (0 restores the real
  /// arena-derived bound). Lets the regression suite exercise the
  /// chain-outruns-bound path, which a fresh bound can otherwise never
  /// hit on a consistent read.
  void SetTraversalBoundForTest(uint64_t bound) {
    forced_traversal_bound_.store(bound, std::memory_order_relaxed);
  }

 private:

  /// Pops from the free list or bump-allocates (growing the arena by one
  /// zeroed chunk when crossed). Returned blocks are always all-zero.
  uint64_t AllocateBlock();
  void GrabSpares(size_t count, std::vector<uint64_t>* out);
  void ReturnSpares(std::span<const uint64_t> spares);

  /// Non-transactional chain writer for bulk load / compaction. `edges`
  /// must be duplicate-free.
  void WriteChainQuiesced(VertexId u,
                          std::span<const std::pair<VertexId, uint32_t>> edges);
  void ResetArenaQuiesced();
  void CollectLiveQuiesced(
      VertexId u, std::vector<std::pair<VertexId, uint32_t>>* out) const;

  /// One source-vertex group as a single transaction. Spare blocks for
  /// the worst-case insert count are pre-allocated outside the
  /// transaction (allocation inside a hardware transaction would abort
  /// real HTM); the body consumes them in order and is idempotent across
  /// re-executions, and unconsumed spares return to the free list still
  /// zeroed because every scheduler buffers writes until commit.
  template <typename Scheduler>
  void ApplyGroup(Scheduler& tm, int worker, VertexId u,
                  std::span<const EdgeUpdate> group, ApplyResult* result) {
    TUFAST_DCHECK(u < NumVertices());
    size_t inserts = 0;
    for (const EdgeUpdate& up : group) {
      TUFAST_DCHECK(up.src == u);
      TUFAST_DCHECK(up.dst < capacity_);
      if (up.op == EdgeUpdate::Op::kInsert) ++inserts;
    }
    std::vector<uint64_t> spares;
    if (inserts > 0) {
      GrabSpares((inserts + kSlotsPerBlock - 1) / kSlotsPerBlock, &spares);
    }

    ApplyResult local;
    size_t spares_used = 0;
    const uint64_t hint = SizeHintFor(u) + 2 * group.size();
    tm.Run(worker, hint, [&](auto& txn) {
      local = ApplyResult{};  // Reset private state: bodies re-execute.
      spares_used = 0;
      for (const EdgeUpdate& up : group) {
        ApplyOneInTxn(txn, u, up, spares, &spares_used, &local);
      }
    });
    // Run() only returns after a commit (no user aborts here), so the
    // private tallies reflect the committed execution.
    ReturnSpares(std::span<const uint64_t>(spares).subspan(spares_used));
    result->Merge(local);
  }

  template <typename Txn>
  void ApplyOneInTxn(Txn& txn, VertexId u, const EdgeUpdate& up,
                     std::span<const uint64_t> spares, size_t* spares_used,
                     ApplyResult* res) {
    // Durable builds: stage the logical mutation for the WAL. Staging is
    // idempotent across re-executions — aborted attempts clear the stage
    // (Reset / on_begin hook) before the body re-runs, so exactly the
    // committed execution's notes publish. Recovery's replay shim has no
    // WalNote, so replayed updates are not re-logged.
    if constexpr (requires { txn.WalNote(up); }) txn.WalNote(up);
    // Full-chain scan: the first matching slot decides presence; the
    // first dead slot is remembered for tombstone reuse; `link_addr`
    // ends at the tail's link word for appending a spare block. All
    // reads declare write intent so L mode takes the exclusive lock
    // immediately (no shared->exclusive upgrade can deadlock).
    TmWord* link_addr = &heads_[u];
    TmWord link = txn.ReadForUpdate(u, link_addr);
    TmWord* found_slot = nullptr;
    TmWord found_word = 0;
    TmWord* free_slot = nullptr;
    uint64_t steps = 0;
    const uint64_t bound = TraversalBound();
    while (link != 0 && found_slot == nullptr && steps++ < bound) {
      Block* b = BlockAt(link - 1);
      if (b == nullptr) break;  // Doomed-read garbage; commit will fail.
      for (int s = 0; s < kSlotsPerBlock; ++s) {
        const TmWord sw = txn.ReadForUpdate(u, &b->slots[s]);
        if (SlotLive(sw)) {
          if (SlotTarget(sw) == up.dst) {
            found_slot = &b->slots[s];
            found_word = sw;
            break;
          }
        } else if (free_slot == nullptr) {
          free_slot = &b->slots[s];
        }
      }
      if (found_slot != nullptr) break;
      link_addr = &b->next;
      link = txn.ReadForUpdate(u, link_addr);
    }

    switch (up.op) {
      case EdgeUpdate::Op::kInsert: {
        if (found_slot != nullptr) {  // Upsert.
          if (weighted_ && SlotWeight(found_word) != up.weight) {
            txn.Write(u, found_slot, EncodeSlot(up.dst, up.weight));
          }
          ++res->updated;
          return;
        }
        const TmWord word = EncodeSlot(up.dst, weighted_ ? up.weight : 0);
        if (free_slot != nullptr) {
          txn.Write(u, free_slot, word);
        } else {
          TUFAST_CHECK(*spares_used < spares.size());
          const uint64_t idx = spares[(*spares_used)++];
          Block* nb = BlockAt(idx);
          txn.Write(u, &nb->slots[0], word);
          txn.Write(u, link_addr, idx + 1);  // Publish: 0 -> index + 1.
        }
        const TmWord d = txn.ReadForUpdate(u, &degree_[u]);
        txn.Write(u, &degree_[u], d + 1);
        ++res->inserted;
        return;
      }
      case EdgeUpdate::Op::kDelete: {
        if (found_slot == nullptr) {
          ++res->missing;
          return;
        }
        txn.Write(u, found_slot, kTombstoneSlot);
        const TmWord d = txn.ReadForUpdate(u, &degree_[u]);
        txn.Write(u, &degree_[u], d - 1);
        ++res->removed;
        return;
      }
      case EdgeUpdate::Op::kUpdateWeight: {
        if (found_slot == nullptr) {
          ++res->missing;
          return;
        }
        if (weighted_ && SlotWeight(found_word) != up.weight) {
          txn.Write(u, found_slot, EncodeSlot(up.dst, up.weight));
        }
        ++res->updated;
        return;
      }
    }
  }

  const VertexId capacity_;
  const bool weighted_;
  std::atomic<VertexId> num_vertices_{0};

  /// Per-vertex chain head (block index + 1, 0 = empty) and live degree,
  /// both guarded by the vertex's lock.
  std::vector<TmWord> heads_;
  std::vector<TmWord> degree_;

  /// Chunked block arena: stable addresses, lock-free reads, growth
  /// under alloc_lock_. Blocks are recycled only through the free list
  /// (always zeroed) or a quiesced arena reset.
  std::unique_ptr<std::atomic<Block*>[]> chunks_;
  std::atomic<uint64_t> allocated_blocks_{0};
  std::atomic<uint64_t> forced_traversal_bound_{0};  // Test seam; 0 = off.
  mutable SpinLock alloc_lock_;  // Guards free_blocks_ + chunk growth.
  std::vector<uint64_t> free_blocks_;
};

}  // namespace tufast

#endif  // TUFAST_GRAPH_DYNAMIC_DYNAMIC_GRAPH_H_
