#ifndef TUFAST_SYNC_DEADLOCK_GRAPH_H_
#define TUFAST_SYNC_DEADLOCK_GRAPH_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/compiler.h"
#include "common/types.h"
#include "htm/htm_config.h"

namespace tufast {

/// Waits-for graph for L-mode (blocking 2PL) transactions, paper §IV-E.
///
/// Participants are worker slots (the same ids as HTM transaction slots).
/// Only L-mode transactions register: H and O mode use try-locks and never
/// wait, so they cannot be part of a hold-and-wait cycle — exactly the
/// observation the paper uses to restrict detection to L mode. Since
/// L-mode transactions are the rare huge-degree vertices, a single mutex
/// over the whole structure is cheap and keeps detection trivially
/// consistent.
///
/// Deadlock resolution: the thread whose new wait edge closes a cycle
/// aborts itself (SetWaitingAndCheck returns true). Every cycle is closed
/// by some waiter's edge insertion, so every deadlock is detected by the
/// thread that completes it. The one exception is a closer allowed to
/// out-wait the cycle: it keeps its edge, and the other parties find the
/// cycle when they re-check their own edges (RecheckWaiting) and abort.
///
/// Slot ids are range-checked (TUFAST_CHECK) at every entry point: they
/// index fixed kMaxHtmThreads arrays and are narrowed to int16_t, so an
/// out-of-range id would corrupt another worker's wait state instead of
/// failing loudly.
class DeadlockGraph {
 public:
  DeadlockGraph() = default;
  TUFAST_DISALLOW_COPY_AND_MOVE(DeadlockGraph);

  /// Records that `slot` now holds `v` (exclusive or shared).
  void AddHolder(VertexId v, int slot, bool exclusive);

  /// Removes one holder registration of `slot` on `v`.
  void RemoveHolder(VertexId v, int slot, bool exclusive);

  /// Declares that `slot` is about to block waiting for `v` and checks
  /// for a waits-for cycle through `slot`. Returns true when waiting
  /// would deadlock — the caller must NOT wait and should abort; the
  /// wait registration is rolled back internally in that case. With
  /// `keep_on_cycle` (a caller that may out-wait cycles) the edge stays
  /// registered and false is returned even when it closes a cycle.
  bool SetWaitingAndCheck(int slot, VertexId v, bool keep_on_cycle = false);

  /// Re-checks the registered wait edge of `slot` for a cycle through it.
  /// On a cycle the edge is withdrawn and true is returned: the caller
  /// must stop waiting and abort, which breaks the cycle.
  bool RecheckWaiting(int slot);

  /// Clears `slot`'s waiting edge after the lock was acquired.
  void ClearWaiting(int slot);

  /// Number of registered holder entries (for tests).
  size_t HolderEntriesForTest() const;

 private:
  struct Holder {
    int16_t slot;
    bool exclusive;
  };

  bool HasCycleFromLocked(int origin) const;

  mutable std::mutex mutex_;
  std::unordered_map<VertexId, std::vector<Holder>> holders_;
  VertexId waiting_[kMaxHtmThreads] = {};
  bool is_waiting_[kMaxHtmThreads] = {};
};

}  // namespace tufast

#endif  // TUFAST_SYNC_DEADLOCK_GRAPH_H_
