#include "sync/deadlock_graph.h"

#include <algorithm>

namespace tufast {

void DeadlockGraph::AddHolder(VertexId v, int slot, bool exclusive) {
  // Validate before the int16_t narrowing below and before this slot id
  // can reach the fixed-size waiting_/is_waiting_ arrays: an out-of-range
  // slot would silently alias another worker's wait state and corrupt
  // cycle detection.
  TUFAST_CHECK(slot >= 0 && slot < kMaxHtmThreads);
  std::lock_guard<std::mutex> guard(mutex_);
  holders_[v].push_back(Holder{static_cast<int16_t>(slot), exclusive});
}

void DeadlockGraph::RemoveHolder(VertexId v, int slot, bool exclusive) {
  TUFAST_CHECK(slot >= 0 && slot < kMaxHtmThreads);
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = holders_.find(v);
  if (it == holders_.end()) return;
  auto& vec = it->second;
  for (size_t i = 0; i < vec.size(); ++i) {
    if (vec[i].slot == slot && vec[i].exclusive == exclusive) {
      vec[i] = vec.back();
      vec.pop_back();
      break;
    }
  }
  if (vec.empty()) holders_.erase(it);
}

bool DeadlockGraph::SetWaitingAndCheck(int slot, VertexId v,
                                       bool keep_on_cycle) {
  TUFAST_CHECK(slot >= 0 && slot < kMaxHtmThreads);
  std::lock_guard<std::mutex> guard(mutex_);
  waiting_[slot] = v;
  is_waiting_[slot] = true;
  if (!keep_on_cycle && HasCycleFromLocked(slot)) {
    is_waiting_[slot] = false;
    return true;
  }
  return false;
}

bool DeadlockGraph::RecheckWaiting(int slot) {
  TUFAST_CHECK(slot >= 0 && slot < kMaxHtmThreads);
  std::lock_guard<std::mutex> guard(mutex_);
  if (!is_waiting_[slot] || !HasCycleFromLocked(slot)) return false;
  is_waiting_[slot] = false;
  return true;
}

void DeadlockGraph::ClearWaiting(int slot) {
  TUFAST_CHECK(slot >= 0 && slot < kMaxHtmThreads);
  std::lock_guard<std::mutex> guard(mutex_);
  is_waiting_[slot] = false;
}

size_t DeadlockGraph::HolderEntriesForTest() const {
  std::lock_guard<std::mutex> guard(mutex_);
  size_t n = 0;
  for (const auto& [v, vec] : holders_) n += vec.size();
  return n;
}

bool DeadlockGraph::HasCycleFromLocked(int origin) const {
  // DFS over "slot s waits for slot t" edges: t holds the vertex s waits
  // on. A path back to `origin` is a deadlock. Self-edges are skipped
  // (lock upgrades wait on vertices they themselves hold).
  bool visited[kMaxHtmThreads] = {};
  int stack[kMaxHtmThreads];
  int depth = 0;
  stack[depth++] = origin;
  visited[origin] = true;
  while (depth > 0) {
    const int s = stack[--depth];
    if (!is_waiting_[s]) continue;
    const auto it = holders_.find(waiting_[s]);
    if (it == holders_.end()) continue;
    for (const Holder& h : it->second) {
      if (h.slot == s) continue;
      if (h.slot == origin) return true;
      if (!visited[h.slot]) {
        visited[h.slot] = true;
        stack[depth++] = h.slot;
      }
    }
  }
  return false;
}

}  // namespace tufast
