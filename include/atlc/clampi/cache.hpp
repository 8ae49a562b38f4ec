#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "atlc/clampi/config.hpp"
#include "atlc/clampi/free_space.hpp"

namespace atlc::clampi {

/// Cache key: CLaMPI indexes cached entries by (window, node, offset, size)
/// — see paper Fig. 3. The window is implicit (one Cache per window).
struct Key {
  std::uint32_t target = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const Key&, const Key&) = default;
};

[[nodiscard]] std::uint64_t key_hash(const Key& k);

/// Introspection record (drives paper Fig. 5 right: entry sizes vs reuse).
struct EntryInfo {
  Key key;
  double user_score = 0.0;
  std::uint64_t last_tick = 0;
};

/// CLaMPI-style software cache for RMA gets: variable-size entries in a
/// bounded memory buffer, hash-table index with bounded linear probing,
/// score-driven victim selection, and optional adaptive hash resizing
/// (which flushes, as in CLaMPI). The cache itself is transport-agnostic;
/// `CachedWindow` (cached_window.hpp) wires it to the RMA runtime.
class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// Set the data epoch subsequent lookups/inserts run under (the window
  /// version the payloads belong to — see rma::WindowBase::epoch()). An
  /// entry inserted at epoch e is served only while the epoch is still e:
  /// probing it at a later epoch recycles it and reports a miss
  /// (stats().stale_evictions). Static workloads never call this and keep
  /// the always-cache behaviour (everything stays at epoch 0).
  void set_epoch(std::uint64_t epoch) { current_epoch_ = epoch; }
  [[nodiscard]] std::uint64_t epoch() const { return current_epoch_; }

  /// Look up `key`; on hit copy the payload to `dst` (must hold key.bytes)
  /// and refresh recency. Returns true on hit. A resident entry from an
  /// older epoch is evicted and reported as a miss.
  bool lookup(const Key& key, void* dst);

  /// Store a payload after a miss fetch. `user_score` is consulted only
  /// under VictimPolicy::UserScore (paper Section III-B2: degree centrality
  /// for C_adj; it must not be NaN). May evict (possibly several) entries;
  /// returns false iff the payload is empty or exceeds the whole buffer, or
  /// the admission gate rejects it. Inserting a key that is resident
  /// at the current epoch is a caller error (see contains()); a stale
  /// resident from an older epoch is recycled and replaced.
  bool insert(const Key& key, const void* data, double user_score = 0.0);

  /// True iff `key` is resident at the current epoch. Unlike lookup(),
  /// copies no payload and does not refresh recency — the probe callers use
  /// to decide whether a completed miss fetch still needs its insert (an
  /// overlapping fetch of the same key may have inserted first; see
  /// CachedWindow::finish). Stale residents read as absent.
  [[nodiscard]] bool contains(const Key& key) const {
    const std::int32_t idx = find(key);
    return idx >= 0 && pool_[idx].epoch == current_epoch_;
  }

  /// Drop every entry (stats retained). UserDefined-mode applications call
  /// this; it also implements the transparent-mode epoch flush.
  void flush();

  /// Notify an epoch closure: flushes only in Transparent mode.
  void epoch_close();

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  [[nodiscard]] std::size_t num_entries() const { return live_entries_; }
  [[nodiscard]] std::uint64_t used_bytes() const {
    return free_.capacity() - free_.total_free();
  }
  [[nodiscard]] double fragmentation() const { return free_.fragmentation(); }
  [[nodiscard]] std::vector<EntryInfo> entries() const;

  /// Paper Section III-B1 sizing heuristics for the two LCC caches.
  /// C_offsets holds fixed-size entries: one slot per entry that fits.
  [[nodiscard]] static std::size_t suggest_hash_slots_fixed(
      std::uint64_t cache_bytes, std::uint64_t entry_bytes);
  /// C_adj under a power-law degree distribution: n * fraction^alpha
  /// entries expected (paper: alpha = 2 approximates well).
  [[nodiscard]] static std::size_t suggest_hash_slots_power_law(
      std::uint64_t num_vertices, double cache_fraction, double alpha = 2.0);

 private:
  using ScoreIndex = std::multimap<double, std::int32_t>;

  struct Entry {
    Key key;
    std::uint64_t buf_offset = 0;
    std::uint64_t last_tick = 0;
    std::uint64_t epoch = 0;  ///< window epoch the payload was fetched at
    double user_score = 0.0;
    ScoreIndex::iterator score_it{};  ///< UserScore: own by_score_ node
    FreeSpace::TileId tile = FreeSpace::kNoTile;  ///< buffer block
    std::uint32_t slot = 0;
    std::int32_t lru_prev = -1;
    std::int32_t lru_next = -1;
    bool live = false;
  };

  enum class GoneReason : std::uint8_t {
    None,  ///< never left, or resident again: classifies as compulsory
    EvictedSpace,
    EvictedConflict,
    Flushed,
    Stale,  ///< epoch invalidation (refresh_window advanced the window)
    NeverStored,
  };

  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::int32_t kTombstone = -2;

  /// Hash-table slot: pool index (or kEmpty/kTombstone) and the upper half
  /// of the key's hash, which a probe compares before touching the pool.
  struct Slot {
    std::int32_t idx = kEmpty;
    std::uint32_t tag = 0;
  };

  /// Probe sequence of a key: slot (hash + i) % slots for i = 0, 1, ...
  /// (the hash sum wrapping at 2^64), stepped without a division.
  class Probe {
   public:
    Probe(std::uint64_t hash, std::size_t slots)
        : sum_(hash), slot_(hash % slots), slots_(slots) {}
    [[nodiscard]] std::size_t slot() const { return slot_; }
    void next() {
      slot_ = (++sum_ == 0 || slot_ + 1 == slots_) ? 0 : slot_ + 1;
    }

   private:
    std::uint64_t sum_;
    std::size_t slot_;
    std::size_t slots_;
  };

  /// Miss-classification memory: key hash -> why that key last left the
  /// cache. Flat open addressing (linear probing, power-of-two capacity,
  /// grown at half load); entries are overwritten, never erased.
  class GoneTable {
   public:
    [[nodiscard]] GoneReason get(std::uint64_t hash) const;
    void set(std::uint64_t hash, GoneReason reason);
    /// Forget why `hash` left (it is resident again), if it ever did.
    void clear_reason(std::uint64_t hash);

   private:
    struct Cell {
      std::uint64_t hash = 0;
      GoneReason reason = GoneReason::None;
      bool used = false;
    };
    [[nodiscard]] std::size_t locate(std::uint64_t hash) const;
    std::vector<Cell> cells_;
    std::size_t used_ = 0;
  };

  /// Returns pool index of the entry holding `key`, or -1.
  std::int32_t find(const Key& key) const;
  void touch(std::int32_t idx);
  void lru_unlink(std::int32_t idx);
  void lru_push_front(std::int32_t idx);
  void evict(std::int32_t idx, GoneReason reason);
  /// Global victim per policy; -1 if cache empty.
  std::int32_t pick_victim_global();
  /// Make a contiguous region of `bytes` allocatable: a bounded number of
  /// cheapest-first single evictions, then (if fragmentation still blocks
  /// the allocation) clearing the cheapest contiguous run of entries.
  /// Returns false iff the UserScore admission gate rejects the newcomer.
  bool make_room(std::uint64_t bytes, double incoming_score);
  /// Victim restricted to live entries in the probe window of `hash_base`.
  std::int32_t pick_victim_in_probe_window(std::uint64_t hash_base);
  /// Positional pick over candidates_ (ordered least recently used first).
  std::int32_t lru_positional_pick();
  /// An entry's victim cost, as stored inline in its buffer tile.
  [[nodiscard]] double victim_cost(const Entry& e) const {
    return config_.policy == VictimPolicy::UserScore
               ? e.user_score
               : static_cast<double>(e.last_tick);
  }
  void classify_miss(const Key& key);
  void note_gone(const Key& key, GoneReason reason);
  void maybe_adapt();

  CacheConfig config_;
  CacheStats stats_;
  FreeSpace free_;
  std::vector<std::byte> buffer_;
  std::vector<Entry> pool_;
  std::vector<std::int32_t> pool_free_;
  std::vector<Slot> slots_;
  std::size_t live_entries_ = 0;
  std::int32_t lru_head_ = -1;
  std::int32_t lru_tail_ = -1;
  std::uint64_t tick_ = 0;
  std::uint64_t current_epoch_ = 0;
  ScoreIndex by_score_;  // UserScore policy index
  GoneTable gone_;  // miss classification
  std::vector<std::int32_t> candidates_;  // victim-pick scratch
  std::vector<std::int32_t> victims_;     // make_room phase-2 scratch
  std::uint64_t window_accesses_ = 0;
  std::uint64_t window_conflicts_ = 0;
};

}  // namespace atlc::clampi
