#include "atlc/clampi/cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "atlc/util/check.hpp"
#include "atlc/util/rng.hpp"

namespace atlc::clampi {

std::uint64_t key_hash(const Key& k) {
  std::uint64_t h = util::mix64(k.target, 0x9E3779B9u);
  h = util::mix64(h ^ k.offset, 0x85EBCA6Bu);
  h = util::mix64(h ^ k.bytes, 0xC2B2AE35u);
  return h;
}

namespace {

std::uint32_t hash_tag(std::uint64_t hash) {
  return static_cast<std::uint32_t>(hash >> 32);
}

}  // namespace

std::size_t Cache::GoneTable::locate(std::uint64_t hash) const {
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = hash & mask;
  while (cells_[i].used && cells_[i].hash != hash) i = (i + 1) & mask;
  return i;
}

Cache::GoneReason Cache::GoneTable::get(std::uint64_t hash) const {
  if (cells_.empty()) return GoneReason::None;
  return cells_[locate(hash)].reason;  // an unused cell reads None
}

void Cache::GoneTable::set(std::uint64_t hash, GoneReason reason) {
  if (2 * (used_ + 1) > cells_.size()) {
    std::vector<Cell> old(std::max<std::size_t>(64, 2 * cells_.size()));
    old.swap(cells_);
    for (const Cell& c : old)
      if (c.used) cells_[locate(c.hash)] = c;
  }
  Cell& c = cells_[locate(hash)];
  if (!c.used) {
    c.used = true;
    c.hash = hash;
    ++used_;
  }
  c.reason = reason;
}

void Cache::GoneTable::clear_reason(std::uint64_t hash) {
  if (cells_.empty()) return;
  Cell& c = cells_[locate(hash)];
  if (c.used) c.reason = GoneReason::None;
}

Cache::Cache(CacheConfig config)
    : config_(config),
      free_(config.buffer_bytes),
      buffer_(config.buffer_bytes),
      slots_(std::max<std::size_t>(1, config.hash_slots)) {
  ATLC_CHECK(config_.probe_limit > 0, "probe_limit must be positive");
}

std::int32_t Cache::find(const Key& key) const {
  const std::uint64_t base = key_hash(key);
  const std::uint32_t tag = hash_tag(base);
  Probe probe(base, slots_.size());
  for (std::size_t i = 0; i < config_.probe_limit; ++i, probe.next()) {
    const Slot& s = slots_[probe.slot()];
    if (s.idx == kEmpty) return -1;
    if (s.idx >= 0 && s.tag == tag && pool_[s.idx].key == key) return s.idx;
  }
  return -1;
}

void Cache::lru_unlink(std::int32_t idx) {
  Entry& e = pool_[idx];
  if (e.lru_prev != -1)
    pool_[e.lru_prev].lru_next = e.lru_next;
  else
    lru_head_ = e.lru_next;
  if (e.lru_next != -1)
    pool_[e.lru_next].lru_prev = e.lru_prev;
  else
    lru_tail_ = e.lru_prev;
  e.lru_prev = e.lru_next = -1;
}

void Cache::lru_push_front(std::int32_t idx) {
  Entry& e = pool_[idx];
  e.lru_prev = -1;
  e.lru_next = lru_head_;
  if (lru_head_ != -1) pool_[lru_head_].lru_prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == -1) lru_tail_ = idx;
}

void Cache::touch(std::int32_t idx) {
  lru_unlink(idx);
  lru_push_front(idx);
  pool_[idx].last_tick = ++tick_;
  if (config_.policy == VictimPolicy::LruPositional)
    free_.set_cost(pool_[idx].tile, victim_cost(pool_[idx]));
}

bool Cache::lookup(const Key& key, void* dst) {
  ++window_accesses_;
  maybe_adapt();
  const std::int32_t idx = find(key);
  if (idx >= 0) {
    if (pool_[idx].epoch != current_epoch_) {
      // The window advanced past the epoch this payload was fetched at: the
      // bytes may no longer match the target's exposure. Serving them would
      // violate coherence, so the entry is recycled and the probe reported
      // as a miss (stale-hit-as-miss, DESIGN.md §7).
      evict(idx, GoneReason::Stale);
    } else {
      const Entry& e = pool_[idx];
      std::memcpy(dst, buffer_.data() + e.buf_offset, e.key.bytes);
      touch(idx);
      ++stats_.hits;
      stats_.bytes_hit += e.key.bytes;
      return true;
    }
  }
  ++stats_.misses;
  stats_.bytes_missed += key.bytes;
  if (config_.classify_misses) classify_miss(key);
  return false;
}

void Cache::classify_miss(const Key& key) {
  switch (gone_.get(key_hash(key))) {
    case GoneReason::None: ++stats_.compulsory_misses; break;
    case GoneReason::EvictedSpace: ++stats_.capacity_misses; break;
    case GoneReason::EvictedConflict: ++stats_.conflict_misses; break;
    case GoneReason::Flushed: ++stats_.flush_misses; break;
    // Epoch invalidation is a targeted flush of one entry.
    case GoneReason::Stale: ++stats_.flush_misses; break;
    case GoneReason::NeverStored: ++stats_.capacity_misses; break;
  }
}

void Cache::note_gone(const Key& key, GoneReason reason) {
  if (config_.classify_misses) gone_.set(key_hash(key), reason);
}

void Cache::evict(std::int32_t idx, GoneReason reason) {
  Entry& e = pool_[idx];
  ATLC_DCHECK(e.live, "evicting a dead entry");
  note_gone(e.key, reason);
  slots_[e.slot].idx = kTombstone;
  free_.release(e.tile);
  lru_unlink(idx);
  if (config_.policy == VictimPolicy::UserScore) by_score_.erase(e.score_it);
  e.live = false;
  pool_free_.push_back(idx);
  --live_entries_;
  if (reason == GoneReason::EvictedSpace) ++stats_.evictions_space;
  if (reason == GoneReason::EvictedConflict) ++stats_.evictions_conflict;
  if (reason == GoneReason::Stale) ++stats_.stale_evictions;
}

std::int32_t Cache::lru_positional_pick() {
  // Paper / CLaMPI: "LRU weighted on a positional score to limit external
  // fragmentation". Candidate i (0 = least recently used) has base weight i;
  // the merge-benefit ratio of its surroundings subtracts up to half the
  // window, so a perfectly-mergeable entry can be evicted ahead of up to
  // window/2 colder entries.
  std::int32_t best = -1;
  double best_weight = 0.0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const Entry& e = pool_[candidates_[i]];
    const double benefit =
        e.key.bytes > 0
            ? std::min(2.0, static_cast<double>(free_.adjacent_free(e.tile)) /
                                static_cast<double>(e.key.bytes))
            : 0.0;
    const double weight = static_cast<double>(i) -
                          benefit * static_cast<double>(candidates_.size()) / 4.0;
    if (best == -1 || weight < best_weight) {
      best = candidates_[i];
      best_weight = weight;
    }
  }
  return best;
}

std::int32_t Cache::pick_victim_global() {
  if (live_entries_ == 0) return -1;
  if (config_.policy == VictimPolicy::UserScore) {
    ATLC_DCHECK(!by_score_.empty(), "score index out of sync");
    return by_score_.begin()->second;  // lowest application score
  }
  candidates_.clear();
  for (std::int32_t it = lru_tail_;
       it != -1 && candidates_.size() < config_.lru_window;
       it = pool_[it].lru_prev)
    candidates_.push_back(it);
  return lru_positional_pick();
}

std::int32_t Cache::pick_victim_in_probe_window(std::uint64_t hash_base) {
  candidates_.clear();
  Probe probe(hash_base, slots_.size());
  for (std::size_t i = 0; i < config_.probe_limit; ++i, probe.next()) {
    const std::int32_t idx = slots_[probe.slot()].idx;
    if (idx >= 0) candidates_.push_back(idx);
  }
  if (candidates_.empty()) return -1;
  if (config_.policy == VictimPolicy::UserScore) {
    return *std::min_element(candidates_.begin(), candidates_.end(),
                             [&](std::int32_t a, std::int32_t b) {
                               if (pool_[a].user_score != pool_[b].user_score)
                                 return pool_[a].user_score <
                                        pool_[b].user_score;
                               return pool_[a].last_tick < pool_[b].last_tick;
                             });
  }
  // Order candidates oldest-first so positional weighting applies as in the
  // global case.
  std::sort(candidates_.begin(), candidates_.end(),
            [&](std::int32_t a, std::int32_t b) {
              return pool_[a].last_tick < pool_[b].last_tick;
            });
  return lru_positional_pick();
}

bool Cache::make_room(std::uint64_t bytes, double incoming_score) {
  // Phase 1: bounded cheapest-first single evictions (CLaMPI's score-ordered
  // victim selection). Coalescing usually opens a fitting hole when the
  // incoming entry is around the median entry size.
  for (int k = 0; k < 16; ++k) {
    const std::int32_t victim = pick_victim_global();
    if (victim < 0) break;  // cache empty
    if (config_.policy == VictimPolicy::UserScore &&
        pool_[victim].user_score >= incoming_score) {
      // The cheapest resident already outranks the newcomer, so every
      // resident does: admission denied (paper Section III-B2 intent).
      return false;
    }
    evict(victim, GoneReason::EvictedSpace);
    if (free_.largest_free() >= bytes) return true;
  }
  if (live_entries_ == 0) return free_.largest_free() >= bytes;

  // Phase 2: external fragmentation blocks the allocation although cheap
  // entries exist (typical when a hub-sized adjacency list arrives over a
  // buffer full of small entries). Clear the cheapest CONTIGUOUS run —
  // the run-cost is the max entry score inside it, so a run containing a
  // higher-ranked resident is never sacrificed for a lower-ranked newcomer
  // (this is what keeps hub entries from thrashing each other).
  const auto run = free_.cheapest_run(bytes);
  if (!run) return false;
  if (config_.policy == VictimPolicy::UserScore && run->cost >= incoming_score)
    return false;
  victims_.clear();
  for (FreeSpace::TileId t = run->first; t != run->end;
       t = free_.tile(t).next) {
    const FreeSpace::Tile& tile = free_.tile(t);
    if (tile.free) continue;
    ATLC_DCHECK(pool_[tile.owner].tile == t, "cache buffer layout corrupted");
    victims_.push_back(tile.owner);
  }
  for (const std::int32_t v : victims_) evict(v, GoneReason::EvictedSpace);
  return free_.largest_free() >= bytes;
}

bool Cache::insert(const Key& key, const void* data, double user_score) {
  if (key.bytes == 0 || key.bytes > config_.buffer_bytes) {
    // Zero-byte payloads carry no data worth caching (and would corrupt
    // the buffer-layout tiling); oversized ones cannot fit.
    ++stats_.insert_failures;
    note_gone(key, GoneReason::NeverStored);
    return false;
  }
  if (const std::int32_t prev = find(key); prev >= 0) {
    // A stale resident from an older epoch still occupies the key (a deep
    // pipeline can complete a pre-refresh miss after the epoch advanced).
    // Recycle it; the incoming payload is the current-epoch replacement.
    ATLC_DCHECK(pool_[prev].epoch != current_epoch_,
                "insert of an already-cached key");
    evict(prev, GoneReason::Stale);
  }

  // 1) Claim a hash slot (may require a conflict eviction).
  const std::uint64_t base = key_hash(key);
  std::int32_t slot = -1;
  Probe probe(base, slots_.size());
  for (std::size_t i = 0; i < config_.probe_limit; ++i, probe.next()) {
    if (slots_[probe.slot()].idx < 0) {  // empty or tombstone
      slot = static_cast<std::int32_t>(probe.slot());
      break;
    }
  }
  if (slot == -1) {
    ++window_conflicts_;
    const std::int32_t victim = pick_victim_in_probe_window(base);
    ATLC_DCHECK(victim >= 0, "full probe window with no live entry");
    // Admission gate (paper Section III-B2): under application scores, a
    // lower-scored entry must not displace a higher-scored resident —
    // otherwise every miss cycles the cache and hubs never stay resident.
    if (config_.policy == VictimPolicy::UserScore &&
        pool_[victim].user_score >= user_score) {
      ++stats_.admission_rejects;
      note_gone(key, GoneReason::NeverStored);
      return false;
    }
    slot = static_cast<std::int32_t>(pool_[victim].slot);
    evict(victim, GoneReason::EvictedConflict);
  }

  // 2) Claim buffer space (may require capacity evictions).
  std::optional<FreeSpace::Block> block = free_.allocate(key.bytes);
  if (!block) {
    // (Any victims evicted below cannot occupy the slot claimed above: we
    // claimed an empty/tombstone slot and evict() only tombstones live
    // slots.)
    if (!make_room(key.bytes, user_score)) {
      ++stats_.admission_rejects;
      note_gone(key, GoneReason::NeverStored);
      return false;
    }
    block = free_.allocate(key.bytes);
    ATLC_CHECK(block.has_value(), "make_room must enable the allocation");
  }

  // 3) Materialise the entry.
  std::memcpy(buffer_.data() + block->offset, data, key.bytes);
  std::int32_t idx;
  if (!pool_free_.empty()) {
    idx = pool_free_.back();
    pool_free_.pop_back();
  } else {
    idx = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  }
  Entry& e = pool_[idx];
  e.key = key;
  e.buf_offset = block->offset;
  e.tile = block->tile;
  e.last_tick = ++tick_;
  e.epoch = current_epoch_;
  e.user_score = user_score;
  e.slot = static_cast<std::uint32_t>(slot);
  e.live = true;
  slots_[slot] = Slot{idx, hash_tag(base)};
  free_.set_block(e.tile, idx, victim_cost(e));
  lru_push_front(idx);
  if (config_.policy == VictimPolicy::UserScore)
    e.score_it = by_score_.emplace(user_score, idx);
  ++live_entries_;
  if (config_.classify_misses) gone_.clear_reason(base);
  return true;
}

void Cache::flush() {
  for (std::int32_t it = lru_head_; it != -1; it = pool_[it].lru_next)
    note_gone(pool_[it].key, GoneReason::Flushed);
  pool_.clear();
  pool_free_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
  by_score_.clear();
  free_.reset();
  live_entries_ = 0;
  lru_head_ = lru_tail_ = -1;
  ++stats_.flushes;
}

void Cache::epoch_close() {
  if (config_.mode == Mode::Transparent) flush();
}

void Cache::maybe_adapt() {
  if (!config_.adaptive || window_accesses_ < config_.adaptive_interval)
    return;
  const double conflict_rate = static_cast<double>(window_conflicts_) /
                               static_cast<double>(window_accesses_);
  window_accesses_ = 0;
  window_conflicts_ = 0;
  if (conflict_rate > config_.adaptive_conflict_threshold &&
      slots_.size() * 2 <= config_.max_hash_slots) {
    // CLaMPI's adaptive strategy: resize the hash table and FLUSH (paper
    // Section III-B1 — this is why good initial sizes matter).
    flush();
    slots_.assign(slots_.size() * 2, Slot{});
    ++stats_.hash_resizes;
  }
}

std::vector<EntryInfo> Cache::entries() const {
  std::vector<EntryInfo> out;
  out.reserve(live_entries_);
  for (std::int32_t it = lru_head_; it != -1; it = pool_[it].lru_next)
    out.push_back({pool_[it].key, pool_[it].user_score, pool_[it].last_tick});
  return out;
}

std::size_t Cache::suggest_hash_slots_fixed(std::uint64_t cache_bytes,
                                            std::uint64_t entry_bytes) {
  if (entry_bytes == 0) return 1;
  return std::max<std::size_t>(16, cache_bytes / entry_bytes);
}

std::size_t Cache::suggest_hash_slots_power_law(std::uint64_t num_vertices,
                                                double cache_fraction,
                                                double alpha) {
  const double expected = static_cast<double>(num_vertices) *
                          std::pow(std::clamp(cache_fraction, 0.0, 1.0), alpha);
  return std::max<std::size_t>(16, static_cast<std::size_t>(expected));
}

}  // namespace atlc::clampi
