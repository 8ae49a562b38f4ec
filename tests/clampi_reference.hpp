// Reference model of the CLaMPI cache for differential testing: the
// tree-based Cache + FreeSpace implementation the flat-layout version in
// src/clampi replaced, kept as it was (std::map/std::multimap indexes, a
// phase-2 walk that restarts at every free region) so that
// test_clampi_fuzz.cpp can hold the library to the same hit/miss/victim/
// admission decisions. Test-only; never linked into the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "atlc/clampi/cache.hpp"
#include "atlc/clampi/config.hpp"
#include "atlc/util/check.hpp"

namespace atlc::clampi::reference {

/// Free regions in two trees: by offset (coalescing) and by size (best fit;
/// equal sizes in insertion order).
class FreeSpace {
 public:
  explicit FreeSpace(std::uint64_t capacity)
      : capacity_(capacity), total_free_(capacity) {
    if (capacity > 0) insert_region(0, capacity);
  }

  std::optional<std::uint64_t> allocate(std::uint64_t bytes) {
    if (bytes == 0) return 0;
    auto fit = by_size_.lower_bound(bytes);
    if (fit == by_size_.end()) return std::nullopt;
    const std::uint64_t region_size = fit->first;
    const std::uint64_t region_off = fit->second;
    by_size_.erase(fit);
    by_offset_.erase(region_off);
    if (region_size > bytes)
      insert_region(region_off + bytes, region_size - bytes);
    total_free_ -= bytes;
    return region_off;
  }

  void release(std::uint64_t offset, std::uint64_t bytes) {
    if (bytes == 0) return;
    ATLC_CHECK(offset + bytes <= capacity_, "release beyond capacity");
    std::uint64_t lo = offset, hi = offset + bytes;
    auto next = by_offset_.lower_bound(offset);
    if (next != by_offset_.end() && next->first == hi) {
      hi += next->second;
      erase_region(next);
    }
    auto prev = by_offset_.lower_bound(offset);
    if (prev != by_offset_.begin()) {
      --prev;
      ATLC_CHECK(prev->first + prev->second <= offset, "double free detected");
      if (prev->first + prev->second == offset) {
        lo = prev->first;
        erase_region(prev);
      }
    }
    insert_region(lo, hi - lo);
    total_free_ += bytes;
  }

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t total_free() const { return total_free_; }
  [[nodiscard]] std::uint64_t largest_free() const {
    return by_size_.empty() ? 0 : by_size_.rbegin()->first;
  }

  [[nodiscard]] std::uint64_t adjacent_free(std::uint64_t offset,
                                            std::uint64_t bytes) const {
    std::uint64_t adj = 0;
    auto next = by_offset_.lower_bound(offset + bytes);
    if (next != by_offset_.end() && next->first == offset + bytes)
      adj += next->second;
    auto prev = by_offset_.lower_bound(offset);
    if (prev != by_offset_.begin()) {
      --prev;
      if (prev->first + prev->second == offset) adj += prev->second;
    }
    return adj;
  }

  [[nodiscard]] double fragmentation() const {
    if (total_free_ == 0) return 0.0;
    return 1.0 - static_cast<double>(largest_free()) /
                     static_cast<double>(total_free_);
  }

  [[nodiscard]] std::size_t num_regions() const { return by_offset_.size(); }

  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>&
  regions_by_offset() const {
    return by_offset_;
  }

  [[nodiscard]] std::uint64_t region_at(std::uint64_t offset) const {
    const auto it = by_offset_.find(offset);
    return it == by_offset_.end() ? 0 : it->second;
  }

  void reset() {
    by_offset_.clear();
    by_size_.clear();
    total_free_ = capacity_;
    if (capacity_ > 0) insert_region(0, capacity_);
  }

 private:
  void insert_region(std::uint64_t offset, std::uint64_t bytes) {
    by_offset_.emplace(offset, bytes);
    by_size_.emplace(bytes, offset);
  }

  void erase_region(std::map<std::uint64_t, std::uint64_t>::iterator it) {
    auto [size_lo, size_hi] = by_size_.equal_range(it->second);
    for (auto s = size_lo; s != size_hi; ++s) {
      if (s->second == it->first) {
        by_size_.erase(s);
        break;
      }
    }
    by_offset_.erase(it);
  }

  std::uint64_t capacity_;
  std::uint64_t total_free_;
  std::map<std::uint64_t, std::uint64_t> by_offset_;
  std::multimap<std::uint64_t, std::uint64_t> by_size_;
};

class Cache {
 public:
  explicit Cache(CacheConfig config)
      : config_(config),
        free_(config.buffer_bytes),
        buffer_(config.buffer_bytes),
        slots_(std::max<std::size_t>(1, config.hash_slots), kEmpty) {
    ATLC_CHECK(config_.probe_limit > 0, "probe_limit must be positive");
  }

  void set_epoch(std::uint64_t epoch) { current_epoch_ = epoch; }

  bool lookup(const Key& key, void* dst) {
    ++window_accesses_;
    maybe_adapt();
    const std::int32_t idx = find(key);
    if (idx >= 0) {
      if (pool_[idx].epoch != current_epoch_) {
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

  bool insert(const Key& key, const void* data, double user_score = 0.0) {
    if (key.bytes == 0 || key.bytes > config_.buffer_bytes) {
      ++stats_.insert_failures;
      note_gone(key, GoneReason::NeverStored);
      return false;
    }
    if (const std::int32_t prev = find(key); prev >= 0) {
      ATLC_CHECK(pool_[prev].epoch != current_epoch_,
                 "insert of an already-cached key");
      evict(prev, GoneReason::Stale);
    }

    const std::uint64_t base = key_hash(key);
    std::int32_t slot = -1;
    for (std::size_t i = 0; i < config_.probe_limit; ++i) {
      const std::size_t s = (base + i) % slots_.size();
      if (slots_[s] == kEmpty || slots_[s] == kTombstone) {
        slot = static_cast<std::int32_t>(s);
        break;
      }
    }
    if (slot == -1) {
      ++window_conflicts_;
      const std::int32_t victim = pick_victim_in_probe_window(base);
      ATLC_CHECK(victim >= 0, "full probe window with no live entry");
      if (config_.policy == VictimPolicy::UserScore &&
          pool_[victim].user_score >= user_score) {
        ++stats_.admission_rejects;
        note_gone(key, GoneReason::NeverStored);
        return false;
      }
      slot = static_cast<std::int32_t>(pool_[victim].slot);
      evict(victim, GoneReason::EvictedConflict);
    }

    std::optional<std::uint64_t> buf_off = free_.allocate(key.bytes);
    if (!buf_off) {
      if (!make_room(key.bytes, user_score)) {
        ++stats_.admission_rejects;
        note_gone(key, GoneReason::NeverStored);
        return false;
      }
      buf_off = free_.allocate(key.bytes);
      ATLC_CHECK(buf_off.has_value(), "make_room must enable the allocation");
    }

    std::memcpy(buffer_.data() + *buf_off, data, key.bytes);
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
    e.buf_offset = *buf_off;
    e.last_tick = ++tick_;
    e.epoch = current_epoch_;
    e.user_score = user_score;
    e.slot = static_cast<std::uint32_t>(slot);
    e.live = true;
    slots_[slot] = idx;
    live_by_offset_.emplace(*buf_off, idx);
    lru_push_front(idx);
    if (config_.policy == VictimPolicy::UserScore)
      by_score_.emplace(user_score, idx);
    ++live_entries_;
    if (config_.classify_misses) gone_.erase(key_hash(key));
    return true;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    const std::int32_t idx = find(key);
    return idx >= 0 && pool_[idx].epoch == current_epoch_;
  }

  void flush() {
    for (std::int32_t it = lru_head_; it != -1; it = pool_[it].lru_next)
      note_gone(pool_[it].key, GoneReason::Flushed);
    pool_.clear();
    pool_free_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    by_score_.clear();
    live_by_offset_.clear();
    free_.reset();
    live_entries_ = 0;
    lru_head_ = lru_tail_ = -1;
    ++stats_.flushes;
  }

  void epoch_close() {
    if (config_.mode == Mode::Transparent) flush();
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t num_entries() const { return live_entries_; }
  [[nodiscard]] std::uint64_t used_bytes() const {
    return free_.capacity() - free_.total_free();
  }
  [[nodiscard]] double fragmentation() const { return free_.fragmentation(); }

  [[nodiscard]] std::vector<EntryInfo> entries() const {
    std::vector<EntryInfo> out;
    out.reserve(live_entries_);
    for (std::int32_t it = lru_head_; it != -1; it = pool_[it].lru_next)
      out.push_back({pool_[it].key, pool_[it].user_score, pool_[it].last_tick});
    return out;
  }

 private:
  struct Entry {
    Key key;
    std::uint64_t buf_offset = 0;
    std::uint64_t last_tick = 0;
    std::uint64_t epoch = 0;
    double user_score = 0.0;
    std::uint32_t slot = 0;
    std::int32_t lru_prev = -1;
    std::int32_t lru_next = -1;
    bool live = false;
  };

  enum class GoneReason : std::uint8_t {
    EvictedSpace,
    EvictedConflict,
    Flushed,
    Stale,
    NeverStored,
  };

  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::int32_t kTombstone = -2;

  std::int32_t find(const Key& key) const {
    const std::uint64_t base = key_hash(key);
    for (std::size_t i = 0; i < config_.probe_limit; ++i) {
      const std::size_t s = (base + i) % slots_.size();
      const std::int32_t idx = slots_[s];
      if (idx == kEmpty) return -1;
      if (idx == kTombstone) continue;
      if (pool_[idx].key == key) return idx;
    }
    return -1;
  }

  void lru_unlink(std::int32_t idx) {
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

  void lru_push_front(std::int32_t idx) {
    Entry& e = pool_[idx];
    e.lru_prev = -1;
    e.lru_next = lru_head_;
    if (lru_head_ != -1) pool_[lru_head_].lru_prev = idx;
    lru_head_ = idx;
    if (lru_tail_ == -1) lru_tail_ = idx;
  }

  void touch(std::int32_t idx) {
    lru_unlink(idx);
    lru_push_front(idx);
    pool_[idx].last_tick = ++tick_;
  }

  void classify_miss(const Key& key) {
    const auto it = gone_.find(key_hash(key));
    if (it == gone_.end()) {
      ++stats_.compulsory_misses;
      return;
    }
    switch (it->second) {
      case GoneReason::EvictedSpace: ++stats_.capacity_misses; break;
      case GoneReason::EvictedConflict: ++stats_.conflict_misses; break;
      case GoneReason::Flushed: ++stats_.flush_misses; break;
      case GoneReason::Stale: ++stats_.flush_misses; break;
      case GoneReason::NeverStored: ++stats_.capacity_misses; break;
    }
  }

  void note_gone(const Key& key, GoneReason reason) {
    if (config_.classify_misses) gone_[key_hash(key)] = reason;
  }

  void evict(std::int32_t idx, GoneReason reason) {
    Entry& e = pool_[idx];
    ATLC_CHECK(e.live, "evicting a dead entry");
    note_gone(e.key, reason);
    slots_[e.slot] = kTombstone;
    free_.release(e.buf_offset, e.key.bytes);
    live_by_offset_.erase(e.buf_offset);
    lru_unlink(idx);
    if (config_.policy == VictimPolicy::UserScore) {
      auto [lo, hi] = by_score_.equal_range(e.user_score);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == idx) {
          by_score_.erase(it);
          break;
        }
      }
    }
    e.live = false;
    pool_free_.push_back(idx);
    --live_entries_;
    if (reason == GoneReason::EvictedSpace) ++stats_.evictions_space;
    if (reason == GoneReason::EvictedConflict) ++stats_.evictions_conflict;
    if (reason == GoneReason::Stale) ++stats_.stale_evictions;
  }

  std::int32_t lru_positional_pick(
      const std::vector<std::int32_t>& candidates) {
    std::int32_t best = -1;
    double best_weight = 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Entry& e = pool_[candidates[i]];
      const double benefit =
          e.key.bytes > 0
              ? std::min(2.0, static_cast<double>(free_.adjacent_free(
                                  e.buf_offset, e.key.bytes)) /
                                  static_cast<double>(e.key.bytes))
              : 0.0;
      const double weight =
          static_cast<double>(i) -
          benefit * static_cast<double>(candidates.size()) / 4.0;
      if (best == -1 || weight < best_weight) {
        best = candidates[i];
        best_weight = weight;
      }
    }
    return best;
  }

  std::int32_t pick_victim_global() {
    if (live_entries_ == 0) return -1;
    if (config_.policy == VictimPolicy::UserScore) {
      ATLC_CHECK(!by_score_.empty(), "score index out of sync");
      return by_score_.begin()->second;
    }
    std::vector<std::int32_t> candidates;
    candidates.reserve(config_.lru_window);
    for (std::int32_t it = lru_tail_;
         it != -1 && candidates.size() < config_.lru_window;
         it = pool_[it].lru_prev)
      candidates.push_back(it);
    return lru_positional_pick(candidates);
  }

  std::int32_t pick_victim_in_probe_window(std::uint64_t hash_base) {
    std::vector<std::int32_t> candidates;
    for (std::size_t i = 0; i < config_.probe_limit; ++i) {
      const std::int32_t idx = slots_[(hash_base + i) % slots_.size()];
      if (idx >= 0) candidates.push_back(idx);
    }
    if (candidates.empty()) return -1;
    if (config_.policy == VictimPolicy::UserScore) {
      return *std::min_element(candidates.begin(), candidates.end(),
                               [&](std::int32_t a, std::int32_t b) {
                                 if (pool_[a].user_score != pool_[b].user_score)
                                   return pool_[a].user_score <
                                          pool_[b].user_score;
                                 return pool_[a].last_tick < pool_[b].last_tick;
                               });
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](std::int32_t a, std::int32_t b) {
                return pool_[a].last_tick < pool_[b].last_tick;
              });
    return lru_positional_pick(candidates);
  }

  bool make_room(std::uint64_t bytes, double incoming_score) {
    for (int k = 0; k < 16; ++k) {
      const std::int32_t victim = pick_victim_global();
      if (victim < 0) break;
      if (config_.policy == VictimPolicy::UserScore &&
          pool_[victim].user_score >= incoming_score) {
        return false;
      }
      evict(victim, GoneReason::EvictedSpace);
      if (free_.largest_free() >= bytes) return true;
    }
    if (live_entries_ == 0) return free_.largest_free() >= bytes;

    struct Run {
      std::vector<std::int32_t> victims;
      double cost = 0.0;
    };
    std::optional<Run> best;
    std::vector<std::uint64_t> starts;
    starts.reserve(free_.num_regions() + 1);
    starts.push_back(0);
    for (const auto& [off, sz] : free_.regions_by_offset())
      starts.push_back(off);

    for (const std::uint64_t start : starts) {
      std::uint64_t pos = start, span = 0;
      Run run;
      bool feasible = true;
      while (span < bytes) {
        if (pos >= free_.capacity()) {
          feasible = false;
          break;
        }
        if (const std::uint64_t fr = free_.region_at(pos)) {
          span += fr;
          pos += fr;
          continue;
        }
        const auto it = live_by_offset_.find(pos);
        ATLC_CHECK(it != live_by_offset_.end(),
                   "cache buffer layout corrupted");
        const Entry& e = pool_[it->second];
        run.victims.push_back(it->second);
        run.cost = std::max(run.cost, config_.policy == VictimPolicy::UserScore
                                          ? e.user_score
                                          : static_cast<double>(e.last_tick));
        span += e.key.bytes;
        pos += e.key.bytes;
      }
      if (feasible && (!best || run.cost < best->cost)) best = std::move(run);
    }
    if (!best) return false;
    if (config_.policy == VictimPolicy::UserScore &&
        best->cost >= incoming_score)
      return false;
    for (const std::int32_t v : best->victims)
      evict(v, GoneReason::EvictedSpace);
    return free_.largest_free() >= bytes;
  }

  void maybe_adapt() {
    if (!config_.adaptive || window_accesses_ < config_.adaptive_interval)
      return;
    const double conflict_rate = static_cast<double>(window_conflicts_) /
                                 static_cast<double>(window_accesses_);
    window_accesses_ = 0;
    window_conflicts_ = 0;
    if (conflict_rate > config_.adaptive_conflict_threshold &&
        slots_.size() * 2 <= config_.max_hash_slots) {
      flush();
      slots_.assign(slots_.size() * 2, kEmpty);
      ++stats_.hash_resizes;
    }
  }

  CacheConfig config_;
  CacheStats stats_;
  FreeSpace free_;
  std::vector<std::byte> buffer_;
  std::vector<Entry> pool_;
  std::vector<std::int32_t> pool_free_;
  std::vector<std::int32_t> slots_;
  std::size_t live_entries_ = 0;
  std::int32_t lru_head_ = -1;
  std::int32_t lru_tail_ = -1;
  std::uint64_t tick_ = 0;
  std::uint64_t current_epoch_ = 0;
  std::multimap<double, std::int32_t> by_score_;
  std::map<std::uint64_t, std::int32_t> live_by_offset_;
  std::unordered_map<std::uint64_t, GoneReason> gone_;
  std::uint64_t window_accesses_ = 0;
  std::uint64_t window_conflicts_ = 0;
};

}  // namespace atlc::clampi::reference
