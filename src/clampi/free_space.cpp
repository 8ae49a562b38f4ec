#include "atlc/clampi/free_space.hpp"

#include <algorithm>

#include "atlc/util/check.hpp"

namespace atlc::clampi {

FreeSpace::FreeSpace(std::uint64_t capacity) : capacity_(capacity) {
  reset();
}

FreeSpace::TileId FreeSpace::new_tile() {
  if (!spare_.empty()) {
    const TileId id = spare_.back();
    spare_.pop_back();
    tiles_[id] = Tile{};
    return id;
  }
  tiles_.emplace_back();
  return static_cast<TileId>(tiles_.size() - 1);
}

void FreeSpace::retire_tile(TileId id) {
  tiles_[id] = Tile{};  // free and unlinked: a second release trips a check
  spare_.push_back(id);
}

void FreeSpace::index_free(TileId id) {
  Tile& t = tiles_[id];
  t.free = true;
  t.owner = -1;
  t.cost = 0.0;
  t.seq = next_seq_++;
  // The newest sequence sorts after every region of the same size.
  const SizeKey key{t.bytes, t.seq, id};
  by_size_.insert(std::upper_bound(by_size_.begin(), by_size_.end(), key),
                  key);
}

void FreeSpace::unindex_free(TileId id) {
  const Tile& t = tiles_[id];
  const SizeKey key{t.bytes, t.seq, id};
  const auto it = std::lower_bound(by_size_.begin(), by_size_.end(), key);
  ATLC_CHECK(it != by_size_.end() && it->tile == id,
             "free-region index out of sync");
  by_size_.erase(it);
}

std::optional<FreeSpace::Block> FreeSpace::allocate(std::uint64_t bytes) {
  if (bytes == 0) return Block{};
  // Best fit: the smallest region >= bytes, earliest inserted among equals.
  const auto fit = std::lower_bound(
      by_size_.begin(), by_size_.end(), bytes,
      [](const SizeKey& k, std::uint64_t b) { return k.bytes < b; });
  if (fit == by_size_.end()) return std::nullopt;
  const TileId id = fit->tile;
  by_size_.erase(fit);
  tiles_[id].free = false;
  if (tiles_[id].bytes > bytes) {
    // The tail of the region stays free as a new region.
    const TileId rest = new_tile();
    Tile& t = tiles_[id];
    Tile& r = tiles_[rest];
    r.offset = t.offset + bytes;
    r.bytes = t.bytes - bytes;
    r.prev = id;
    r.next = t.next;
    if (t.next != kNoTile) tiles_[t.next].prev = rest;
    t.next = rest;
    t.bytes = bytes;
    index_free(rest);
  }
  total_free_ -= bytes;
  return Block{tiles_[id].offset, id};
}

void FreeSpace::release(TileId id) {
  if (id == kNoTile) return;  // zero-byte block
  ATLC_CHECK(id >= 0 && static_cast<std::size_t>(id) < tiles_.size() &&
                 !tiles_[id].free,
             "double free detected");
  total_free_ += tiles_[id].bytes;
  // Coalesce with the following region, then with the preceding one.
  if (const TileId n = tiles_[id].next; n != kNoTile && tiles_[n].free) {
    unindex_free(n);
    tiles_[id].bytes += tiles_[n].bytes;
    tiles_[id].next = tiles_[n].next;
    if (tiles_[n].next != kNoTile) tiles_[tiles_[n].next].prev = id;
    retire_tile(n);
  }
  if (const TileId p = tiles_[id].prev; p != kNoTile && tiles_[p].free) {
    unindex_free(p);
    tiles_[p].bytes += tiles_[id].bytes;
    tiles_[p].next = tiles_[id].next;
    if (tiles_[id].next != kNoTile) tiles_[tiles_[id].next].prev = p;
    retire_tile(id);
    id = p;
  }
  index_free(id);
}

std::uint64_t FreeSpace::adjacent_free(TileId id) const {
  const Tile& t = tiles_[id];
  std::uint64_t adj = 0;
  if (t.prev != kNoTile && tiles_[t.prev].free) adj += tiles_[t.prev].bytes;
  if (t.next != kNoTile && tiles_[t.next].free) adj += tiles_[t.next].bytes;
  return adj;
}

double FreeSpace::fragmentation() const {
  if (total_free_ == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free()) /
                   static_cast<double>(total_free_);
}

std::optional<FreeSpace::Run> FreeSpace::cheapest_run(std::uint64_t bytes) {
  // Window [l, r) of `span` bytes; window_[front..] are its blocks with
  // strictly decreasing costs, so window_[front] holds the window's maximum.
  // A later start never needs an earlier end, so r only moves forward.
  std::optional<Run> best;
  window_.clear();
  std::size_t front = 0;
  std::uint64_t span = 0;
  std::uint64_t end_offset = 0;  // where tile r must begin
  TileId l = head_;
  TileId r = head_;
  while (l != kNoTile) {
    while (span < bytes && r != kNoTile) {
      const Tile& t = tiles_[r];
      ATLC_CHECK(t.offset == end_offset, "cache buffer layout corrupted");
      if (!t.free) {
        while (window_.size() > front && tiles_[window_.back()].cost <= t.cost)
          window_.pop_back();
        window_.push_back(r);
      }
      span += t.bytes;
      end_offset += t.bytes;
      r = t.next;
    }
    // A run from l reaches the end of the buffer; so does every later one.
    if (span < bytes) break;
    const double cost = window_.size() > front
                            ? std::max(0.0, tiles_[window_[front]].cost)
                            : 0.0;
    if (!best || cost < best->cost) best = Run{l, r, cost};
    // Advance l to the next free region (the next start).
    do {
      if (l == r) {  // empty window: r moves past l with it
        end_offset += tiles_[r].bytes;
        r = tiles_[r].next;
      } else {
        span -= tiles_[l].bytes;
        if (window_.size() > front && window_[front] == l) ++front;
      }
      l = tiles_[l].next;
    } while (l != kNoTile && !tiles_[l].free);
  }
  return best;
}

void FreeSpace::reset() {
  tiles_.clear();
  spare_.clear();
  by_size_.clear();
  head_ = kNoTile;
  total_free_ = capacity_;
  if (capacity_ == 0) return;
  head_ = new_tile();
  tiles_[head_].bytes = capacity_;
  index_free(head_);
}

}  // namespace atlc::clampi
