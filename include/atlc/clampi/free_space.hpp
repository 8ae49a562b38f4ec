#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace atlc::clampi {

/// Memory manager for the cache's buffer: one address-ordered tiling.
///
/// The buffer is covered, without gaps or overlaps, by *tiles*. A tile is
/// either a free region or a block handed out by allocate(). Tiles live in
/// one flat array and are linked to their address neighbours by index, so
/// coalescing on release, the merge benefit of a block (adjacent_free) and
/// the contiguous-run search (cheapest_run) walk neighbours instead of
/// looking offsets up in a tree. Adjacent free regions are always
/// coalesced. Free regions are also listed in a flat best-fit index sorted
/// by (size, insertion sequence): among equal-size regions the one inserted
/// earliest is handed out first, and a region split by an allocation or
/// grown by a coalesce counts as newly inserted. External fragmentation
/// (free space split into unusably small pieces) is exactly the failure
/// mode the positional eviction score mitigates.
class FreeSpace {
 public:
  /// Index of a tile in the flat array; stable while the tile exists.
  using TileId = std::int32_t;
  static constexpr TileId kNoTile = -1;

  struct Tile {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    /// Blocks: the owner's victim cost, read by cheapest_run().
    double cost = 0.0;
    /// Free regions: insertion sequence (best-fit tie-break).
    std::uint64_t seq = 0;
    TileId prev = kNoTile;  ///< lower-address neighbour
    TileId next = kNoTile;  ///< higher-address neighbour
    std::int32_t owner = -1;  ///< blocks: the caller's tag (set_block)
    bool free = true;
  };

  /// An allocated block. A zero-byte block occupies no tile (kNoTile).
  struct Block {
    std::uint64_t offset = 0;
    TileId tile = kNoTile;
  };

  /// A contiguous span of tiles [first, end) in address order; `end` is
  /// kNoTile when the span ends at the end of the buffer.
  struct Run {
    TileId first = kNoTile;
    TileId end = kNoTile;
    double cost = 0.0;
  };

  explicit FreeSpace(std::uint64_t capacity);

  /// Best-fit allocation: the smallest free region that holds `bytes`,
  /// split at its front. Returns nullopt if no single free region can hold
  /// `bytes` (even if total_free() >= bytes — that is external
  /// fragmentation).
  std::optional<Block> allocate(std::uint64_t bytes);

  /// Return a block to the free pool, coalescing with adjacent regions.
  void release(TileId tile);

  /// Tag a block with its owner and victim cost (see cheapest_run()).
  void set_block(TileId tile, std::int32_t owner, double cost) {
    tiles_[tile].owner = owner;
    tiles_[tile].cost = cost;
  }
  void set_cost(TileId tile, double cost) { tiles_[tile].cost = cost; }
  [[nodiscard]] const Tile& tile(TileId id) const { return tiles_[id]; }

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t total_free() const { return total_free_; }
  [[nodiscard]] std::uint64_t largest_free() const {
    return by_size_.empty() ? 0 : by_size_.back().bytes;
  }

  /// Bytes of free space adjacent to a block — the "merge benefit" of
  /// evicting the entry living there (positional score input).
  [[nodiscard]] std::uint64_t adjacent_free(TileId tile) const;

  /// 0 = one contiguous free region; ->1 = heavily fragmented.
  [[nodiscard]] double fragmentation() const;

  /// Number of disjoint free regions.
  [[nodiscard]] std::size_t num_regions() const { return by_size_.size(); }

  /// The cheapest contiguous span of tiles holding at least `bytes`. A span
  /// starts at offset 0 or at a free region and must end inside the buffer;
  /// its cost is the largest block cost inside it, floored at 0. Among
  /// equal costs the lowest start wins. nullopt iff no start is feasible.
  /// One two-pointer pass over the tiling with a monotone max-deque of
  /// block costs: O(#tiles), no allocation once the scratch has grown.
  /// Costs must not be NaN.
  [[nodiscard]] std::optional<Run> cheapest_run(std::uint64_t bytes);

  /// Drop everything and return to a single free region.
  void reset();

 private:
  struct SizeKey {
    std::uint64_t bytes;
    std::uint64_t seq;
    TileId tile;
    friend bool operator<(const SizeKey& a, const SizeKey& b) {
      return a.bytes != b.bytes ? a.bytes < b.bytes : a.seq < b.seq;
    }
  };

  TileId new_tile();
  void retire_tile(TileId id);
  /// Mark a tile free and list it in the best-fit index as the newest region.
  void index_free(TileId id);
  void unindex_free(TileId id);

  std::uint64_t capacity_;
  std::uint64_t total_free_ = 0;
  std::uint64_t next_seq_ = 0;
  TileId head_ = kNoTile;  ///< the tile at offset 0
  std::vector<Tile> tiles_;
  std::vector<TileId> spare_;     // retired tile ids, reused first
  std::vector<SizeKey> by_size_;  // free regions, sorted by (bytes, seq)
  std::vector<TileId> window_;    // cheapest_run's max-deque scratch
};

}  // namespace atlc::clampi
