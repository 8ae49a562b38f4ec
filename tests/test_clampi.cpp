// Tests for the CLaMPI-style cache: free-space management, hash index,
// victim selection (LRU+positional and user scores), miss classification,
// consistency modes, adaptive resizing, and the CachedWindow integration.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "atlc/clampi/cache.hpp"
#include "atlc/clampi/cached_window.hpp"
#include "atlc/clampi/free_space.hpp"
#include "atlc/util/rng.hpp"

namespace atlc::clampi {
namespace {

std::vector<std::byte> payload(std::size_t n, std::uint8_t fill) {
  return std::vector<std::byte>(n, std::byte{fill});
}

Key key_of(std::uint32_t target, std::uint64_t off, std::uint64_t bytes) {
  return Key{target, off, bytes};
}

// -------------------------------------------------------------- FreeSpace ---

TEST(FreeSpace, AllocateAndReleaseRoundTrip) {
  FreeSpace fs(1024);
  EXPECT_EQ(fs.total_free(), 1024u);
  const auto a = fs.allocate(100);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(fs.total_free(), 924u);
  fs.release(a->tile);
  EXPECT_EQ(fs.total_free(), 1024u);
  EXPECT_EQ(fs.num_regions(), 1u);  // coalesced back to one region
}

TEST(FreeSpace, BestFitPrefersSmallestFittingRegion) {
  FreeSpace fs(1000);
  const auto a = fs.allocate(100);  // [0,100)
  const auto b = fs.allocate(50);   // [100,150)
  const auto c = fs.allocate(200);  // [150,350)
  ASSERT_TRUE(a && b && c);
  fs.release(a->tile);  // free: [0,100)
  fs.release(c->tile);  // free: [150,350) and tail [350,1000)
  // A 90-byte request best-fits the 100-byte hole, not the 200-byte one.
  const auto d = fs.allocate(90);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->offset, 0u);
}

TEST(FreeSpace, CoalescesBothSides) {
  FreeSpace fs(300);
  const auto a = fs.allocate(100);
  const auto b = fs.allocate(100);
  const auto c = fs.allocate(100);
  ASSERT_TRUE(a && b && c);
  fs.release(a->tile);
  fs.release(c->tile);
  EXPECT_EQ(fs.num_regions(), 2u);
  fs.release(b->tile);  // merges with both neighbors
  EXPECT_EQ(fs.num_regions(), 1u);
  EXPECT_EQ(fs.largest_free(), 300u);
}

TEST(FreeSpace, ExternalFragmentationBlocksLargeAlloc) {
  FreeSpace fs(300);
  const auto a = fs.allocate(100);
  const auto b = fs.allocate(100);
  const auto c = fs.allocate(100);
  ASSERT_TRUE(a && b && c);
  fs.release(a->tile);
  fs.release(c->tile);
  // 200 bytes free in total, but no single 150-byte region.
  EXPECT_EQ(fs.total_free(), 200u);
  EXPECT_FALSE(fs.allocate(150).has_value());
  EXPECT_GT(fs.fragmentation(), 0.0);
}

TEST(FreeSpace, AdjacentFreeMeasuresMergeBenefit) {
  FreeSpace fs(300);
  const auto a = fs.allocate(100);
  const auto b = fs.allocate(100);
  ASSERT_TRUE(a && b);
  fs.release(a->tile);
  // Entry b ([100,200)) has 100 free bytes before it and 100 after.
  EXPECT_EQ(fs.adjacent_free(b->tile), 200u);
}

TEST(FreeSpace, ZeroByteAllocSucceeds) {
  FreeSpace fs(16);
  EXPECT_TRUE(fs.allocate(0).has_value());
  EXPECT_EQ(fs.total_free(), 16u);
}

TEST(FreeSpace, ResetRestoresSingleRegion) {
  FreeSpace fs(128);
  (void)fs.allocate(64);
  fs.reset();
  EXPECT_EQ(fs.total_free(), 128u);
  EXPECT_EQ(fs.num_regions(), 1u);
}

// The tie-breaks below decide which entries make_room evicts, so every
// virtual-time result depends on them; the flat layout must keep them.

TEST(FreeSpace, BestFitAmongEqualSizesPicksEarliestInserted) {
  FreeSpace fs(1000);
  const auto a = fs.allocate(100);  // [0,100)
  (void)fs.allocate(10);            // separator
  (void)fs.allocate(100);           // [110,210)
  (void)fs.allocate(10);            // separator
  const auto c = fs.allocate(100);  // [220,320)
  (void)fs.allocate(10);            // separator; tail [330,1000) stays free
  ASSERT_TRUE(a && c);
  fs.release(c->tile);  // inserted first
  fs.release(a->tile);  // same size, inserted second, lower address
  const auto first = fs.allocate(100);
  const auto second = fs.allocate(100);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->offset, 220u);
  EXPECT_EQ(second->offset, 0u);
}

TEST(FreeSpaceRun, EqualCostsPickEarliestStart) {
  // [0,100) cost 9 | free 50 | [150,250) cost 3 | free 50 | [300,400) cost 3
  FreeSpace fs(400);
  const auto a = fs.allocate(100);
  const auto x = fs.allocate(50);
  const auto b = fs.allocate(100);
  const auto y = fs.allocate(50);
  const auto c = fs.allocate(100);
  ASSERT_TRUE(a && x && b && y && c);
  fs.set_block(a->tile, 0, 9.0);
  fs.set_block(b->tile, 1, 3.0);
  fs.set_block(c->tile, 2, 3.0);
  fs.release(x->tile);
  fs.release(y->tile);
  // Starts 100 and 250 both cost 3 for 150 bytes: the lower one wins.
  const auto run = fs.cheapest_run(150);
  ASSERT_TRUE(run);
  EXPECT_EQ(fs.tile(run->first).offset, 100u);
  EXPECT_EQ(run->end, y->tile);  // the free region after [150,250)
  EXPECT_EQ(run->cost, 3.0);
}

TEST(FreeSpaceRun, RunReachingBufferEndIsInfeasible) {
  // [0,100) cost 7 | [100,200) cost 7 | [200,250) cost 1 | free [250,300)
  FreeSpace fs(300);
  const auto a = fs.allocate(100);
  const auto b = fs.allocate(100);
  const auto c = fs.allocate(50);
  ASSERT_TRUE(a && b && c);
  fs.set_block(a->tile, 0, 7.0);
  fs.set_block(b->tile, 1, 7.0);
  fs.set_block(c->tile, 2, 1.0);
  // The free tail would cost 0 but holds only 50 bytes before the end.
  const auto run = fs.cheapest_run(120);
  ASSERT_TRUE(run);
  EXPECT_EQ(fs.tile(run->first).offset, 0u);
  EXPECT_EQ(run->cost, 7.0);
  EXPECT_FALSE(fs.cheapest_run(301).has_value());
}

TEST(FreeSpaceRun, OffsetZeroIsAStartEvenWhenOccupied) {
  // [0,100) cost 1 | free [100,150) | [150,300) cost 8
  FreeSpace fs(300);
  const auto a = fs.allocate(100);
  const auto x = fs.allocate(50);
  const auto b = fs.allocate(150);
  ASSERT_TRUE(a && x && b);
  fs.set_block(a->tile, 0, 1.0);
  fs.set_block(b->tile, 1, 8.0);
  fs.release(x->tile);
  const auto run = fs.cheapest_run(150);
  ASSERT_TRUE(run);
  EXPECT_EQ(run->first, a->tile);
  EXPECT_EQ(run->cost, 1.0);
}

// ------------------------------------------------------------- Cache core ---

CacheConfig small_config() {
  CacheConfig c;
  c.buffer_bytes = 1024;
  c.hash_slots = 64;
  c.mode = Mode::AlwaysCache;
  return c;
}

TEST(Cache, InsertThenHit) {
  Cache cache(small_config());
  const auto data = payload(32, 0xAB);
  const Key k = key_of(1, 0, 32);
  EXPECT_TRUE(cache.insert(k, data.data()));
  std::vector<std::byte> out(32);
  EXPECT_TRUE(cache.lookup(k, out.data()));
  EXPECT_EQ(out, data);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, MissOnUnknownKey) {
  Cache cache(small_config());
  std::vector<std::byte> out(8);
  EXPECT_FALSE(cache.lookup(key_of(0, 0, 8), out.data()));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().compulsory_misses, 1u);
}

TEST(Cache, DistinguishesKeysByAllFields) {
  Cache cache(small_config());
  const auto a = payload(16, 1), b = payload(16, 2);
  EXPECT_TRUE(cache.insert(key_of(0, 0, 16), a.data()));
  EXPECT_TRUE(cache.insert(key_of(1, 0, 16), b.data()));  // same offset, other target
  std::vector<std::byte> out(16);
  EXPECT_TRUE(cache.lookup(key_of(1, 0, 16), out.data()));
  EXPECT_EQ(out, b);
  EXPECT_FALSE(cache.lookup(key_of(2, 0, 16), out.data()));
}

TEST(Cache, OversizedEntryRejected) {
  Cache cache(small_config());
  const auto data = payload(2048, 3);  // buffer is 1024
  EXPECT_FALSE(cache.insert(key_of(0, 0, 2048), data.data()));
  EXPECT_EQ(cache.stats().insert_failures, 1u);
}

TEST(Cache, CapacityEvictionMakesRoom) {
  Cache cache(small_config());  // 1024 B buffer
  const auto data = payload(256, 9);
  for (std::uint32_t i = 0; i < 6; ++i)
    EXPECT_TRUE(cache.insert(key_of(0, i * 256, 256), data.data()));
  EXPECT_LE(cache.num_entries(), 4u);
  EXPECT_GE(cache.stats().evictions_space, 2u);
}

TEST(Cache, LruEvictsColdestEntry) {
  CacheConfig cfg = small_config();
  cfg.lru_window = 1;  // pure LRU (no positional rescue)
  Cache cache(cfg);
  const auto data = payload(256, 1);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 256, 256), data.data()));
  // Touch entry 0 so entry 1 becomes the coldest.
  std::vector<std::byte> out(256);
  ASSERT_TRUE(cache.lookup(key_of(0, 0, 256), out.data()));
  ASSERT_TRUE(cache.insert(key_of(0, 4 * 256, 256), data.data()));  // evicts #1
  EXPECT_TRUE(cache.lookup(key_of(0, 0, 256), out.data()));
  EXPECT_FALSE(cache.lookup(key_of(0, 1 * 256, 256), out.data()));
}

TEST(Cache, CapacityMissClassification) {
  CacheConfig cfg = small_config();
  cfg.lru_window = 1;
  Cache cache(cfg);
  const auto data = payload(512, 1);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 512), data.data()));
  ASSERT_TRUE(cache.insert(key_of(0, 512, 512), data.data()));
  ASSERT_TRUE(cache.insert(key_of(0, 1024, 512), data.data()));  // evicts first
  std::vector<std::byte> out(512);
  EXPECT_FALSE(cache.lookup(key_of(0, 0, 512), out.data()));
  EXPECT_EQ(cache.stats().capacity_misses, 1u);
  EXPECT_EQ(cache.stats().compulsory_misses, 0u);
}

TEST(Cache, UserScoreEvictsLowestScore) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  const auto data = payload(256, 1);
  // Insert four entries with scores 10, 1, 7, 5 — capacity full.
  ASSERT_TRUE(cache.insert(key_of(0, 0, 256), data.data(), 10));
  ASSERT_TRUE(cache.insert(key_of(0, 256, 256), data.data(), 1));
  ASSERT_TRUE(cache.insert(key_of(0, 512, 256), data.data(), 7));
  ASSERT_TRUE(cache.insert(key_of(0, 768, 256), data.data(), 5));
  // Next insert evicts the score-1 entry regardless of recency.
  std::vector<std::byte> out(256);
  ASSERT_TRUE(cache.lookup(key_of(0, 256, 256), out.data()));  // make it MRU
  ASSERT_TRUE(cache.insert(key_of(0, 1024, 256), data.data(), 8));
  EXPECT_FALSE(cache.lookup(key_of(0, 256, 256), out.data()));
  EXPECT_TRUE(cache.lookup(key_of(0, 0, 256), out.data()));
}

TEST(Cache, UserScoreProtectsHighDegreeEntries) {
  // The paper's motivation: high-degree adjacency lists should survive
  // floods of low-degree entries.
  CacheConfig cfg;
  cfg.buffer_bytes = 4096;
  cfg.hash_slots = 256;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  const auto hub_data = payload(1024, 0x77);
  ASSERT_TRUE(cache.insert(key_of(9, 0, 1024), hub_data.data(), 1000.0));
  const auto small = payload(64, 1);
  for (std::uint32_t i = 0; i < 200; ++i)
    (void)cache.insert(key_of(0, i * 64, 64), small.data(), 2.0);
  std::vector<std::byte> out(1024);
  EXPECT_TRUE(cache.lookup(key_of(9, 0, 1024), out.data()));
  EXPECT_EQ(out, hub_data);
}

TEST(Cache, ConflictEvictionWhenProbeWindowFull) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1 << 20;  // space is NOT the constraint
  cfg.hash_slots = 4;          // tiny table
  cfg.probe_limit = 2;
  Cache cache(cfg);
  const auto data = payload(16, 1);
  for (std::uint32_t i = 0; i < 64; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 16, 16), data.data()));
  EXPECT_GT(cache.stats().evictions_conflict, 0u);
  EXPECT_LE(cache.num_entries(), 4u);
}

TEST(Cache, FlushDropsEverythingAndCountsFlushMisses) {
  Cache cache(small_config());
  const auto data = payload(64, 1);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 64), data.data()));
  cache.flush();
  EXPECT_EQ(cache.num_entries(), 0u);
  std::vector<std::byte> out(64);
  EXPECT_FALSE(cache.lookup(key_of(0, 0, 64), out.data()));
  EXPECT_EQ(cache.stats().flush_misses, 1u);
}

TEST(Cache, TransparentModeFlushesOnEpochClose) {
  CacheConfig cfg = small_config();
  cfg.mode = Mode::Transparent;
  Cache cache(cfg);
  const auto data = payload(64, 1);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 64), data.data()));
  cache.epoch_close();
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(Cache, AlwaysCacheModeSurvivesEpochClose) {
  Cache cache(small_config());  // AlwaysCache
  const auto data = payload(64, 1);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 64), data.data()));
  cache.epoch_close();
  EXPECT_EQ(cache.num_entries(), 1u);
}

TEST(Cache, AdaptiveResizeFlushesAndGrows) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1 << 20;
  cfg.hash_slots = 4;
  cfg.probe_limit = 2;
  cfg.adaptive = true;
  cfg.adaptive_interval = 64;
  Cache cache(cfg);
  const auto data = payload(16, 1);
  std::vector<std::byte> out(16);
  // Hammer with distinct keys: conflicts mount, adaptivity must kick in.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    if (!cache.lookup(key_of(0, i * 16, 16), out.data()))
      (void)cache.insert(key_of(0, i * 16, 16), data.data());
  }
  EXPECT_GT(cache.stats().hash_resizes, 0u);
  EXPECT_GT(cache.stats().flushes, 0u);
}

TEST(Cache, EntriesSnapshotMatchesContents) {
  Cache cache(small_config());
  const auto data = payload(32, 1);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 32), data.data(), 3.5));
  ASSERT_TRUE(cache.insert(key_of(1, 64, 32), data.data(), 7.0));
  const auto entries = cache.entries();
  ASSERT_EQ(entries.size(), 2u);
  double score_sum = 0;
  for (const auto& e : entries) score_sum += e.user_score;
  EXPECT_DOUBLE_EQ(score_sum, 10.5);
}

TEST(Cache, SizingHeuristics) {
  // Fixed-size entries: one slot per entry that fits.
  EXPECT_EQ(Cache::suggest_hash_slots_fixed(1024, 16), 64u);
  // Power law (paper: n * f^alpha, alpha=2): half-the-graph cache on 1e6
  // vertices expects 1e6 * 0.25 entries.
  EXPECT_EQ(Cache::suggest_hash_slots_power_law(1000000, 0.5), 250000u);
  // Degenerate inputs stay sane.
  EXPECT_GE(Cache::suggest_hash_slots_fixed(0, 16), 16u);
  EXPECT_GE(Cache::suggest_hash_slots_power_law(100, 0.0), 16u);
}

// Shadow-model property test: with ample space and slots, the cache must
// behave exactly like a map (every inserted key hits with correct data).
TEST(Cache, ShadowModelNoEvictionRegime) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1 << 20;
  cfg.hash_slots = 1 << 14;
  Cache cache(cfg);
  util::Xoshiro256 rng(42);
  std::map<std::uint64_t, std::vector<std::byte>> shadow;
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t off = rng.next_below(256) * 8;
    const std::uint64_t bytes = 8 + rng.next_below(4) * 8;
    const Key k = key_of(0, off, bytes);
    const std::uint64_t id = key_hash(k);
    std::vector<std::byte> out(bytes);
    const bool hit = cache.lookup(k, out.data());
    const auto it = shadow.find(id);
    EXPECT_EQ(hit, it != shadow.end()) << "step " << step;
    if (hit) {
      EXPECT_EQ(out, it->second);
    } else {
      const auto data = payload(bytes, static_cast<std::uint8_t>(off ^ bytes));
      ASSERT_TRUE(cache.insert(k, data.data()));
      shadow[id] = data;
    }
  }
  EXPECT_EQ(cache.num_entries(), shadow.size());
  EXPECT_EQ(cache.stats().evictions_space, 0u);
  EXPECT_EQ(cache.stats().evictions_conflict, 0u);
}

// Under heavy eviction pressure, hits must still return the right bytes.
TEST(Cache, EvictionRegimeNeverServesWrongData) {
  CacheConfig cfg;
  cfg.buffer_bytes = 4096;
  cfg.hash_slots = 32;
  cfg.probe_limit = 4;
  Cache cache(cfg);
  util::Xoshiro256 rng(7);
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t idx = rng.next_below(64);
    const std::uint64_t bytes = 64 + (idx % 7) * 32;
    const Key k = key_of(0, idx * 1024, bytes);
    std::vector<std::byte> out(bytes);
    const auto expected = payload(bytes, static_cast<std::uint8_t>(idx));
    if (cache.lookup(k, out.data())) {
      EXPECT_EQ(out, expected) << "corrupted hit at step " << step;
    } else {
      (void)cache.insert(k, expected.data());
    }
  }
  EXPECT_GT(cache.stats().evictions_space + cache.stats().evictions_conflict,
            0u);
}

// ---------------------------------------------- admission & run eviction ---

TEST(CacheAdmission, LowScoreNewcomerRejected) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  const auto data = payload(256, 1);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 256, 256), data.data(), 50.0));
  // Cache is full of score-50 residents; a score-10 newcomer must bounce.
  EXPECT_FALSE(cache.insert(key_of(0, 9999, 256), data.data(), 10.0));
  EXPECT_GT(cache.stats().admission_rejects, 0u);
  EXPECT_EQ(cache.num_entries(), 4u);
  // All residents still served.
  std::vector<std::byte> out(256);
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_TRUE(cache.lookup(key_of(0, i * 256, 256), out.data()));
}

TEST(CacheAdmission, EqualScoreDoesNotChurn) {
  CacheConfig cfg = small_config();
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  const auto data = payload(256, 1);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 256, 256), data.data(), 5.0));
  // Same-score newcomers must not displace residents (no cycling).
  EXPECT_FALSE(cache.insert(key_of(1, 0, 256), data.data(), 5.0));
  EXPECT_EQ(cache.num_entries(), 4u);
}

TEST(CacheRunEviction, AssemblesContiguousSpaceForLargeEntry) {
  // Buffer packed with 32 small low-score entries; a high-score entry of
  // half the buffer must be admitted by clearing a contiguous run.
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.hash_slots = 128;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  const auto small = payload(32, 1);
  for (std::uint32_t i = 0; i < 32; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 32, 32), small.data(), 1.0));
  const auto big = payload(512, 9);
  EXPECT_TRUE(cache.insert(key_of(7, 0, 512), big.data(), 100.0));
  std::vector<std::byte> out(512);
  EXPECT_TRUE(cache.lookup(key_of(7, 0, 512), out.data()));
  EXPECT_EQ(out, big);
}

TEST(CacheRunEviction, HubsDoNotThrashEachOther) {
  // A hub-sized resident with the top score must not be sacrificed to
  // admit a slightly lower-scored hub (strictly-descending displacement
  // only — this is what keeps the paper's degree scores stable).
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.hash_slots = 128;
  cfg.policy = VictimPolicy::UserScore;
  Cache cache(cfg);
  const auto hub_a = payload(768, 0xA);
  ASSERT_TRUE(cache.insert(key_of(0, 0, 768), hub_a.data(), 1000.0));
  const auto filler = payload(64, 1);
  for (std::uint32_t i = 0; i < 4; ++i)
    (void)cache.insert(key_of(1, i * 64, 64), filler.data(), 2.0);
  // Hub B (score 900) cannot fit without clearing hub A (score 1000).
  const auto hub_b = payload(768, 0xB);
  EXPECT_FALSE(cache.insert(key_of(2, 0, 768), hub_b.data(), 900.0));
  std::vector<std::byte> out(768);
  EXPECT_TRUE(cache.lookup(key_of(0, 0, 768), out.data()));
  EXPECT_EQ(out, hub_a);
}

TEST(CacheRunEviction, LruPolicyStillAdmitsLargeEntries) {
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.hash_slots = 128;  // LruPositional default policy
  Cache cache(cfg);
  const auto small = payload(32, 1);
  for (std::uint32_t i = 0; i < 32; ++i)
    ASSERT_TRUE(cache.insert(key_of(0, i * 32, 32), small.data()));
  const auto big = payload(900, 5);
  EXPECT_TRUE(cache.insert(key_of(3, 0, 900), big.data()));
  std::vector<std::byte> out(900);
  EXPECT_TRUE(cache.lookup(key_of(3, 0, 900), out.data()));
  EXPECT_EQ(out, big);
}

TEST(CacheRunEviction, RunCostEqualToIncomingScoreIsRejected) {
  // 32 entries of 32 bytes alternate scores 1 and 5. A 512-byte newcomer
  // makes phase 1 evict the sixteen score-1 entries, which leaves 32-byte
  // holes between score-5 entries, so every contiguous run costs 5.
  auto fill = [](Cache& cache) {
    const auto small = payload(32, 1);
    for (std::uint32_t i = 0; i < 32; ++i)
      ASSERT_TRUE(cache.insert(key_of(0, i * 32, 32), small.data(),
                               i % 2 == 0 ? 1.0 : 5.0));
    ASSERT_EQ(cache.num_entries(), 32u);
  };
  CacheConfig cfg;
  cfg.buffer_bytes = 1024;
  cfg.hash_slots = 1024;
  cfg.policy = VictimPolicy::UserScore;
  const auto big = payload(512, 9);

  Cache equal(cfg);
  fill(equal);
  // Cost 5 against an incoming score of 5: admission denied (>=).
  EXPECT_FALSE(equal.insert(key_of(7, 0, 512), big.data(), 5.0));
  EXPECT_EQ(equal.stats().admission_rejects, 1u);
  EXPECT_EQ(equal.stats().evictions_space, 16u);
  EXPECT_EQ(equal.num_entries(), 16u);

  Cache above(cfg);
  fill(above);
  EXPECT_TRUE(above.insert(key_of(7, 0, 512), big.data(), 5.5));
  EXPECT_EQ(above.stats().admission_rejects, 0u);
}

// --------------------------------------------------------- CachedWindow ---

TEST(CachedWindow, HitsAvoidRemoteGets) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(256);
    for (std::size_t i = 0; i < local.size(); ++i)
      local[i] = ctx.rank() * 1000 + static_cast<std::uint32_t>(i);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 16;
    cfg.hash_slots = 256;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[8];
    win.get(peer, 16, 8, buf);  // miss -> remote
    EXPECT_EQ(ctx.stats().remote_gets, 1u);
    EXPECT_EQ(buf[0], peer * 1000 + 16);

    win.get(peer, 16, 8, buf);  // hit -> served locally
    EXPECT_EQ(ctx.stats().remote_gets, 1u);  // unchanged
    EXPECT_EQ(buf[7], peer * 1000 + 23);
    EXPECT_EQ(win.cache().stats().hits, 1u);
    ctx.barrier();
  });
}

TEST(CachedWindow, LocalGetsBypassCache) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(64, ctx.rank());
    auto raw = ctx.create_window<std::uint32_t>(local);
    CachedWindow<std::uint32_t> win(ctx, raw, small_config());
    std::uint32_t buf[4];
    win.get(ctx.rank(), 0, 4, buf);
    EXPECT_EQ(win.cache().stats().accesses(), 0u);
    EXPECT_EQ(ctx.stats().local_gets, 1u);
    ctx.barrier();
  });
}

TEST(CachedWindow, HitChargesLessThanMiss) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(1 << 12, 5);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 16;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);
    std::vector<std::uint32_t> buf(1024);

    const double t0 = ctx.now();
    win.get(1 - ctx.rank(), 0, 1024, buf.data());
    const double miss_cost = ctx.now() - t0;
    const double t1 = ctx.now();
    win.get(1 - ctx.rank(), 0, 1024, buf.data());
    const double hit_cost = ctx.now() - t1;
    EXPECT_LT(hit_cost, miss_cost / 5.0);
    ctx.barrier();
  });
}

// ----------------------------------------------------- epoch invalidation ---

TEST(CacheEpochs, StaleEntryServedAsMissAndRecycled) {
  Cache cache(small_config());
  const auto v1 = payload(32, 0x11);
  const Key k = key_of(1, 0, 32);
  EXPECT_TRUE(cache.insert(k, v1.data()));

  cache.set_epoch(1);  // the window the payload came from was refreshed
  std::vector<std::byte> out(32, std::byte{0});
  EXPECT_FALSE(cache.lookup(k, out.data()));  // never served stale
  EXPECT_EQ(out, payload(32, 0x00));          // dst untouched on miss
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.num_entries(), 0u);  // recycled, not resident

  // Re-insert at the new epoch: served again.
  const auto v2 = payload(32, 0x22);
  EXPECT_TRUE(cache.insert(k, v2.data()));
  EXPECT_TRUE(cache.lookup(k, out.data()));
  EXPECT_EQ(out, v2);
}

TEST(CacheEpochs, ContainsTreatsStaleAsAbsentAndInsertReplaces) {
  Cache cache(small_config());
  const auto v1 = payload(16, 0x01);
  const Key k = key_of(2, 8, 16);
  EXPECT_TRUE(cache.insert(k, v1.data()));
  EXPECT_TRUE(cache.contains(k));

  cache.set_epoch(3);
  EXPECT_FALSE(cache.contains(k));  // stale reads as absent...
  const auto v2 = payload(16, 0x02);
  EXPECT_TRUE(cache.insert(k, v2.data()));  // ...and insert replaces it
  EXPECT_EQ(cache.stats().stale_evictions, 1u);
  std::vector<std::byte> out(16);
  EXPECT_TRUE(cache.lookup(k, out.data()));
  EXPECT_EQ(out, v2);
}

TEST(CacheEpochs, SameEpochKeepsAlwaysCacheBehaviour) {
  Cache cache(small_config());
  const auto data = payload(16, 0x0A);
  const Key k = key_of(0, 0, 16);
  EXPECT_TRUE(cache.insert(k, data.data()));
  cache.set_epoch(0);  // unchanged epoch: nothing invalidated
  std::vector<std::byte> out(16);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(cache.lookup(k, out.data()));
  EXPECT_EQ(cache.stats().stale_evictions, 0u);
}

TEST(CachedWindow, RefreshWindowInvalidatesCachedEntries) {
  // The full stack: a cached get, a collective refresh_window republishing
  // mutated data, then the same get again — the new bytes must be served
  // and the stale entry recycled, with the invalidation observable in the
  // stats.
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(128, ctx.rank() + 1);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 14;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[4] = {};
    win.get(peer, 0, 4, buf);  // miss -> cached
    EXPECT_EQ(buf[0], peer + 1);
    win.get(peer, 0, 4, buf);  // hit from cache
    EXPECT_EQ(win.cache().stats().hits, 1u);
    EXPECT_EQ(raw.epoch(), 0u);

    // Mutate the exposed buffer and republish (collective). In-place
    // mutation needs its own quiesce barrier BEFORE touching the bytes —
    // refresh_window's entry fence only orders the republication, not a
    // mutation the caller performed ahead of the call.
    ctx.barrier();
    for (auto& x : local) x += 100;
    ctx.refresh_window(raw, std::span<const std::uint32_t>(local));
    EXPECT_EQ(raw.epoch(), 1u);

    win.get(peer, 0, 4, buf);  // stale probe -> recycled -> fresh fetch
    EXPECT_EQ(buf[0], peer + 101) << "stale payload must never be served";
    EXPECT_EQ(win.cache().stats().stale_evictions, 1u);
    EXPECT_EQ(win.cache().stats().hits, 1u);  // no new hit from the probe

    win.get(peer, 0, 4, buf);  // re-cached at the new epoch: hits again
    EXPECT_EQ(buf[0], peer + 101);
    EXPECT_EQ(win.cache().stats().hits, 2u);
    ctx.barrier();
  });
}

TEST(CachedWindow, PendingMissAcrossRefreshIsNotCached) {
  // A miss transfer issued before a refresh_window and finished after it
  // carries pre-refresh bytes (the simulated get copies eagerly). finish()
  // must DISCARD that payload instead of inserting it stamped with the new
  // epoch — otherwise a later lookup would serve stale bytes as a fresh
  // hit.
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(64, ctx.rank() + 1);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 14;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);

    const std::uint32_t peer = 1 - ctx.rank();
    std::uint32_t buf[4] = {};
    auto pending = win.begin_get(peer, 0, 4, buf, 1.0);  // miss in flight
    std::vector<std::uint32_t> next(64, ctx.rank() + 77);
    ctx.refresh_window(raw, std::span<const std::uint32_t>(next));
    win.finish(pending);
    EXPECT_EQ(buf[0], peer + 1);  // caller sees the pre-refresh transfer
    EXPECT_EQ(win.cache().num_entries(), 0u) << "stale payload cached";

    win.get(peer, 0, 4, buf);  // must refetch from the live exposure
    EXPECT_EQ(buf[0], peer + 77);
    EXPECT_EQ(win.cache().stats().hits, 0u);
    ctx.barrier();  // keep `next` exposed until all peers finished
  });
}

TEST(CachedWindow, OverlappedMissInsertsOnFinish) {
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    std::vector<std::uint32_t> local(4096, 9);
    auto raw = ctx.create_window<std::uint32_t>(local);
    CacheConfig cfg;
    cfg.buffer_bytes = 1 << 16;
    cfg.hash_slots = 64;
    CachedWindow<std::uint32_t> win(ctx, raw, cfg);
    std::vector<std::uint32_t> buf(512);
    auto pending = win.begin_get(1 - ctx.rank(), 0, 512, buf.data(), 3.0);
    EXPECT_EQ(win.cache().num_entries(), 0u);  // not yet inserted
    ctx.charge_compute(1e-3);                  // overlapping work
    win.finish(pending);
    EXPECT_EQ(win.cache().num_entries(), 1u);
    EXPECT_EQ(buf[0], 9u);
    ctx.barrier();
  });
}

}  // namespace
}  // namespace atlc::clampi
