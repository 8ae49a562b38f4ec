// Differential fuzz of the CLaMPI cache: the library's flat-layout Cache and
// FreeSpace against the tree-based reference model in clampi_reference.hpp.
// Every op is applied to both; after each one the return values, copied
// payload bytes, entries() (LRU order, scores, ticks), num_entries(),
// used_bytes(), fragmentation() and all 15 CacheStats counters must match
// exactly. Buffers are small and key sets skewed toward a few hub-sized
// payloads, so make_room's contiguous-run phase runs in most sequences.
// ATLC_CLAMPI_SEED rotates the sequences; the seed is printed for replay.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "atlc/clampi/cache.hpp"
#include "atlc/clampi/free_space.hpp"
#include "atlc/util/rng.hpp"
#include "clampi_reference.hpp"

namespace atlc::clampi {
namespace {

std::uint64_t fuzz_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = 20261018;  // fixed default: deterministic tier-1 gate
    if (const char* env = std::getenv("ATLC_CLAMPI_SEED"); env && *env)
      s = std::strtoull(env, nullptr, 10);
    std::printf("[clampi] seed = %llu (set ATLC_CLAMPI_SEED to replay)\n",
                static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

#define ATLC_EXPECT_STAT_EQ(field) \
  EXPECT_EQ(got.field, want.field) << "CacheStats::" #field

void expect_stats_eq(const CacheStats& got, const CacheStats& want) {
  ATLC_EXPECT_STAT_EQ(hits);
  ATLC_EXPECT_STAT_EQ(misses);
  ATLC_EXPECT_STAT_EQ(compulsory_misses);
  ATLC_EXPECT_STAT_EQ(capacity_misses);
  ATLC_EXPECT_STAT_EQ(conflict_misses);
  ATLC_EXPECT_STAT_EQ(flush_misses);
  ATLC_EXPECT_STAT_EQ(evictions_space);
  ATLC_EXPECT_STAT_EQ(evictions_conflict);
  ATLC_EXPECT_STAT_EQ(stale_evictions);
  ATLC_EXPECT_STAT_EQ(insert_failures);
  ATLC_EXPECT_STAT_EQ(admission_rejects);
  ATLC_EXPECT_STAT_EQ(flushes);
  ATLC_EXPECT_STAT_EQ(hash_resizes);
  ATLC_EXPECT_STAT_EQ(bytes_hit);
  ATLC_EXPECT_STAT_EQ(bytes_missed);
}

#undef ATLC_EXPECT_STAT_EQ

void expect_state_eq(const Cache& got, const reference::Cache& want) {
  EXPECT_EQ(got.num_entries(), want.num_entries());
  EXPECT_EQ(got.used_bytes(), want.used_bytes());
  EXPECT_EQ(bits(got.fragmentation()), bits(want.fragmentation()))
      << got.fragmentation() << " vs " << want.fragmentation();
  expect_stats_eq(got.stats(), want.stats());
  const std::vector<EntryInfo> g = got.entries();
  const std::vector<EntryInfo> w = want.entries();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].key, w[i].key) << "LRU position " << i;
    EXPECT_EQ(bits(g[i].user_score), bits(w[i].user_score)) << "position " << i;
    EXPECT_EQ(g[i].last_tick, w[i].last_tick) << "LRU position " << i;
  }
}

/// One sequence's configuration: small buffers and hash tables so that
/// capacity evictions, hash conflicts and adaptive resizes all happen.
CacheConfig random_config(util::Xoshiro256& rng) {
  CacheConfig c;
  c.buffer_bytes = rng.next_below(100) == 0 ? 0 : 96 + rng.next_below(1024);
  c.hash_slots = rng.next_below(4) == 0 ? 1 + rng.next_below(32)
                                        : 32 + rng.next_below(256);
  c.probe_limit = 1 + rng.next_below(8);
  c.mode = static_cast<Mode>(rng.next_below(3));
  c.policy = static_cast<VictimPolicy>(rng.next_below(2));
  c.lru_window = 1 + rng.next_below(16);
  c.classify_misses = rng.next_below(2) == 1;
  c.adaptive = rng.next_below(2) == 1;
  c.adaptive_interval = 1 + rng.next_below(32);
  constexpr double kThresholds[] = {0.0, 0.05, 0.3};
  c.adaptive_conflict_threshold = kThresholds[rng.next_below(3)];
  c.max_hash_slots = c.hash_slots * (1 + rng.next_below(8));
  return c;
}

/// Key set with mostly small payloads and a few hub-sized ones (a quarter
/// of the buffer up to all of it). Once more than 16 small entries are
/// resident, a hub insert outlasts make_room's single evictions and reaches
/// the contiguous-run search. A few keys are empty or larger than the
/// buffer (insert failures).
std::vector<Key> random_keys(util::Xoshiro256& rng, std::uint64_t buffer) {
  const std::size_t n = 48 + rng.next_below(256);
  const std::uint64_t small = 1 + buffer / (8 + rng.next_below(40));
  std::vector<Key> keys;
  for (std::size_t i = 0; i < n; ++i) {
    Key k;
    k.target = static_cast<std::uint32_t>(rng.next_below(3));
    k.offset = rng.next_below(256);
    const std::uint64_t dice = rng.next_below(100);
    const std::uint64_t room = std::max<std::uint64_t>(buffer, 4);
    if (dice < 88)
      k.bytes = 1 + rng.next_below(small);
    else if (dice < 93)
      k.bytes = 1 + rng.next_below(room / 4);
    else if (dice < 98)
      k.bytes = room / 4 + rng.next_below(room - room / 4 + 1);
    else
      k.bytes = rng.next_below(2) == 0 ? 0 : room + 1 + rng.next_below(64);
    keys.push_back(k);
  }
  return keys;
}

/// Scores from a small set, so equal-score ties (score-index order, run
/// costs equal to the newcomer's score) are frequent. Like degree scores,
/// big payloads tend to score higher. `shift` < 0 makes most scores
/// negative (run costs are floored at 0).
double random_score(util::Xoshiro256& rng, const Key& k, std::uint64_t buffer,
                    double shift) {
  const std::uint64_t bonus = 4 * k.bytes >= buffer ? 3 : 0;
  const double s = static_cast<double>(rng.next_below(5) + bonus) + shift;
  return rng.next_below(8) == 0 ? s + 0.5 : s;
}

TEST(ClampiFuzz, CacheMatchesReferenceOver10kSeededSequences) {
  const std::uint64_t base = fuzz_seed();
  constexpr std::size_t kSequences = 10'500;
  constexpr std::size_t kOpsPerSeq = 160;
  std::vector<std::byte> data, got_buf, want_buf;

  for (std::size_t s = 0; s < kSequences; ++s) {
    util::Xoshiro256 rng(util::mix64(base, 0xc1a0 + s));
    const CacheConfig cfg = random_config(rng);
    const std::vector<Key> keys = random_keys(rng, cfg.buffer_bytes);
    Cache cache(cfg);
    reference::Cache model(cfg);
    std::uint64_t epoch = 0;
    const double score_shift = rng.next_below(4) == 0 ? -4.0 : -1.0;

    for (std::size_t op = 0; op < kOpsPerSeq; ++op) {
      const Key& k = keys[rng.next_below(keys.size())];
      const std::uint64_t dice = rng.next_below(1000);
      if (dice < 300) {  // lookup
        got_buf.assign(k.bytes, std::byte{0});
        want_buf.assign(k.bytes, std::byte{0});
        const bool hit = cache.lookup(k, got_buf.data());
        ASSERT_EQ(hit, model.lookup(k, want_buf.data()))
            << "seq " << s << " op " << op << " lookup";
        if (hit) EXPECT_EQ(got_buf, want_buf) << "payload bytes";
      } else if (dice < 780) {  // insert after a miss
        const bool resident = cache.contains(k);
        ASSERT_EQ(resident, model.contains(k)) << "seq " << s << " op " << op;
        if (!resident) {
          const auto fill = static_cast<std::uint8_t>(rng());
          data.resize(k.bytes);
          for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::byte>(fill + 31 * i);
          const double score = random_score(rng, k, cfg.buffer_bytes, score_shift);
          ASSERT_EQ(cache.insert(k, data.data(), score),
                    model.insert(k, data.data(), score))
              << "seq " << s << " op " << op << " insert";
        }
      } else if (dice < 880) {  // contains
        ASSERT_EQ(cache.contains(k), model.contains(k))
            << "seq " << s << " op " << op << " contains";
      } else if (dice < 970) {  // epoch advance (mostly a no-op)
        epoch += rng.next_below(4) == 0 ? 1 : 0;
        cache.set_epoch(epoch);
        model.set_epoch(epoch);
      } else if (dice < 975) {
        cache.flush();
        model.flush();
      } else {
        cache.epoch_close();
        model.epoch_close();
      }
      expect_state_eq(cache, model);
      if (HasFailure()) {
        std::printf("[clampi] fuzz failure in sequence %zu op %zu\n", s, op);
        return;
      }
    }
  }
}

TEST(ClampiFuzz, FreeSpaceMatchesReferenceOver2kSeededSequences) {
  // The allocator alone: best-fit picks (including which of several
  // equal-size regions), coalescing and merge benefits must match.
  const std::uint64_t base = fuzz_seed();
  for (std::size_t s = 0; s < 2'000; ++s) {
    util::Xoshiro256 rng(util::mix64(base, 0xf5ace + s));
    const std::uint64_t capacity = 64 + rng.next_below(2048);
    const std::uint64_t grain = 1 + rng.next_below(16);  // equal-size ties
    FreeSpace fs(capacity);
    reference::FreeSpace model(capacity);
    struct Live {
      std::uint64_t offset, bytes;
      FreeSpace::TileId tile;
    };
    std::vector<Live> live;
    for (std::size_t op = 0; op < 96; ++op) {
      if (live.empty() || rng.next_below(100) < 55) {
        const std::uint64_t bytes = grain * (1 + rng.next_below(8));
        const auto got = fs.allocate(bytes);
        const auto want = model.allocate(bytes);
        ASSERT_EQ(got.has_value(), want.has_value()) << "seq " << s;
        if (got) {
          ASSERT_EQ(got->offset, *want) << "seq " << s << " op " << op;
          live.push_back({got->offset, bytes, got->tile});
        }
      } else {
        const std::size_t i = rng.next_below(live.size());
        fs.release(live[i].tile);
        model.release(live[i].offset, live[i].bytes);
        live[i] = live.back();
        live.pop_back();
      }
      ASSERT_EQ(fs.total_free(), model.total_free()) << "seq " << s;
      ASSERT_EQ(fs.largest_free(), model.largest_free()) << "seq " << s;
      ASSERT_EQ(fs.num_regions(), model.num_regions()) << "seq " << s;
      for (const Live& b : live)
        ASSERT_EQ(fs.adjacent_free(b.tile), model.adjacent_free(b.offset, b.bytes))
            << "seq " << s << " block at " << b.offset;
    }
  }
}

}  // namespace
}  // namespace atlc::clampi
