#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "src/common/arena.h"
#include "src/common/counters.h"
#include "src/common/rng.h"

namespace smoqe {
namespace {

TEST(ArenaTest, AllocationsAreDistinctAndStable) {
  Arena arena;
  std::vector<int*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    int* p = arena.New<int>(i);
    ptrs.push_back(p);
  }
  // Values survive later allocations (stability across block growth).
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*ptrs[i], i);
  }
  std::set<int*> unique(ptrs.begin(), ptrs.end());
  EXPECT_EQ(unique.size(), ptrs.size());
}

TEST(ArenaTest, CopyStringNulTerminatesAndCopies) {
  Arena arena;
  std::string original = "hello world";
  const char* copy = arena.CopyString(original.data(), original.size());
  original[0] = 'X';  // the copy must be independent
  EXPECT_STREQ(copy, "hello world");
  EXPECT_EQ(std::strlen(copy), 11u);
  // Empty string.
  const char* empty = arena.CopyString("", 0);
  EXPECT_STREQ(empty, "");
}

TEST(ArenaTest, AlignmentRespected) {
  Arena arena;
  (void)arena.Allocate(1, 1);
  void* p8 = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p8) % 8, 0u);
  (void)arena.Allocate(3, 1);
  void* p16 = arena.Allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p16) % 16, 0u);
}

TEST(ArenaTest, LargeAllocationsGrowBlocks) {
  Arena arena;
  void* big = arena.Allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), static_cast<size_t>(1 << 20));
  EXPECT_GE(arena.bytes_used(), static_cast<size_t>(1 << 20));
}

TEST(ArenaTest, MappedBlocksHoldDataAcrossGrowth) {
  // Both block sources: small blocks from malloc, then mapped blocks once
  // the doubling passes kMapBytes; every value survives, and the budget
  // is charged for mapped blocks like any other.
  for (bool mapped : {false, true}) {
    MemoryBudget budget;
    Arena arena(mapped);
    arena.set_budget(&budget);
    std::vector<int64_t*> ptrs;
    const int64_t n = 4 * static_cast<int64_t>(Arena::kMapBytes) / 8;
    for (int64_t i = 0; i < n; ++i) ptrs.push_back(arena.New<int64_t>(i));
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(*ptrs[i], i);
    char* big = static_cast<char*>(arena.Allocate(3 * Arena::kMapBytes, 1));
    std::memset(big, 'x', 3 * Arena::kMapBytes);
    EXPECT_EQ(big[3 * Arena::kMapBytes - 1], 'x');
    EXPECT_GE(arena.bytes_reserved(), 7 * Arena::kMapBytes);
    EXPECT_EQ(budget.used(), arena.bytes_reserved());
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_from_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal = all_equal && (va == vb);
    any_diff_from_c = any_diff_from_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_from_c);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
  // All buckets eventually hit (sanity of distribution).
  std::set<uint64_t> seen;
  Rng rng2(8);
  for (int i = 0; i < 1000; ++i) seen.insert(rng2.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ZeroSeedIsUsable) {
  Rng rng(0);
  EXPECT_NE(rng.Next(), 0u);
}

TEST(EvalStatsTest, ToStringListsCounters) {
  EvalStats s;
  s.nodes_visited = 5;
  s.answers = 2;
  s.buffered_bytes = 100;
  std::string str = s.ToString();
  EXPECT_NE(str.find("visited=5"), std::string::npos);
  EXPECT_NE(str.find("answers=2"), std::string::npos);
  EXPECT_NE(str.find("buffered_bytes=100"), std::string::npos);
  s.Reset();
  EXPECT_EQ(s.nodes_visited, 0u);
  // buffered_bytes omitted when zero.
  EXPECT_EQ(s.ToString().find("buffered_bytes"), std::string::npos);
}

}  // namespace
}  // namespace smoqe
