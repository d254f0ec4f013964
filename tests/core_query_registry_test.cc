// QueryRegistry: admit/find/retire on one id-sorted container,
// ascending-id iteration, the never-reuse id guarantee the fleet service
// builds on, and independence of registries driven concurrently.
#include "src/core/query_registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/util/thread_pool.h"

namespace prospector {
namespace core {
namespace {

QuerySpec CheapSpec(int k = 3) {
  QuerySpec spec;
  spec.k = k;
  spec.energy_budget_mj = 5.0;
  spec.planner = PlannerChoice::kGreedy;
  return spec;
}

TEST(QueryRegistryShardTest, AddFindRemoveBasics) {
  QueryRegistry registry;
  const int a = registry.Add(CheapSpec(2), /*num_nodes=*/10,
                             /*sample_window=*/8);
  const int b = registry.Add(CheapSpec(4), 10, 8);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(registry.size(), 2);
  ASSERT_NE(registry.Find(a), nullptr);
  EXPECT_EQ(registry.Find(a)->spec.k, 2);
  EXPECT_EQ(registry.Find(99), nullptr);

  EXPECT_TRUE(registry.Remove(a));
  EXPECT_FALSE(registry.Remove(a));  // already gone
  EXPECT_EQ(registry.size(), 1);
  EXPECT_EQ(registry.Find(a), nullptr);
  EXPECT_EQ(registry.ids(), std::vector<int>{b});
}

TEST(QueryRegistryShardTest, RetiredIdsAreBurnedForever) {
  QueryRegistry registry;
  const int id = registry.Add(CheapSpec(), 10, 8);
  EXPECT_TRUE(registry.Remove(id));
  // Neither path may revive a retired id.
  EXPECT_FALSE(registry.AddWithId(id, CheapSpec(), 10, 8).ok());
  const int next = registry.Add(CheapSpec(), 10, 8);
  EXPECT_NE(next, id);
}

TEST(QueryRegistryShardTest, ExternalIdsMayArriveOutOfOrder) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddWithId(10, CheapSpec(), 10, 8).ok());
  ASSERT_TRUE(registry.AddWithId(3, CheapSpec(), 10, 8).ok());
  EXPECT_FALSE(registry.AddWithId(10, CheapSpec(), 10, 8).ok());
  // Internal allocation never collides with what external callers used.
  const int fresh = registry.Add(CheapSpec(), 10, 8);
  EXPECT_EQ(fresh, 11);
  EXPECT_EQ(registry.ids(), (std::vector<int>{3, 10, 11}));
}

TEST(QueryRegistryShardTest, OrderedIsAscendingById) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddWithId(7, CheapSpec(7), 10, 8).ok());
  ASSERT_TRUE(registry.AddWithId(1, CheapSpec(1), 10, 8).ok());
  ASSERT_TRUE(registry.AddWithId(4, CheapSpec(4), 10, 8).ok());
  const QueryRegistry::Queries& ordered = registry.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0]->id, 1);
  EXPECT_EQ(ordered[1]->id, 4);
  EXPECT_EQ(ordered[2]->id, 7);
  // Iteration tracks mutation.
  registry.Remove(4);
  ASSERT_EQ(registry.ordered().size(), 2u);
  EXPECT_EQ(registry.ordered()[1]->id, 7);
}

// A registry has a single owner and no locking, but each engine owns its
// own, and the fleet drives many engines at once. The Parallel* tests run
// independent registries concurrently, one per pool slot, and require
// every one to end exactly where the serial script says: no hidden state
// may be shared between registries.
constexpr int kRegistries = 4;

TEST(QueryRegistryShardTest, ParallelAdmitIsDeterministicAndLeakFree) {
  constexpr int kQueries = 256;
  util::ThreadPool pool(kRegistries);
  std::vector<std::unique_ptr<QueryRegistry>> registries(kRegistries);
  std::vector<int> admitted(kRegistries, 0);
  pool.ParallelFor(kRegistries, [&](int begin, int end) {
    for (int r = begin; r < end; ++r) {
      registries[r] = std::make_unique<QueryRegistry>();
      for (int i = 0; i < kQueries; ++i) {
        if (registries[r]->AddWithId(i, CheapSpec(1 + i % 5), 10, 8).ok()) {
          ++admitted[r];
        }
      }
    }
  });
  for (int r = 0; r < kRegistries; ++r) {
    const QueryRegistry& registry = *registries[r];
    EXPECT_EQ(admitted[r], kQueries);
    EXPECT_EQ(registry.size(), kQueries);
    const std::vector<int> ids = registry.ids();
    ASSERT_EQ(ids.size(), static_cast<size_t>(kQueries));
    for (int i = 0; i < kQueries; ++i) {
      EXPECT_EQ(ids[static_cast<size_t>(i)], i);  // ascending, gap-free
      ASSERT_NE(registry.Find(i), nullptr);
      EXPECT_EQ(registry.Find(i)->spec.k, 1 + i % 5);
    }
    EXPECT_EQ(registry.next_id(), kQueries);
  }
}

TEST(QueryRegistryShardTest, ParallelRetireThenReadmitNeverAliases) {
  constexpr int kQueries = 128;
  util::ThreadPool pool(kRegistries);
  std::vector<std::vector<int>> survivors(kRegistries);
  std::vector<int> retired(kRegistries, 0);
  std::vector<int> revived(kRegistries, 0);
  pool.ParallelFor(kRegistries, [&](int begin, int end) {
    for (int r = begin; r < end; ++r) {
      QueryRegistry registry;
      for (int i = 0; i < kQueries; ++i) {
        EXPECT_TRUE(registry.AddWithId(i, CheapSpec(), 10, 8).ok());
      }
      // Retire the even ids...
      for (int i = 0; i < kQueries; i += 2) {
        if (registry.Remove(i)) ++retired[r];
      }
      // ...then try to re-admit them: every attempt must bounce.
      for (int i = 0; i < kQueries; i += 2) {
        if (registry.AddWithId(i, CheapSpec(), 10, 8).ok()) ++revived[r];
      }
      survivors[r] = registry.ids();
    }
  });
  for (int r = 0; r < kRegistries; ++r) {
    EXPECT_EQ(retired[r], kQueries / 2);
    EXPECT_EQ(revived[r], 0);
    const std::vector<int>& ids = survivors[r];
    ASSERT_EQ(ids.size(), static_cast<size_t>(kQueries / 2));
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(ids[i], static_cast<int>(2 * i + 1));  // odd survivors only
    }
  }
}

TEST(QueryRegistryShardTest, ParallelMixedChurnConvergesToSameState) {
  // The same add/remove script, fed to each registry in a different
  // rotation of its admission order and run on different thread counts,
  // must converge to identical membership: every id not divisible by 3.
  constexpr int kOps = 200;
  auto run = [&](int threads) {
    util::ThreadPool pool(threads);
    std::vector<std::vector<int>> members(kRegistries);
    pool.ParallelFor(kRegistries, [&](int begin, int end) {
      for (int r = begin; r < end; ++r) {
        QueryRegistry registry;
        for (int n = 0; n < kOps; ++n) {
          const int i = (n + r * kOps / kRegistries) % kOps;
          EXPECT_TRUE(registry.AddWithId(i, CheapSpec(), 10, 8).ok());
          if (i % 3 == 0) {
            EXPECT_TRUE(registry.Remove(i));
          }
        }
        members[r] = registry.ids();
      }
    });
    return members;
  };
  std::vector<int> expected;
  for (int i = 0; i < kOps; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  const std::vector<std::vector<int>> serial = run(1);
  for (const std::vector<int>& members : serial) {
    EXPECT_EQ(members, expected);
  }
  EXPECT_EQ(run(kRegistries), serial);
}

}  // namespace
}  // namespace core
}  // namespace prospector
