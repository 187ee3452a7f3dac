// Differential tests for the task-runtime containers the engines keep
// per rank (core/taskrt/): the use-counted fetch cache over its
// open-addressed table, and the ready-task queue under all four
// scheduling policies. Each runs a seeded random mix of operations
// against a plain reference model and compares every result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/taskrt/ready_queue.hpp"
#include "core/taskrt/use_cache.hpp"
#include "support/random.hpp"

namespace sympack {
namespace {

using core::Policy;
using sparse::idx_t;

// ---------------------------------------------------------------------
// UseCache against std::unordered_map. The payload is a shared_ptr, so
// the test also sees when the cache destroys one: a released entry's
// payload must be gone at once, a kept one alive.

struct Oracle {
  std::shared_ptr<int> payload;
  int uses;
};

void expect_same_contents(
    core::taskrt::UseCache<std::shared_ptr<int>>& cache,
    const std::unordered_map<idx_t, Oracle>& oracle) {
  ASSERT_EQ(cache.size(), oracle.size());
  EXPECT_EQ(cache.empty(), oracle.empty());
  std::map<idx_t, int> seen;
  cache.for_each([&](idx_t key, std::shared_ptr<int>& p) {
    EXPECT_TRUE(seen.emplace(key, *p).second) << "key visited twice " << key;
  });
  ASSERT_EQ(seen.size(), oracle.size());
  for (const auto& [key, value] : seen) {
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << "unexpected key " << key;
    EXPECT_EQ(value, *it->second.payload) << "key " << key;
  }
}

TEST(UseCacheOracle, RandomMixMatchesUnorderedMap) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    core::taskrt::UseCache<std::shared_ptr<int>> cache;
    std::unordered_map<idx_t, Oracle> oracle;
    std::vector<std::weak_ptr<int>> disposed;
    support::Xoshiro256 rng(seed);
    int next_value = 0;
    // Keys from a range wide enough that the table grows past a few
    // thousand live entries, plus a few far ids for the hash's high bits.
    auto draw_key = [&] {
      const idx_t key = static_cast<idx_t>(rng.next_below(6000));
      return rng.next_below(16) == 0 ? key << 30 : key;
    };
    std::size_t peak = 0;
    for (int op = 0; op < 60000; ++op) {
      // Grow for the first half of the run, then drain.
      const std::uint64_t insert_odds = op < 30000 ? 6 : 3;
      const idx_t key = draw_key();
      if (rng.next_below(10) < insert_odds) {
        const int uses = 1 + static_cast<int>(rng.next_below(3));
        auto payload = std::make_shared<int>(next_value++);
        std::weak_ptr<int> fresh = payload;
        const auto [entry, inserted] = cache.insert(key, payload, uses);
        const auto it = oracle.find(key);
        ASSERT_EQ(inserted, it == oracle.end()) << "op " << op;
        if (inserted) {
          oracle.emplace(key, Oracle{payload, uses});
        } else {
          // A duplicate keeps the original entry and its uses.
          EXPECT_EQ(*entry, it->second.payload) << "op " << op;
        }
        payload.reset();
        EXPECT_EQ(fresh.expired(), !inserted) << "op " << op;
      } else {
        const std::shared_ptr<int>* cached = cache.find(key);
        const std::weak_ptr<int> payload =
            cached != nullptr ? *cached : std::shared_ptr<int>();
        cache.release(key);
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(cached, nullptr) << "op " << op;  // absent: no-op
        } else if (--it->second.uses == 0) {
          EXPECT_EQ(payload.lock(), it->second.payload) << "op " << op;
          disposed.push_back(it->second.payload);
          oracle.erase(it);
          // The cache destroyed its copy at the release: the oracle held
          // the last reference.
          EXPECT_TRUE(disposed.back().expired()) << "op " << op;
        }
      }
      peak = std::max(peak, oracle.size());
      const auto it = oracle.find(key);
      std::shared_ptr<int>* found = cache.find(key);
      ASSERT_EQ(found != nullptr, it != oracle.end()) << "op " << op;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second.payload) << "op " << op;
      }
      if (op % 997 == 0) expect_same_contents(cache, oracle);
    }
    EXPECT_GT(peak, 2000u);  // the table grew through several doublings
    expect_same_contents(cache, oracle);
    cache.clear();
    EXPECT_TRUE(cache.empty());
    for (const auto& [key, o] : oracle) EXPECT_EQ(o.payload.use_count(), 1);
  }
}

// ---------------------------------------------------------------------
// ReadyQueue against a linear-scan model: FIFO pops the oldest push,
// LIFO the newest, and the heap policies the highest priority with ties
// going to the oldest push.

struct Pushed {
  int task;
  std::int64_t prio;
  std::uint64_t seq;
};

int model_pop(std::vector<Pushed>& model, Policy policy) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < model.size(); ++i) {
    const Pushed& a = model[i];
    const Pushed& b = model[best];
    bool better = false;
    switch (policy) {
      case Policy::kLifo: better = a.seq > b.seq; break;
      case Policy::kPriority:
      case Policy::kCriticalPath:
        better = a.prio > b.prio || (a.prio == b.prio && a.seq < b.seq);
        break;
      default: better = a.seq < b.seq; break;
    }
    if (better) best = i;
  }
  const int task = model[best].task;
  model.erase(model.begin() + static_cast<std::ptrdiff_t>(best));
  return task;
}

TEST(ReadyQueueModel, InterleavedPushPopMatchesEveryPolicy) {
  for (const Policy policy : {Policy::kFifo, Policy::kLifo,
                              Policy::kPriority, Policy::kCriticalPath}) {
    // prio_range 1: every priority equal, so the heap policies must
    // reduce to insertion order.
    for (const std::uint64_t prio_range : {1u, 4u, 1000u}) {
      core::taskrt::ReadyQueue<int> q(policy);
      std::vector<Pushed> model;
      support::Xoshiro256 rng(prio_range * 7 + static_cast<int>(policy));
      std::uint64_t seq = 0;
      int next_task = 0;
      for (int op = 0; op < 20000; ++op) {
        if (op == 12000) {
          // A cleared queue starts over (the solve reuses one per sweep).
          q.clear();
          model.clear();
          seq = 0;
        }
        ASSERT_EQ(q.size(), model.size());
        ASSERT_EQ(q.empty(), model.empty());
        // Pushes outnumber pops early, so the queue gets deep.
        const bool push =
            model.empty() || rng.next_below(10) < (op < 6000 ? 6u : 4u);
        if (push) {
          const auto prio = static_cast<std::int64_t>(
                                rng.next_below(prio_range)) - 2;
          q.push(next_task, prio);
          model.push_back(Pushed{next_task, prio, seq++});
          ++next_task;
        } else {
          ASSERT_EQ(q.pop(), model_pop(model, policy))
              << core::policy_name(policy) << " range " << prio_range
              << " op " << op;
        }
      }
      while (!model.empty()) {
        ASSERT_EQ(q.pop(), model_pop(model, policy));
      }
      EXPECT_TRUE(q.empty());
    }
  }
}

}  // namespace
}  // namespace sympack
