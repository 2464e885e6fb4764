// Unit and property tests for the ROBDD engine.
#include <gtest/gtest.h>

#include <random>

#include "bdd/bdd.hpp"

namespace yardstick::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddManager mgr{8};
};

TEST_F(BddTest, TerminalsAreDistinct) {
  EXPECT_TRUE(mgr.zero().is_false());
  EXPECT_TRUE(mgr.one().is_true());
  EXPECT_NE(mgr.zero(), mgr.one());
}

TEST_F(BddTest, VarAndNvarAreComplements) {
  for (Var v = 0; v < 8; ++v) {
    EXPECT_EQ(!mgr.var(v), mgr.nvar(v));
    EXPECT_EQ((mgr.var(v) | mgr.nvar(v)), mgr.one());
    EXPECT_EQ((mgr.var(v) & mgr.nvar(v)), mgr.zero());
  }
}

TEST_F(BddTest, HashConsingGivesCanonicity) {
  const Bdd a = mgr.var(0) & mgr.var(1);
  const Bdd b = mgr.var(1) & mgr.var(0);
  EXPECT_EQ(a, b);  // same function => same node index
  const Bdd c = (mgr.var(0) | mgr.var(1)) & (mgr.var(0) | !mgr.var(1));
  EXPECT_EQ(c, mgr.var(0));
}

TEST_F(BddTest, DoubleNegation) {
  const Bdd f = (mgr.var(0) & mgr.var(2)) | mgr.nvar(5);
  EXPECT_EQ(!!f, f);
}

TEST_F(BddTest, DeMorgan) {
  const Bdd a = mgr.var(1) | (mgr.var(3) & mgr.var(4));
  const Bdd b = mgr.var(2) & mgr.nvar(6);
  EXPECT_EQ(!(a & b), (!a | !b));
  EXPECT_EQ(!(a | b), (!a & !b));
}

TEST_F(BddTest, AbsorptionAndIdempotence) {
  const Bdd a = mgr.var(0) ^ mgr.var(3);
  const Bdd b = mgr.var(1) & mgr.var(2);
  EXPECT_EQ((a & (a | b)), a);
  EXPECT_EQ((a | (a & b)), a);
  EXPECT_EQ((a & a), a);
  EXPECT_EQ((a | a), a);
}

TEST_F(BddTest, DifferenceSemantics) {
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  EXPECT_EQ(a - b, a & !b);
  EXPECT_EQ(a - a, mgr.zero());
  EXPECT_EQ(a - mgr.zero(), a);
  EXPECT_EQ(a - mgr.one(), mgr.zero());
}

TEST_F(BddTest, XorProperties) {
  const Bdd a = mgr.var(2) | mgr.var(4);
  const Bdd b = mgr.var(3);
  EXPECT_EQ(a ^ a, mgr.zero());
  EXPECT_EQ(a ^ mgr.zero(), a);
  EXPECT_EQ(a ^ mgr.one(), !a);
  EXPECT_EQ(a ^ b, (a - b) | (b - a));
}

TEST_F(BddTest, CountTerminals) {
  EXPECT_EQ(mgr.zero().count(), Uint128{0});
  EXPECT_EQ(mgr.one().count(), pow2(8));
}

TEST_F(BddTest, CountSingleVariable) {
  EXPECT_EQ(mgr.var(0).count(), pow2(7));
  EXPECT_EQ(mgr.var(7).count(), pow2(7));
  EXPECT_EQ(mgr.nvar(3).count(), pow2(7));
}

TEST_F(BddTest, CountInclusionExclusion) {
  const Bdd a = mgr.var(0) & mgr.var(1);
  const Bdd b = mgr.var(1) & mgr.var(2);
  EXPECT_EQ((a | b).count() + (a & b).count(), a.count() + b.count());
}

TEST_F(BddTest, CountComplement) {
  const Bdd f = (mgr.var(0) & mgr.var(5)) | mgr.var(2);
  EXPECT_EQ(f.count() + (!f).count(), pow2(8));
}

TEST_F(BddTest, CubeCountsOnePoint) {
  std::vector<Var> vars{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<bool> bits{true, false, true, true, false, false, true, false};
  const Bdd cube = mgr.cube(vars, bits);
  EXPECT_EQ(cube.count(), Uint128{1});
  EXPECT_TRUE(mgr.evaluate(cube, bits));
  bits[4] = true;
  EXPECT_FALSE(mgr.evaluate(cube, bits));
}

TEST_F(BddTest, PartialCubeCount) {
  std::vector<Var> vars{1, 6};
  std::vector<bool> bits{true, false};
  EXPECT_EQ(mgr.cube(vars, bits).count(), pow2(6));
}

TEST_F(BddTest, PickOneSatisfies) {
  const Bdd f = (mgr.var(0) & !mgr.var(3)) | (mgr.var(5) & mgr.var(6));
  const std::vector<bool> assignment = mgr.pick_one(f);
  EXPECT_TRUE(mgr.evaluate(f, assignment));
}

TEST_F(BddTest, SupportFindsDependencies) {
  const Bdd f = (mgr.var(1) & mgr.var(4)) | mgr.var(6);
  EXPECT_EQ(mgr.support(f), (std::vector<Var>{1, 4, 6}));
  // x2 appears syntactically but cancels semantically.
  const Bdd g = (mgr.var(2) & mgr.var(0)) | (!mgr.var(2) & mgr.var(0));
  EXPECT_EQ(mgr.support(g), (std::vector<Var>{0}));
}

TEST_F(BddTest, ExistsRemovesVariable) {
  const Bdd f = mgr.var(0) & mgr.var(1);
  std::vector<bool> quantified(8, false);
  quantified[0] = true;
  EXPECT_EQ(mgr.exists(f, quantified), mgr.var(1));
  // Quantifying an irrelevant variable is the identity.
  std::vector<bool> other(8, false);
  other[7] = true;
  EXPECT_EQ(mgr.exists(f, other), f);
}

TEST_F(BddTest, ExistsIsDisjunctionOfCofactors) {
  const Bdd f = (mgr.var(2) & mgr.var(3)) | (!mgr.var(2) & mgr.var(5));
  std::vector<bool> quantified(8, false);
  quantified[2] = true;
  EXPECT_EQ(mgr.exists(f, quantified),
            mgr.restrict_var(f, 2, false) | mgr.restrict_var(f, 2, true));
}

TEST_F(BddTest, RestrictCofactors) {
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (!mgr.var(0) & mgr.var(2));
  EXPECT_EQ(mgr.restrict_var(f, 0, true), mgr.var(1));
  EXPECT_EQ(mgr.restrict_var(f, 0, false), mgr.var(2));
}

TEST_F(BddTest, ImpliesIsSubset) {
  const Bdd narrow = mgr.var(0) & mgr.var(1) & mgr.var(2);
  const Bdd wide = mgr.var(0);
  EXPECT_TRUE(narrow.implies(wide));
  EXPECT_FALSE(wide.implies(narrow));
  EXPECT_TRUE(mgr.zero().implies(narrow));
  EXPECT_TRUE(narrow.implies(mgr.one()));
}

TEST_F(BddTest, NodeCountReduced) {
  // x0 & x1 has two decision nodes + two terminals.
  EXPECT_EQ((mgr.var(0) & mgr.var(1)).node_count(), 4u);
  EXPECT_EQ(mgr.one().node_count(), 1u);
}

TEST_F(BddTest, ToDotMentionsVariables) {
  const std::string dot = mgr.to_dot(mgr.var(3) & mgr.var(5));
  EXPECT_NE(dot.find("x3"), std::string::npos);
  EXPECT_NE(dot.find("x5"), std::string::npos);
}

TEST(BddManagerTest, RejectsTooManyVariables) {
  EXPECT_THROW(BddManager{121}, std::invalid_argument);
  EXPECT_NO_THROW(BddManager{120});
}

TEST(BddManagerTest, WideCountUses128Bits) {
  BddManager mgr(104);
  EXPECT_EQ(mgr.one().count(), pow2(104));
  EXPECT_EQ(mgr.var(0).count(), pow2(103));
  EXPECT_EQ(to_string(pow2(104)), "20282409603651670423947251286016");
}

TEST(BddManagerTest, CacheAblationProducesSameResults) {
  BddManager with_cache(16);
  BddManager without_cache(16);
  without_cache.set_cache_enabled(false);

  std::mt19937 rng(7);
  const auto random_fn = [&rng](BddManager& m) {
    Bdd acc = m.zero();
    std::mt19937 local(42);
    for (int i = 0; i < 24; ++i) {
      const Var v1 = local() % 16;
      const Var v2 = local() % 16;
      acc = acc | (m.var(v1) & m.nvar(v2));
    }
    return acc;
  };
  (void)rng;
  EXPECT_EQ(random_fn(with_cache).count(), random_fn(without_cache).count());
  EXPECT_GT(with_cache.cache_stats().hits, 0u);
}

// Randomized law checking: build random expressions two ways and compare
// against brute-force evaluation over all 2^10 assignments.
class BddRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomTest, MatchesBruteForceEvaluation) {
  BddManager mgr(10);
  std::mt19937 rng(GetParam());

  // Random expression tree over literals.
  std::vector<Bdd> pool;
  for (Var v = 0; v < 10; ++v) {
    pool.push_back(mgr.var(v));
    pool.push_back(mgr.nvar(v));
  }
  for (int step = 0; step < 30; ++step) {
    const Bdd a = pool[rng() % pool.size()];
    const Bdd b = pool[rng() % pool.size()];
    switch (rng() % 4) {
      case 0: pool.push_back(a & b); break;
      case 1: pool.push_back(a | b); break;
      case 2: pool.push_back(a ^ b); break;
      default: pool.push_back(a - b); break;
    }
  }
  const Bdd f = pool.back();

  // Count satisfying assignments by enumeration and compare.
  uint64_t brute = 0;
  std::vector<bool> assignment(10, false);
  for (uint32_t bits = 0; bits < (1u << 10); ++bits) {
    for (int i = 0; i < 10; ++i) assignment[i] = (bits >> i) & 1;
    if (mgr.evaluate(f, assignment)) ++brute;
  }
  EXPECT_EQ(f.count(), Uint128{brute});
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTest, ::testing::Range(0, 12));

// --- N-ary union (or_all) --------------------------------------------------

/// Left fold of the binary union: the reference or_all must agree with.
NodeIndex sequential_or(BddManager& mgr, const std::vector<NodeIndex>& ops) {
  NodeIndex acc = kFalse;
  for (const NodeIndex op : ops) acc = mgr.apply(BddManager::Op::Or, acc, op);
  return acc;
}

/// Exhaustive check over all 2^10 assignments: `result` holds exactly where
/// some operand holds.
void expect_is_union(BddManager& mgr, NodeIndex result, const std::vector<NodeIndex>& ops) {
  std::vector<bool> assignment(10, false);
  for (uint32_t bits = 0; bits < (1u << 10); ++bits) {
    for (int i = 0; i < 10; ++i) assignment[i] = (bits >> i) & 1;
    bool any = false;
    for (const NodeIndex op : ops) any = any || mgr.evaluate(Bdd(&mgr, op), assignment);
    ASSERT_EQ(mgr.evaluate(Bdd(&mgr, result), assignment), any) << "assignment " << bits;
  }
}

/// Random functions over 10 variables: sums of random cubes.
std::vector<NodeIndex> random_functions(BddManager& mgr, std::mt19937& rng, size_t count) {
  std::vector<NodeIndex> out;
  for (size_t i = 0; i < count; ++i) {
    Bdd f = mgr.zero();
    for (uint32_t c = 0, cubes = 1 + rng() % 3; c < cubes; ++c) {
      Bdd cube = mgr.one();
      for (Var v = 0; v < 10; ++v) {
        switch (rng() % 4) {
          case 0: cube &= mgr.var(v); break;
          case 1: cube &= mgr.nvar(v); break;
          default: break;
        }
      }
      f |= cube;
    }
    out.push_back(f.index());
  }
  return out;
}

class OrAllRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(OrAllRandomTest, MatchesSequentialFoldWithConstantsAndDuplicates) {
  BddManager mgr(10);
  std::mt19937 rng(GetParam());
  const std::vector<NodeIndex> pool = random_functions(mgr, rng, 24);
  for (int round = 0; round < 20; ++round) {
    std::vector<NodeIndex> ops;
    for (uint32_t i = 0, n = rng() % 12; i < n; ++i) {
      switch (rng() % 10) {
        case 0: ops.push_back(kFalse); break;
        case 1:
          if (!ops.empty()) ops.push_back(ops[rng() % ops.size()]);  // duplicate handle
          break;
        default: ops.push_back(pool[rng() % pool.size()]); break;
      }
    }
    if (round % 5 == 4) ops.insert(ops.begin() + (ops.empty() ? 0 : rng() % ops.size()), kTrue);
    const NodeIndex result = mgr.or_all(ops);
    EXPECT_EQ(result, sequential_or(mgr, ops)) << "round " << round;
    expect_is_union(mgr, result, ops);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrAllRandomTest, ::testing::Range(0, 8));

TEST(OrAllTest, SharedSubgraphOperands) {
  // DAG-shaped operands: every operand reuses the same two subfunctions
  // under a different guard, so cofactors coincide across operands.
  BddManager mgr(10);
  const Bdd shared_a = (mgr.var(6) & mgr.var(7)) | mgr.nvar(9);
  const Bdd shared_b = mgr.var(8) ^ mgr.var(5);
  std::vector<NodeIndex> ops;
  for (Var v = 0; v < 5; ++v) {
    ops.push_back(((mgr.var(v) & shared_a) | (mgr.nvar(v) & shared_b)).index());
    ops.push_back((mgr.var(v) & mgr.var((v + 1) % 5) & shared_b).index());
  }
  const NodeIndex result = mgr.or_all(ops);
  EXPECT_EQ(result, sequential_or(mgr, ops));
  expect_is_union(mgr, result, ops);
}

TEST(OrAllTest, ConstantsSingleOperandAndEmptyList) {
  BddManager mgr(10);
  const NodeIndex f = (mgr.var(2) & mgr.nvar(4)).index();
  const NodeIndex g = mgr.var(7).index();
  EXPECT_EQ(mgr.or_all({}), kFalse);
  EXPECT_EQ(mgr.or_all(std::vector<NodeIndex>{kFalse, kFalse}), kFalse);
  EXPECT_EQ(mgr.or_all(std::vector<NodeIndex>{f}), f);
  EXPECT_EQ(mgr.or_all(std::vector<NodeIndex>{f, f, kFalse, f}), f);
  EXPECT_EQ(mgr.or_all(std::vector<NodeIndex>{f, kTrue, g}), kTrue);
  EXPECT_EQ(mgr.or_all(std::vector<NodeIndex>{g, f}), sequential_or(mgr, {f, g}));
}

TEST(OrAllTest, AllocatesOnlyTheResultsNodes) {
  // The even-parity minterms over the low 6 variables: a left fold rebuilds
  // the top of the growing union at every step, or_all creates each node
  // of the final union (the parity function) once.
  const auto minterms = [](BddManager& mgr) {
    const std::vector<Var> vars{0, 1, 2, 3, 4, 5};
    std::vector<NodeIndex> ops;
    for (uint32_t m = 0; m < 64; ++m) {
      if (__builtin_popcount(m) % 2 != 0) continue;
      std::vector<bool> bits;
      for (const Var v : vars) bits.push_back(((m >> v) & 1) != 0);
      ops.push_back(mgr.cube(vars, bits).index());
    }
    return ops;
  };
  BddManager mgr(10);
  const std::vector<NodeIndex> ops = minterms(mgr);
  const size_t before = mgr.arena_size();
  const NodeIndex result = mgr.or_all(ops);
  const size_t created = mgr.arena_size() - before;
  EXPECT_LE(created, Bdd(&mgr, result).node_count());
  expect_is_union(mgr, result, ops);

  BddManager seq(10);
  const std::vector<NodeIndex> seq_ops = minterms(seq);
  const size_t seq_before = seq.arena_size();
  (void)sequential_or(seq, seq_ops);
  EXPECT_GT(seq.arena_size() - seq_before, created);
}

}  // namespace
}  // namespace yardstick::bdd
