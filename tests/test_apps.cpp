// Integration tests: the paper's benchmark applications produce correct
// results on the actor runtime — Fibonacci (Table 4), column Cholesky
// (Table 1), and Cannon's systolic matmul (Table 5) — across machine kinds,
// variants and mappings.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "apps/cholesky.hpp"
#include "apps/fib.hpp"
#include "apps/matmul.hpp"
#include "apps/pagerank.hpp"
#include "baseline/seq_kernels.hpp"

namespace hal::apps {
namespace {

// gtest names each case of a sweep after the raw bytes of its parameter, so
// every case struct spells its padding out as zeroed members; the
// static_asserts prove no implicit padding is left. Stray padding bytes
// would otherwise rename the tests from one build to the next.

// --- Fibonacci ---------------------------------------------------------------------

struct FibCase {
  unsigned n;
  unsigned cutoff;
  NodeId nodes;
  bool lb;
  MachineKind machine;
  std::uint8_t pad[2] = {};
};
static_assert(std::has_unique_object_representations_v<FibCase>);

class FibCorrectness : public ::testing::TestWithParam<FibCase> {};

TEST_P(FibCorrectness, MatchesSequential) {
  const FibCase& c = GetParam();
  FibParams p;
  p.n = c.n;
  p.cutoff = c.cutoff;
  p.nodes = c.nodes;
  p.load_balancing = c.lb;
  p.machine = c.machine;
  const FibResult r = run_fib(p);
  EXPECT_EQ(r.value, baseline::fib_seq(c.n));
  EXPECT_EQ(r.dead_letters, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FibCorrectness,
    ::testing::Values(FibCase{1, 2, 1, false, MachineKind::kSim},
                      FibCase{10, 2, 1, false, MachineKind::kSim},
                      FibCase{15, 2, 4, false, MachineKind::kSim},
                      FibCase{15, 2, 4, true, MachineKind::kSim},
                      FibCase{18, 8, 8, true, MachineKind::kSim},
                      FibCase{18, 5, 3, true, MachineKind::kMn},
                      FibCase{14, 2, 2, true, MachineKind::kMn}));

TEST(FibScaling, LoadBalancingHelpsOnManyNodes) {
  FibParams p;
  p.n = 19;
  p.cutoff = 10;
  p.nodes = 8;
  p.machine = MachineKind::kSim;
  p.load_balancing = false;
  const SimTime without = run_fib(p).makespan_ns;
  p.load_balancing = true;
  const FibResult with_lb = run_fib(p);
  EXPECT_EQ(with_lb.value, baseline::fib_seq(p.n));
  // Everything is seeded on node 0; only stealing can use the other seven.
  EXPECT_LT(with_lb.makespan_ns, without / 2);
  EXPECT_GT(with_lb.stats.get(Stat::kStealRequestsServed), 0u);
}

TEST(FibScaling, DeterministicAcrossRuns) {
  FibParams p;
  p.n = 16;
  p.cutoff = 4;
  p.nodes = 4;
  p.load_balancing = true;
  const FibResult a = run_fib(p);
  const FibResult b = run_fib(p);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.stats.get(Stat::kMigrationsIn), b.stats.get(Stat::kMigrationsIn));
}

// --- Cholesky -----------------------------------------------------------------------

struct CholCase {
  CholVariant variant;
  ColMapping mapping;
  std::uint8_t pad0[6] = {};
  std::size_t n;
  NodeId nodes;
  MachineKind machine;
  std::uint8_t pad1[3] = {};
};
static_assert(std::has_unique_object_representations_v<CholCase>);

class CholeskyCorrectness : public ::testing::TestWithParam<CholCase> {};

TEST_P(CholeskyCorrectness, MatchesSequentialFactorization) {
  const CholCase& c = GetParam();
  CholeskyParams p;
  p.variant = c.variant;
  p.mapping = c.mapping;
  p.n = c.n;
  p.nodes = c.nodes;
  p.machine = c.machine;
  const CholeskyResult r = run_cholesky(p);
  EXPECT_LT(r.max_error, 1e-8);
  EXPECT_EQ(r.dead_letters, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CholeskyCorrectness,
    ::testing::Values(
        CholCase{.variant = CholVariant::kPipelined,
                 .mapping = ColMapping::kCyclic,
                 .n = 48, .nodes = 4, .machine = MachineKind::kSim},
        CholCase{.variant = CholVariant::kPipelined,
                 .mapping = ColMapping::kBlock,
                 .n = 48, .nodes = 4, .machine = MachineKind::kSim},
        CholCase{.variant = CholVariant::kGlobalSeq,
                 .mapping = ColMapping::kCyclic,
                 .n = 48, .nodes = 4, .machine = MachineKind::kSim},
        CholCase{.variant = CholVariant::kGlobalBcast,
                 .mapping = ColMapping::kCyclic,
                 .n = 48, .nodes = 4, .machine = MachineKind::kSim},
        CholCase{.variant = CholVariant::kPipelined,
                 .mapping = ColMapping::kCyclic,
                 .n = 32, .nodes = 1, .machine = MachineKind::kSim},
        CholCase{.variant = CholVariant::kPipelined,
                 .mapping = ColMapping::kCyclic,
                 .n = 40, .nodes = 8, .machine = MachineKind::kSim},
        CholCase{.variant = CholVariant::kPipelined,
                 .mapping = ColMapping::kCyclic,
                 .n = 32, .nodes = 4, .machine = MachineKind::kMn},
        CholCase{.variant = CholVariant::kGlobalBcast,
                 .mapping = ColMapping::kBlock,
                 .n = 32, .nodes = 4, .machine = MachineKind::kMn}));

TEST(CholeskyShape, LocalSyncBeatsGlobalSync) {
  // The Table 1 headline: pipelined local synchronization outperforms the
  // barrier-per-iteration versions.
  CholeskyParams p;
  p.n = 64;
  p.nodes = 4;
  p.mapping = ColMapping::kCyclic;
  p.variant = CholVariant::kPipelined;
  const SimTime pipelined = run_cholesky(p).makespan_ns;
  p.variant = CholVariant::kGlobalSeq;
  const SimTime global_seq = run_cholesky(p).makespan_ns;
  EXPECT_LT(pipelined, global_seq);
}

TEST(CholeskyShape, CyclicBeatsBlockWhenPipelined) {
  // Cyclic mapping balances the shrinking trailing matrix (CP ≤ BP).
  CholeskyParams p;
  p.n = 64;
  p.nodes = 4;
  p.variant = CholVariant::kPipelined;
  p.mapping = ColMapping::kCyclic;
  const SimTime cyclic = run_cholesky(p).makespan_ns;
  p.mapping = ColMapping::kBlock;
  const SimTime block = run_cholesky(p).makespan_ns;
  EXPECT_LT(cyclic, block);
}

TEST(CholeskyShape, OwnerMappingPartitionsAllColumns) {
  for (const ColMapping m : {ColMapping::kBlock, ColMapping::kCyclic}) {
    std::size_t counted = 0;
    for (std::size_t j = 0; j < 97; ++j) {
      const NodeId o = cholesky_owner(j, 97, 5, m);
      ASSERT_LT(o, 5u);
      ++counted;
    }
    EXPECT_EQ(counted, 97u);
  }
}

// --- Systolic matmul -----------------------------------------------------------------

struct MatmulCase {
  std::size_t n;
  std::uint32_t grid;
  MachineKind machine;
  std::uint8_t pad[3] = {};
};
static_assert(std::has_unique_object_representations_v<MatmulCase>);

class MatmulCorrectness : public ::testing::TestWithParam<MatmulCase> {};

TEST_P(MatmulCorrectness, MatchesSequentialProduct) {
  const MatmulCase& c = GetParam();
  MatmulParams p;
  p.n = c.n;
  p.grid = c.grid;
  p.machine = c.machine;
  const MatmulResult r = run_matmul(p);
  EXPECT_LT(r.max_error, 1e-10);
  EXPECT_EQ(r.dead_letters, 0u);
  EXPECT_GT(r.mflops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulCorrectness,
    ::testing::Values(MatmulCase{8, 1, MachineKind::kSim},
                      MatmulCase{16, 2, MachineKind::kSim},
                      MatmulCase{24, 3, MachineKind::kSim},
                      MatmulCase{32, 4, MachineKind::kSim},
                      MatmulCase{16, 2, MachineKind::kMn},
                      MatmulCase{24, 3, MachineKind::kMn}));

// --- PageRank (irregular sparse workload, paper §9's asked-for evaluation) ---

struct PrCase {
  std::uint32_t vertices;
  NodeId nodes;
  std::uint32_t ppn;
  std::uint32_t rounds;
  std::uint32_t rebalance_after;
  MachineKind machine;
  std::uint8_t pad[3] = {};
};
static_assert(std::has_unique_object_representations_v<PrCase>);

class PageRankCorrectness : public ::testing::TestWithParam<PrCase> {};

TEST_P(PageRankCorrectness, MatchesSequentialEvenUnderRebalancing) {
  const PrCase& c = GetParam();
  PageRankParams p;
  p.vertices = c.vertices;
  p.nodes = c.nodes;
  p.partitions_per_node = c.ppn;
  p.rounds = c.rounds;
  p.rebalance_after_round = c.rebalance_after;
  p.machine = c.machine;
  const PageRankResult r = run_pagerank(p);
  EXPECT_LT(r.max_error, 1e-12);
  EXPECT_EQ(r.dead_letters, 0u);
  EXPECT_EQ(r.round_ns.size(), c.rounds);
  if (c.rebalance_after > 0 && c.machine == MachineKind::kSim) {
    EXPECT_GT(r.migrations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PageRankCorrectness,
    ::testing::Values(PrCase{128, 1, 2, 4, 0, MachineKind::kSim},
                      PrCase{256, 4, 2, 6, 0, MachineKind::kSim},
                      PrCase{256, 4, 2, 6, 2, MachineKind::kSim},
                      PrCase{512, 8, 4, 8, 2, MachineKind::kSim},
                      PrCase{300, 3, 3, 5, 1, MachineKind::kSim},
                      PrCase{256, 4, 2, 6, 2, MachineKind::kMn}));

TEST(PageRankShape, RebalancingShortensLaterRounds) {
  PageRankParams p;
  p.vertices = 2048;
  p.nodes = 8;
  p.partitions_per_node = 4;
  p.rounds = 14;
  p.rebalance_after_round = 0;
  const PageRankResult without = run_pagerank(p);
  p.rebalance_after_round = 2;
  const PageRankResult with_rb = run_pagerank(p);
  EXPECT_LT(with_rb.max_error, 1e-12);
  EXPECT_GT(with_rb.migrations, 0u);
  // Compare a steady post-rebalance round against the same round without.
  ASSERT_GT(without.round_ns.size(), 7u);
  EXPECT_LT(with_rb.round_ns[6], without.round_ns[6] * 3 / 4);
  EXPECT_LT(with_rb.makespan_ns, without.makespan_ns);
}

TEST(PageRankShape, GraphGeneratorIsSkewedAndDeterministic) {
  std::vector<std::uint32_t> s1, d1, s2, d2;
  apps::make_skewed_graph(1000, 8, 7, s1, d1);
  apps::make_skewed_graph(1000, 8, 7, s2, d2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(d1, d2);
  // Skew: the first tenth of vertices emits far more than a tenth of edges.
  std::size_t low = 0;
  for (const auto v : s1) {
    if (v < 100) ++low;
  }
  EXPECT_GT(low * 100 / s1.size(), 25u);
  // Every vertex has out-degree ≥ 1 (dangling self-loops added).
  std::vector<bool> seen(1000, false);
  for (const auto v : s1) seen[v] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(MatmulShape, BiggerGridRaisesMflops) {
  // Same matrix on more nodes: the Table 5 scaling direction.
  MatmulParams p;
  p.n = 48;
  p.grid = 1;
  const double m1 = run_matmul(p).mflops;
  p.grid = 4;
  const double m16 = run_matmul(p).mflops;
  EXPECT_GT(m16, m1 * 2);
}

}  // namespace
}  // namespace hal::apps
