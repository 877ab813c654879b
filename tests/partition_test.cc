// GraphPartitioner structural invariants and edge cases.
//
// The partition is the foundation the block solvers' bit-parity contract
// stands on, so these tests check the structure exhaustively against the
// source graph: every owned row reproduces its global row, every arc
// appears exactly once in exactly one shard's in-CSR with a correct
// global arc index, in-rows ascend strictly by source, and boundary
// accounting agrees between the push and pull sides, and the boundary /
// source-slot layout the sweep kernels read names every arc's source.
// Degenerate inputs
// (empty graph, single node, all-dangling shard, more shards than nodes)
// must produce well-formed partitions or a clean Status — never a crash.

#include "graph/partition.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/classic_generators.h"
#include "graph/graph_builder.h"

namespace d2pr {
namespace {

CsrGraph DirectedDiamond() {
  // 0 -> {1, 2}, 1 -> 3, 2 -> 3; node 3 dangling.
  GraphBuilder builder(4, GraphKind::kDirected);
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2).ok());
  EXPECT_TRUE(builder.AddEdge(1, 3).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// Cross-checks every structural field of `partition` against `graph`.
void ExpectWellFormed(const CsrGraph& graph, const GraphPartition& partition) {
  ASSERT_EQ(partition.num_nodes(), graph.num_nodes());

  // Every node owned exactly once, by the shard OwnerOf names.
  std::vector<int> owned_count(static_cast<size_t>(graph.num_nodes()), 0);
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    NodeId previous = -1;
    for (NodeId v : shard.owned) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, graph.num_nodes());
      EXPECT_GT(v, previous) << "owned list must ascend";
      previous = v;
      ++owned_count[static_cast<size_t>(v)];
      EXPECT_EQ(partition.OwnerOf(v), s);
    }
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(owned_count[static_cast<size_t>(v)], 1) << "node " << v;
  }

  EdgeIndex boundary_in_total = 0;
  EdgeIndex boundary_out_total = 0;
  std::set<EdgeIndex> seen_in_arcs;
  for (size_t s = 0; s < partition.num_shards(); ++s) {
    const PartitionShard& shard = partition.shard(s);
    ASSERT_EQ(shard.out_offsets.size(), shard.owned.size() + 1);
    ASSERT_EQ(shard.out_arc_begin.size(), shard.owned.size());
    ASSERT_EQ(shard.in_offsets.size(), shard.owned.size() + 1);
    ASSERT_EQ(shard.in_sources.size(), shard.in_arc_index.size());
    ASSERT_EQ(shard.in_sources.size(), shard.in_interior.size());

    for (size_t k = 0; k < shard.owned.size(); ++k) {
      const NodeId v = shard.owned[k];

      // Out-CSR row k == the global row of v, arc for arc.
      const auto global_row = graph.OutNeighbors(v);
      const EdgeIndex row_begin = shard.out_offsets[k];
      const EdgeIndex row_end = shard.out_offsets[k + 1];
      ASSERT_EQ(row_end - row_begin,
                static_cast<EdgeIndex>(global_row.size()));
      EXPECT_EQ(shard.out_arc_begin[k], graph.ArcBegin(v));
      for (EdgeIndex j = 0; j < row_end - row_begin; ++j) {
        EXPECT_EQ(shard.out_targets[static_cast<size_t>(row_begin + j)],
                  global_row[static_cast<size_t>(j)]);
      }

      // In-CSR row k: strictly ascending sources, each entry's global
      // arc index naming exactly the forward arc source -> v.
      const EdgeIndex in_begin = shard.in_offsets[k];
      const EdgeIndex in_end = shard.in_offsets[k + 1];
      NodeId prev_src = -1;
      for (EdgeIndex idx = in_begin; idx < in_end; ++idx) {
        const NodeId src = shard.in_sources[static_cast<size_t>(idx)];
        const EdgeIndex arc = shard.in_arc_index[static_cast<size_t>(idx)];
        EXPECT_GT(src, prev_src) << "in-row must strictly ascend by source";
        prev_src = src;
        ASSERT_GE(arc, 0);
        ASSERT_LT(arc, graph.num_arcs());
        EXPECT_EQ(graph.targets()[static_cast<size_t>(arc)], v);
        EXPECT_GE(arc, graph.ArcBegin(src));
        EXPECT_LT(arc, graph.ArcBegin(src) + graph.OutDegree(src));
        EXPECT_TRUE(seen_in_arcs.insert(arc).second)
            << "arc " << arc << " appears in two in-rows";
      }
    }

    // Dangling bookkeeping matches the graph.
    for (NodeId v : shard.dangling_owned) {
      EXPECT_EQ(graph.OutDegree(v), 0);
    }
    // Recount both boundary sides independently.
    EdgeIndex recount_out = 0;
    for (size_t k = 0; k < shard.owned.size(); ++k) {
      for (EdgeIndex j = shard.out_offsets[k]; j < shard.out_offsets[k + 1];
           ++j) {
        if (partition.OwnerOf(shard.out_targets[static_cast<size_t>(j)]) !=
            s) {
          ++recount_out;
        }
      }
    }
    EdgeIndex recount_in = 0;
    for (size_t idx = 0; idx < shard.in_sources.size(); ++idx) {
      const bool interior = partition.OwnerOf(shard.in_sources[idx]) == s;
      EXPECT_EQ(shard.in_interior[idx], interior ? 1 : 0);
      if (!interior) ++recount_in;
    }
    EXPECT_EQ(shard.boundary_out_arcs, recount_out);
    EXPECT_EQ(shard.boundary_in_arcs, recount_in);

    // The [owned | boundary] slot layout the sweep kernels read: the
    // boundary list is the distinct remote sources, ascending, and every
    // slot names its arc's source.
    std::set<NodeId> remote;
    for (size_t idx = 0; idx < shard.in_sources.size(); ++idx) {
      if (!shard.in_interior[idx]) remote.insert(shard.in_sources[idx]);
    }
    const std::vector<NodeId> boundary = ShardBoundarySources(shard);
    EXPECT_EQ(boundary, std::vector<NodeId>(remote.begin(), remote.end()));
    const std::vector<NodeId> slots = ShardSourceSlots(shard, boundary);
    ASSERT_EQ(slots.size(), shard.in_sources.size());
    for (size_t idx = 0; idx < slots.size(); ++idx) {
      const size_t slot = static_cast<size_t>(slots[idx]);
      ASSERT_LT(slot, shard.owned.size() + boundary.size());
      EXPECT_EQ(slot < shard.owned.size()
                    ? shard.owned[slot]
                    : boundary[slot - shard.owned.size()],
                shard.in_sources[idx]);
    }
    boundary_in_total += shard.boundary_in_arcs;
    boundary_out_total += shard.boundary_out_arcs;
  }
  // Every arc lands in exactly one in-row; both boundary tallies count
  // the same cross-shard arc set (once at its source, once at its
  // destination).
  EXPECT_EQ(static_cast<EdgeIndex>(seen_in_arcs.size()), graph.num_arcs());
  EXPECT_EQ(boundary_in_total, boundary_out_total);
  EXPECT_EQ(partition.boundary_arcs(), boundary_in_total);
}

TEST(GraphPartitionTest, RangeOwnershipIsContiguousAndBalanced) {
  Rng rng(7);
  auto graph = ErdosRenyi(10, 20, &rng);
  ASSERT_TRUE(graph.ok());
  auto partition = GraphPartition::Build(
      *graph, {.scheme = PartitionScheme::kRange, .num_shards = 4});
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  ASSERT_EQ(partition->num_shards(), 4u);
  // 10 nodes over 4 shards: sizes 3, 3, 2, 2, contiguous in id order.
  EXPECT_EQ(partition->shard(0).owned, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(partition->shard(1).owned, (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(partition->shard(2).owned, (std::vector<NodeId>{6, 7}));
  EXPECT_EQ(partition->shard(3).owned, (std::vector<NodeId>{8, 9}));
  ExpectWellFormed(*graph, *partition);
}

TEST(GraphPartitionTest, HashOwnershipMatchesModulo) {
  Rng rng(11);
  auto graph = BarabasiAlbert(40, 2, &rng);
  ASSERT_TRUE(graph.ok());
  auto partition = GraphPartition::Build(
      *graph, {.scheme = PartitionScheme::kHash, .num_shards = 3});
  ASSERT_TRUE(partition.ok());
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    EXPECT_EQ(partition->OwnerOf(v),
              static_cast<size_t>(v) % partition->num_shards());
  }
  ExpectWellFormed(*graph, *partition);
}

TEST(GraphPartitionTest, StructureMatchesGraphAcrossSchemesAndCounts) {
  Rng rng(23);
  auto built = BarabasiAlbert(57, 3, &rng);
  ASSERT_TRUE(built.ok());
  const CsrGraph& undirected = *built;
  const CsrGraph directed = DirectedDiamond();
  for (const CsrGraph* graph : {&undirected, &directed}) {
    for (PartitionScheme scheme :
         {PartitionScheme::kRange, PartitionScheme::kHash}) {
      for (size_t shards : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::string(PartitionSchemeName(scheme)) + " x " +
                     std::to_string(shards));
        auto partition = GraphPartition::Build(
            *graph, {.scheme = scheme, .num_shards = shards});
        ASSERT_TRUE(partition.ok());
        ExpectWellFormed(*graph, *partition);
      }
    }
  }
}

TEST(GraphPartitionTest, SingleShardHasNoBoundary) {
  Rng rng(5);
  auto graph = WattsStrogatz(30, 2, 0.2, &rng);
  ASSERT_TRUE(graph.ok());
  auto partition = GraphPartition::Build(*graph, {.num_shards = 1});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->boundary_arcs(), 0);
  EXPECT_DOUBLE_EQ(partition->BoundaryFraction(), 0.0);
  ExpectWellFormed(*graph, *partition);
}

// --- edge cases: well-formed partition or clean Status, never a crash ---

TEST(GraphPartitionTest, ZeroShardCountIsInvalidArgument) {
  auto partition = GraphPartition::Build(CsrGraph(), {.num_shards = 0});
  EXPECT_FALSE(partition.ok());
  EXPECT_EQ(partition.status().code(), StatusCode::kInvalidArgument)
      << partition.status().ToString();
}

TEST(GraphPartitionTest, EmptyGraphPartitionsCleanly) {
  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    auto partition =
        GraphPartition::Build(CsrGraph(), {.scheme = scheme, .num_shards = 3});
    ASSERT_TRUE(partition.ok()) << partition.status().ToString();
    EXPECT_EQ(partition->num_nodes(), 0);
    EXPECT_EQ(partition->num_shards(), 3u);
    EXPECT_EQ(partition->boundary_arcs(), 0);
    EXPECT_DOUBLE_EQ(partition->BoundaryFraction(), 0.0);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(partition->shard(s).num_owned(), 0u);
      EXPECT_EQ(partition->shard(s).num_out_arcs(), 0);
      EXPECT_EQ(partition->shard(s).num_in_arcs(), 0);
    }
    EXPECT_FALSE(partition->ToString().empty());
    ExpectWellFormed(CsrGraph(), *partition);
  }
}

TEST(GraphPartitionTest, SingleNodePartitionsCleanly) {
  GraphBuilder builder(1, GraphKind::kDirected);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    auto partition =
        GraphPartition::Build(*graph, {.scheme = scheme, .num_shards = 4});
    ASSERT_TRUE(partition.ok());
    EXPECT_EQ(partition->OwnerOf(0), 0u);  // both schemes: node 0 -> shard 0
    size_t total_owned = 0;
    for (size_t s = 0; s < partition->num_shards(); ++s) {
      total_owned += partition->shard(s).num_owned();
    }
    EXPECT_EQ(total_owned, 1u);
    // The lone node is dangling; its owner records it.
    EXPECT_EQ(partition->shard(0).dangling_owned,
              (std::vector<NodeId>{0}));
    ExpectWellFormed(*graph, *partition);
  }
}

TEST(GraphPartitionTest, MoreShardsThanNodesLeavesEmptyShards) {
  const CsrGraph graph = DirectedDiamond();  // 4 nodes
  auto partition = GraphPartition::Build(
      graph, {.scheme = PartitionScheme::kRange, .num_shards = 9});
  ASSERT_TRUE(partition.ok());
  size_t non_empty = 0;
  for (size_t s = 0; s < partition->num_shards(); ++s) {
    if (partition->shard(s).num_owned() > 0) ++non_empty;
  }
  EXPECT_EQ(non_empty, 4u);
  ExpectWellFormed(graph, *partition);
}

TEST(GraphPartitionTest, AllDanglingShardIsWellFormed) {
  // Directed star into a contiguous block of sinks: under a 2-shard range
  // partition, shard 1 owns only dangling nodes.
  GraphBuilder builder(6, GraphKind::kDirected);
  for (NodeId sink = 3; sink < 6; ++sink) {
    for (NodeId src = 0; src < 3; ++src) {
      ASSERT_TRUE(builder.AddEdge(src, sink).ok());
    }
  }
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  auto partition = GraphPartition::Build(
      *graph, {.scheme = PartitionScheme::kRange, .num_shards = 2});
  ASSERT_TRUE(partition.ok());
  const PartitionShard& sinks = partition->shard(1);
  EXPECT_EQ(sinks.owned, (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(sinks.dangling_owned, sinks.owned);
  EXPECT_EQ(sinks.num_out_arcs(), 0);
  // Every in-arc of the sink shard crosses the boundary.
  EXPECT_EQ(sinks.num_in_arcs(), 9);
  EXPECT_EQ(sinks.boundary_in_arcs, 9);
  ExpectWellFormed(*graph, *partition);
}

TEST(GraphPartitionTest, PullOnlyBuildSkipsOutCsrButKeepsAccounting) {
  // build_out_csr = false (what the serving router uses) must skip only
  // the forward arrays: the in-CSR, interior flags, dangling lists, and
  // every boundary counter stay identical to a full build.
  Rng rng(31);
  auto graph = BarabasiAlbert(50, 2, &rng);
  ASSERT_TRUE(graph.ok());
  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    auto full = GraphPartition::Build(
        *graph, {.scheme = scheme, .num_shards = 3});
    auto pull_only = GraphPartition::Build(
        *graph, {.scheme = scheme, .num_shards = 3, .build_out_csr = false});
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(pull_only.ok());
    EXPECT_EQ(pull_only->boundary_arcs(), full->boundary_arcs());
    EXPECT_DOUBLE_EQ(pull_only->BoundaryFraction(),
                     full->BoundaryFraction());
    for (size_t s = 0; s < 3; ++s) {
      const PartitionShard& a = pull_only->shard(s);
      const PartitionShard& b = full->shard(s);
      EXPECT_TRUE(a.out_offsets.empty());
      EXPECT_TRUE(a.out_targets.empty());
      EXPECT_TRUE(a.out_arc_begin.empty());
      EXPECT_EQ(a.owned, b.owned);
      EXPECT_EQ(a.in_offsets, b.in_offsets);
      EXPECT_EQ(a.in_sources, b.in_sources);
      EXPECT_EQ(a.in_arc_index, b.in_arc_index);
      EXPECT_EQ(a.in_interior, b.in_interior);
      EXPECT_EQ(a.dangling_owned, b.dangling_owned);
      EXPECT_EQ(a.boundary_in_arcs, b.boundary_in_arcs);
      EXPECT_EQ(a.boundary_out_arcs, b.boundary_out_arcs);
    }
  }
}

TEST(GraphPartitionTest, WeightedGraphKeepsArcAlignment) {
  GraphBuilder builder(4, GraphKind::kDirected, /*weighted=*/true);
  ASSERT_TRUE(builder.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(builder.AddEdge(0, 3, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1, 4.0).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  auto partition = GraphPartition::Build(
      *graph, {.scheme = PartitionScheme::kHash, .num_shards = 2});
  ASSERT_TRUE(partition.ok());
  // The in-arc index must slice per-arc data correctly: reconstruct each
  // arc's weight through it.
  for (size_t s = 0; s < partition->num_shards(); ++s) {
    const PartitionShard& shard = partition->shard(s);
    for (size_t k = 0; k < shard.owned.size(); ++k) {
      for (EdgeIndex idx = shard.in_offsets[k]; idx < shard.in_offsets[k + 1];
           ++idx) {
        const NodeId src = shard.in_sources[static_cast<size_t>(idx)];
        const EdgeIndex arc = shard.in_arc_index[static_cast<size_t>(idx)];
        EXPECT_EQ(graph->weights()[static_cast<size_t>(arc)],
                  graph->ArcWeight(src, shard.owned[k]));
      }
    }
  }
  ExpectWellFormed(*graph, *partition);
}

}  // namespace
}  // namespace d2pr
