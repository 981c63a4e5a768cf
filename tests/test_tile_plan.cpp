// Tests for the tiling planner: grid factorisation, coverage, balance and
// Round-robin device assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "mp/tile_plan.hpp"

namespace mpsim::mp {
namespace {

/// Makespan (in tile-area units) of an assignment over n_devices: the
/// quantity LPT minimises.
std::size_t assignment_makespan(const std::vector<Tile>& tiles,
                                int n_devices) {
  std::vector<std::size_t> load(std::size_t(n_devices), 0);
  for (const auto& tile : tiles) {
    load.at(std::size_t(tile.device)) += tile.r_count * tile.q_count;
  }
  return *std::max_element(load.begin(), load.end());
}

TEST(TileGrid, SquareFactorisationWithRowBias) {
  EXPECT_EQ(choose_tile_grid(1).rows, 1);
  EXPECT_EQ(choose_tile_grid(1).cols, 1);
  EXPECT_EQ(choose_tile_grid(4).rows, 2);
  EXPECT_EQ(choose_tile_grid(4).cols, 2);
  EXPECT_EQ(choose_tile_grid(8).rows, 4);
  EXPECT_EQ(choose_tile_grid(8).cols, 2);
  EXPECT_EQ(choose_tile_grid(16).rows, 4);
  EXPECT_EQ(choose_tile_grid(16).cols, 4);
  EXPECT_EQ(choose_tile_grid(1024).rows, 32);
  EXPECT_EQ(choose_tile_grid(1024).cols, 32);
  // Primes degenerate to row strips (rows >= cols always).
  EXPECT_EQ(choose_tile_grid(7).rows, 7);
  EXPECT_EQ(choose_tile_grid(7).cols, 1);
  EXPECT_THROW(choose_tile_grid(0), Error);
}

class TileCoverage : public ::testing::TestWithParam<int> {};

TEST_P(TileCoverage, TilesPartitionTheMatrixExactly) {
  const int ntiles = GetParam();
  const std::size_t nr = 1000, nq = 777;
  const auto tiles = compute_tile_list(nr, nq, ntiles);

  // Every (i, j) cell covered exactly once.
  std::size_t covered = 0;
  for (const auto& t : tiles) covered += t.r_count * t.q_count;
  EXPECT_EQ(covered, nr * nq);

  // Ranges stay in bounds and are non-empty.
  for (const auto& t : tiles) {
    EXPECT_GT(t.r_count, 0u);
    EXPECT_GT(t.q_count, 0u);
    EXPECT_LE(t.r_begin + t.r_count, nr);
    EXPECT_LE(t.q_begin + t.q_count, nq);
  }

  // No two tiles overlap (check pairwise rectangles).
  for (std::size_t a = 0; a < tiles.size(); ++a) {
    for (std::size_t b = a + 1; b < tiles.size(); ++b) {
      const bool row_disjoint =
          tiles[a].r_begin + tiles[a].r_count <= tiles[b].r_begin ||
          tiles[b].r_begin + tiles[b].r_count <= tiles[a].r_begin;
      const bool col_disjoint =
          tiles[a].q_begin + tiles[a].q_count <= tiles[b].q_begin ||
          tiles[b].q_begin + tiles[b].q_count <= tiles[a].q_begin;
      EXPECT_TRUE(row_disjoint || col_disjoint);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, TileCoverage,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 17, 64, 256));

TEST(TileList, BalancedWithinOneElement) {
  const auto tiles = compute_tile_list(1001, 500, 16);  // 4x4 grid
  std::size_t min_r = SIZE_MAX, max_r = 0;
  for (const auto& t : tiles) {
    min_r = std::min(min_r, t.r_count);
    max_r = std::max(max_r, t.r_count);
  }
  EXPECT_LE(max_r - min_r, 1u);
}

TEST(TileList, ClampsGridForTinyInputs) {
  // 3 segments cannot be split into 8 row blocks; the planner must not
  // emit empty tiles.
  const auto tiles = compute_tile_list(3, 2, 64);
  for (const auto& t : tiles) {
    EXPECT_GT(t.r_count, 0u);
    EXPECT_GT(t.q_count, 0u);
  }
  std::size_t covered = 0;
  for (const auto& t : tiles) covered += t.r_count * t.q_count;
  EXPECT_EQ(covered, 6u);
}

TEST(RoundRobin, BalancedAssignmentWhenDivisible) {
  auto tiles = compute_tile_list(1024, 1024, 16);
  assign_tiles_round_robin(tiles, 4);
  std::vector<int> per_device(4, 0);
  for (const auto& t : tiles) per_device[std::size_t(t.device)] += 1;
  for (int c : per_device) EXPECT_EQ(c, 4);
}

TEST(RoundRobin, ImbalanceWithOddDeviceCounts) {
  // The paper observes inefficiency with odd GPU counts because 16 tiles
  // don't divide by 3: one device gets 6, the others 5.
  auto tiles = compute_tile_list(1024, 1024, 16);
  assign_tiles_round_robin(tiles, 3);
  std::vector<int> per_device(3, 0);
  for (const auto& t : tiles) per_device[std::size_t(t.device)] += 1;
  std::sort(per_device.begin(), per_device.end());
  EXPECT_EQ(per_device[0], 5);
  EXPECT_EQ(per_device[2], 6);
}

TEST(RoundRobin, AllDevicesUsedWhenEnoughTiles) {
  auto tiles = compute_tile_list(4096, 4096, 64);
  assign_tiles_round_robin(tiles, 8);
  std::set<int> devices;
  for (const auto& t : tiles) devices.insert(t.device);
  EXPECT_EQ(devices.size(), 8u);
}

TEST(LptAssignment, EqualTilesMatchRoundRobinMakespan) {
  // The planner emits equal-sized tiles, so LPT cannot beat Round-robin —
  // the ceil(T/G) quantisation is the only imbalance (the paper's
  // odd-GPU-count observation).
  auto rr = compute_tile_list(4096, 4096, 16);
  auto lpt = rr;
  assign_tiles_round_robin(rr, 3);
  assign_tiles_lpt(lpt, 3);
  EXPECT_EQ(assignment_makespan(rr, 3), assignment_makespan(lpt, 3));
}

TEST(LptAssignment, BeatsRoundRobinOnUnevenTiles) {
  // Hand-built uneven tiling: one huge tile and several small ones.
  // Round-robin by id pairs the huge tile with others on device 0; LPT
  // isolates it.
  std::vector<Tile> tiles{
      {0, 1000, 0, 1000, 0, 0},  // area 1,000,000
      {0, 100, 0, 100, 0, 1},    // area 10,000
      {0, 100, 0, 100, 0, 2},
      {0, 100, 0, 100, 0, 3},
  };
  auto rr = tiles;
  auto lpt = tiles;
  assign_tiles_round_robin(rr, 2);
  assign_tiles_lpt(lpt, 2);
  // RR: device 0 gets tiles {0, 2} = 1,010,000. LPT: the huge tile sits
  // alone, the three small ones share the other device.
  EXPECT_EQ(assignment_makespan(rr, 2), 1'010'000u);
  EXPECT_EQ(assignment_makespan(lpt, 2), 1'000'000u);
}

TEST(LptAssignment, DeterministicAndInRange) {
  auto tiles = compute_tile_list(777, 555, 12);
  auto again = tiles;
  assign_tiles_lpt(tiles, 5);
  assign_tiles_lpt(again, 5);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(tiles[i].device, again[i].device);
    EXPECT_GE(tiles[i].device, 0);
    EXPECT_LT(tiles[i].device, 5);
  }
}

/// The one-level rule deal_tiles applies at both levels.
void assign(std::vector<Tile>& tiles, int n, TileAssignment assignment) {
  if (assignment == TileAssignment::kLpt) {
    assign_tiles_lpt(tiles, n);
  } else {
    assign_tiles_round_robin(tiles, n);
  }
}

TEST(DealTiles, OneNodeIsTheDeviceAssignment) {
  for (const auto assignment :
       {TileAssignment::kRoundRobin, TileAssignment::kLpt}) {
    for (const int n_tiles : {1, 4, 6, 7, 12, 16}) {
      for (const int devices : {1, 2, 3, 5}) {
        auto expected = compute_tile_list(777, 555, n_tiles);
        auto dealt = expected;
        assign(expected, devices, assignment);
        deal_tiles(dealt, 1, devices, assignment);
        for (std::size_t i = 0; i < dealt.size(); ++i) {
          EXPECT_EQ(dealt[i].device, expected[i].device)
              << n_tiles << " tiles, " << devices << " devices, tile " << i;
        }
      }
    }
  }
}

TEST(DealTiles, EachNodeSpreadsItsShareOverItsDevices) {
  for (const auto assignment :
       {TileAssignment::kRoundRobin, TileAssignment::kLpt}) {
    for (const int n_tiles : {4, 6, 7, 12, 16}) {
      for (const int nodes : {2, 3, 4}) {
        for (const int devices : {1, 2, 3}) {
          auto by_node = compute_tile_list(777, 555, n_tiles);
          auto dealt = by_node;
          assign(by_node, nodes, assignment);
          deal_tiles(dealt, nodes, devices, assignment);
          for (int k = 0; k < nodes; ++k) {
            std::vector<std::size_t> share;
            std::vector<Tile> placed;
            for (std::size_t t = 0; t < by_node.size(); ++t) {
              if (by_node[t].device != k) continue;
              share.push_back(t);
              placed.push_back(by_node[t]);
            }
            assign(placed, devices, assignment);
            for (std::size_t i = 0; i < share.size(); ++i) {
              EXPECT_EQ(dealt[share[i]].device,
                        k * devices + placed[i].device)
                  << n_tiles << " tiles, " << nodes << " nodes x "
                  << devices << " devices, tile " << share[i];
            }
          }
        }
      }
    }
  }
}

TEST(DealTiles, RoundRobinOverThreeNodesOfTwo) {
  // Nodes take tiles 0,3 | 1,4 | 2,5; each node's two devices alternate.
  auto tiles = compute_tile_list(600, 600, 6);
  deal_tiles(tiles, 3, 2, TileAssignment::kRoundRobin);
  const std::vector<int> expected{0, 2, 4, 1, 3, 5};
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(tiles[i].device, expected[i]) << "tile " << i;
  }
}

TEST(TileList, IdsAreSequentialRowMajor) {
  const auto tiles = compute_tile_list(100, 100, 4);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(tiles[i].id, int(i));
  }
  // Row-major: the second tile shares the row block of the first.
  EXPECT_EQ(tiles[0].r_begin, tiles[1].r_begin);
  EXPECT_NE(tiles[0].q_begin, tiles[1].q_begin);
}

}  // namespace
}  // namespace mpsim::mp
