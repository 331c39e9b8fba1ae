#include "go/board.h"

#include <gtest/gtest.h>

#include "tensor/rng.h"

namespace mlperf::go {
namespace {

std::int64_t pt(const Board& b, std::int64_t row, std::int64_t col) {
  return row * b.size() + col;
}

TEST(Board, StartsEmptyBlackToPlay) {
  Board b(9);
  EXPECT_EQ(b.size(), 9);
  EXPECT_EQ(b.to_play(), Stone::kBlack);
  EXPECT_FALSE(b.game_over());
  for (std::int64_t p = 0; p < 81; ++p) EXPECT_EQ(b.at(p), Stone::kEmpty);
}

TEST(Board, BadSizeThrows) {
  EXPECT_THROW(Board(1), std::invalid_argument);
  EXPECT_THROW(Board(20), std::invalid_argument);
}

TEST(Board, PlayAlternatesColors) {
  Board b(9);
  b.play(Move::at(0));
  EXPECT_EQ(b.at(0), Stone::kBlack);
  EXPECT_EQ(b.to_play(), Stone::kWhite);
  b.play(Move::at(1));
  EXPECT_EQ(b.at(1), Stone::kWhite);
}

TEST(Board, OccupiedPointIsIllegal) {
  Board b(9);
  b.play(Move::at(40));
  EXPECT_FALSE(b.is_legal(Move::at(40)));
  EXPECT_THROW(b.play(Move::at(40)), std::invalid_argument);
}

TEST(Board, TwoPassesEndGame) {
  Board b(9);
  b.play(Move::pass());
  EXPECT_FALSE(b.game_over());
  b.play(Move::pass());
  EXPECT_TRUE(b.game_over());
  EXPECT_FALSE(b.is_legal(Move::pass()));
  EXPECT_TRUE(b.legal_moves().empty());
}

TEST(Board, PassResetsOnStonePlay) {
  Board b(9);
  b.play(Move::pass());
  b.play(Move::at(0));
  b.play(Move::pass());
  EXPECT_FALSE(b.game_over());
}

TEST(Board, LibertiesCountedCorrectly) {
  Board b(9);
  b.play(Move::at(pt(b, 4, 4)));  // center: 4 liberties
  EXPECT_EQ(b.liberties(pt(b, 4, 4)), 4);
  Board c(9);
  c.play(Move::at(pt(c, 0, 0)));  // corner: 2 liberties
  EXPECT_EQ(c.liberties(pt(c, 0, 0)), 2);
}

TEST(Board, GroupLibertiesShared) {
  Board b(9);
  b.play(Move::at(pt(b, 4, 4)));  // black
  b.play(Move::at(pt(b, 0, 0)));  // white elsewhere
  b.play(Move::at(pt(b, 4, 5)));  // black: group of two
  EXPECT_EQ(b.liberties(pt(b, 4, 4)), 6);
  EXPECT_EQ(b.liberties(pt(b, 4, 5)), 6);
}

TEST(Board, SingleStoneCapture) {
  Board b(9);
  // White stone at (0,0) captured by black at (0,1) and (1,0).
  b.play(Move::at(pt(b, 4, 4)));  // B filler
  b.play(Move::at(pt(b, 0, 0)));  // W corner
  b.play(Move::at(pt(b, 0, 1)));  // B
  b.play(Move::at(pt(b, 5, 5)));  // W filler
  b.play(Move::at(pt(b, 1, 0)));  // B captures
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
}

TEST(Board, GroupCapture) {
  Board b(9);
  // Build a white group of two at (0,0) (0,1) and capture it.
  b.play(Move::at(pt(b, 4, 4)));  // B
  b.play(Move::at(pt(b, 0, 0)));  // W
  b.play(Move::at(pt(b, 1, 0)));  // B
  b.play(Move::at(pt(b, 0, 1)));  // W group of 2
  b.play(Move::at(pt(b, 1, 1)));  // B
  b.play(Move::at(pt(b, 5, 5)));  // W filler
  b.play(Move::at(pt(b, 0, 2)));  // B captures both
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 0, 1)), Stone::kEmpty);
}

TEST(Board, SuicideIsIllegal) {
  Board b(9);
  // Black surrounds (0,0); white playing there would be suicide.
  b.play(Move::at(pt(b, 0, 1)));  // B
  b.play(Move::at(pt(b, 5, 5)));  // W
  b.play(Move::at(pt(b, 1, 0)));  // B
  EXPECT_EQ(b.to_play(), Stone::kWhite);
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 0, 0))));
}

TEST(Board, CapturingIntoZeroLibertyPointIsLegal) {
  // Black plays (0,0) — a point with no liberties of its own — but the move
  // captures the adjacent white group, so it is legal (not suicide).
  Board b(5);
  b.play(Move::at(pt(b, 0, 2)));  // B
  b.play(Move::at(pt(b, 0, 1)));  // W
  b.play(Move::at(pt(b, 2, 0)));  // B
  b.play(Move::at(pt(b, 1, 0)));  // W
  b.play(Move::at(pt(b, 2, 1)));  // B
  b.play(Move::at(pt(b, 1, 1)));  // W group {(0,1),(1,0),(1,1)}
  b.play(Move::at(pt(b, 1, 2)));  // B — white group's last liberty is (0,0)
  b.play(Move::pass());           // W
  EXPECT_EQ(b.to_play(), Stone::kBlack);
  ASSERT_TRUE(b.is_legal(Move::at(pt(b, 0, 0))));
  b.play(Move::at(pt(b, 0, 0)));
  EXPECT_EQ(b.at(pt(b, 0, 1)), Stone::kEmpty);  // white captured
  EXPECT_EQ(b.at(pt(b, 1, 0)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 1, 1)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kBlack);
  EXPECT_GT(b.liberties(pt(b, 0, 0)), 0);
}

TEST(Board, SimpleKoForbidden) {
  Board b(9);
  // Classic ko shape around (1,1)/(1,2).
  // B: (0,1), (1,0), (2,1); W: (0,2), (1,3), (2,2); B plays (1,2), W captures
  // at (1,1), then B immediate recapture at (1,2) must be illegal (superko).
  b.play(Move::at(pt(b, 0, 1)));  // B
  b.play(Move::at(pt(b, 0, 2)));  // W
  b.play(Move::at(pt(b, 1, 0)));  // B
  b.play(Move::at(pt(b, 1, 3)));  // W
  b.play(Move::at(pt(b, 2, 1)));  // B
  b.play(Move::at(pt(b, 2, 2)));  // W
  b.play(Move::at(pt(b, 1, 2)));  // B stone in the ko
  b.play(Move::at(pt(b, 1, 1)));  // W captures the B stone (ko)
  EXPECT_EQ(b.at(pt(b, 1, 2)), Stone::kEmpty);
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 1, 2))))
      << "immediate ko recapture must violate positional superko";
}

TEST(Board, ScoringEmptyBoardIsKomi) {
  Board b(9, 5.5f);
  EXPECT_FLOAT_EQ(b.tromp_taylor_score(), -5.5f);
  EXPECT_EQ(b.winner(), Stone::kWhite);
}

TEST(Board, ScoringCountsTerritory) {
  Board b(5, 0.5f);
  // Black wall on column 2 splits the board; black owns left side if white
  // has no stones there.
  for (std::int64_t r = 0; r < 5; ++r) {
    b.play(Move::at(pt(b, r, 2)));         // B wall
    if (r < 4) b.play(Move::at(pt(b, r, 4)));  // W column
  }
  // Black: 5 stones + 10 territory (cols 0-1). White: 4 stones + col-3 region
  // touches both colors -> neutral.
  const float score = b.tromp_taylor_score();
  EXPECT_FLOAT_EQ(score, 5.0f + 10.0f - 4.0f - 0.5f);
  EXPECT_EQ(b.winner(), Stone::kBlack);
}

TEST(Board, LegalMovesShrinkAsBoardFills) {
  Board b(5);
  const auto before = b.legal_moves().size();
  b.play(Move::at(0));
  EXPECT_LT(b.legal_moves().size(), before);
}

TEST(Board, LegalMovesAlwaysIncludePass) {
  Board b(5);
  const auto moves = b.legal_moves();
  bool has_pass = false;
  for (const auto& m : moves)
    if (m.is_pass()) has_pass = true;
  EXPECT_TRUE(has_pass);
}

TEST(Board, PositionHashChangesWithStones) {
  Board b(9);
  const auto h0 = b.position_hash();
  b.play(Move::at(3));
  EXPECT_NE(b.position_hash(), h0);
}

TEST(Board, HashIdenticalForIdenticalPositions) {
  Board a(9), b(9);
  a.play(Move::at(1));
  a.play(Move::at(2));
  b.play(Move::at(1));
  b.play(Move::at(2));
  EXPECT_EQ(a.position_hash(), b.position_hash());
}

TEST(Board, CaptureRestoresHashOfEmptyPoint) {
  // After capture, position hash reflects the removed stone.
  Board b(9);
  b.play(Move::at(pt(b, 4, 4)));
  b.play(Move::at(pt(b, 0, 0)));
  b.play(Move::at(pt(b, 0, 1)));
  b.play(Move::at(pt(b, 5, 5)));
  Board reference = b;  // before capture
  b.play(Move::at(pt(b, 1, 0)));  // captures W (0,0)
  EXPECT_NE(b.position_hash(), reference.position_hash());
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
}

TEST(Board, ToStringRendersStones) {
  Board b(5);
  b.play(Move::at(0));
  const std::string s = b.to_string();
  EXPECT_EQ(s[0], 'X');
  EXPECT_NE(s.find("white to play"), std::string::npos);
}

// Property: random legal playouts terminate and never throw.
class RandomPlayout : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPlayout, CompletesWithoutRuleViolations) {
  tensor::Rng rng(GetParam());
  Board b(5, 0.5f);
  std::int64_t moves = 0;
  while (!b.game_over() && moves < 200) {
    const auto legal = b.legal_moves();
    ASSERT_FALSE(legal.empty());
    const Move m = legal[static_cast<std::size_t>(rng.randint(legal.size()))];
    ASSERT_TRUE(b.is_legal(m));
    b.play(m);
    ++moves;
  }
  // Scoring always works on any reachable position.
  (void)b.tromp_taylor_score();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlayout, ::testing::Values(1, 2, 3, 4, 5));

TEST(Board, CaptureTouchingTwoSidesXorsEachStoneOnce) {
  // The white group {(0,1),(1,0),(1,1)} touches (0,0) through both of its
  // neighbours. Capturing it must remove each stone from the hash once, so
  // the result hashes like the same stones played with no capture at all.
  Board b(5);
  b.play(Move::at(pt(b, 0, 2)));  // B
  b.play(Move::at(pt(b, 0, 1)));  // W
  b.play(Move::at(pt(b, 2, 0)));  // B
  b.play(Move::at(pt(b, 1, 0)));  // W
  b.play(Move::at(pt(b, 2, 1)));  // B
  b.play(Move::at(pt(b, 1, 1)));  // W
  b.play(Move::at(pt(b, 1, 2)));  // B
  b.play(Move::pass());           // W
  ASSERT_TRUE(b.is_legal(Move::at(pt(b, 0, 0))));
  b.play(Move::at(pt(b, 0, 0)));  // B captures three stones

  Board same(5);
  for (const auto& [r, c] : {std::pair{0, 2}, {2, 0}, {2, 1}, {1, 2}, {0, 0}}) {
    same.play(Move::at(pt(same, r, c)));
    same.play(Move::pass());
  }
  EXPECT_EQ(b.position_hash(), same.position_hash());
  EXPECT_EQ(b.to_string().substr(0, 30), same.to_string().substr(0, 30));
}

TEST(Board, SuperkoSeesCaptureOfGroupTouchingTwoSides) {
  // Black's capture at (0,0) of the white group {(0,1),(1,0),(1,1)}, which
  // touches (0,0) on two sides, would recreate the position after move 9.
  // The legality check only sees that if it removes each captured stone
  // from the hash once.
  Board b(5);
  for (const auto& [r, c] : {std::pair{0, 2}, {2, 0}, {2, 1}, {1, 2}}) {
    b.play(Move::at(pt(b, r, c)));  // B walls off the corner
    b.play(Move::pass());           // W
  }
  b.play(Move::at(pt(b, 0, 0)));  // 9 B
  b.play(Move::at(pt(b, 0, 1)));  // 10 W
  b.play(Move::pass());           // 11 B
  b.play(Move::at(pt(b, 1, 0)));  // 12 W captures (0,0)
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
  b.play(Move::pass());           // 13 B
  b.play(Move::at(pt(b, 1, 1)));  // 14 W: the group's last liberty is (0,0)
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 0, 0))));
}

TEST(Board, RecaptureAfterMultiStoneCaptureViolatesSuperko) {
  // White's pair {(0,1),(0,2)} has one liberty, (0,0). Black captures both
  // there; White's recapture at (0,1) would recreate the position after
  // move 5, which positional superko forbids (though it is not a simple ko).
  Board b(5);
  b.play(Move::at(pt(b, 1, 1)));  // 1 B
  b.play(Move::at(pt(b, 1, 0)));  // 2 W
  b.play(Move::at(pt(b, 1, 2)));  // 3 B
  b.play(Move::at(pt(b, 0, 1)));  // 4 W
  b.play(Move::at(pt(b, 0, 3)));  // 5 B
  b.play(Move::at(pt(b, 0, 2)));  // 6 W: the pair, in atari at (0,0)
  b.play(Move::at(pt(b, 0, 0)));  // 7 B captures two stones
  EXPECT_EQ(b.at(pt(b, 0, 1)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 0, 2)), Stone::kEmpty);
  EXPECT_EQ(b.liberties(pt(b, 0, 0)), 1);
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 0, 1))));
  EXPECT_THROW(b.play(Move::at(pt(b, 0, 1))), std::invalid_argument);
  bool listed = false;
  for (const Move m : b.legal_moves()) listed |= m == Move::at(pt(b, 0, 1));
  EXPECT_FALSE(listed);
  EXPECT_TRUE(b.is_legal(Move::at(pt(b, 0, 2))));  // a different position
}

// Golden digest of the rules: legal_moves(), position_hash() and
// tromp_taylor_score() at every position of seeded random playouts. The
// expected values were recorded from the copy-based legality check that the
// in-place one replaced; all inputs are integers, so they hold for any
// compiler.
std::uint64_t playout_digest(std::int64_t size, std::uint64_t games) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint64_t g = 0; g < games; ++g) {
    tensor::Rng rng(1000 + g);
    Board b(size, 0.5f);
    for (std::int64_t ply = 0; !b.game_over() && ply < 3 * b.num_points(); ++ply) {
      const auto legal = b.legal_moves();
      for (const Move m : legal) mix(m.point);
      mix(static_cast<std::int64_t>(b.position_hash()));
      mix(static_cast<std::int64_t>(b.tromp_taylor_score() * 2.0f));
      b.play(legal[static_cast<std::size_t>(rng.randint(legal.size()))]);
    }
    mix(static_cast<std::int64_t>(b.winner()));
  }
  return h;
}

TEST(Board, RulesGoldenDigest9x9) { EXPECT_EQ(playout_digest(9, 200), 0x12b6f2811e24f5f2ULL); }

TEST(Board, RulesGoldenDigest5x5) { EXPECT_EQ(playout_digest(5, 200), 0x358325a76d8be925ULL); }

}  // namespace
}  // namespace mlperf::go
