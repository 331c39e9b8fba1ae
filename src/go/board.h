#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace mlperf::go {

enum class Stone : std::uint8_t { kEmpty = 0, kBlack = 1, kWhite = 2 };

inline Stone opponent(Stone s) {
  if (s == Stone::kBlack) return Stone::kWhite;
  if (s == Stone::kWhite) return Stone::kBlack;
  return Stone::kEmpty;
}

/// A move: a point index in [0, size*size) or pass().
struct Move {
  std::int64_t point = -1;  // -1 = pass

  static Move pass() { return Move{-1}; }
  static Move at(std::int64_t p) { return Move{p}; }
  bool is_pass() const { return point < 0; }
  bool operator==(const Move&) const = default;
};

/// Full Go rules on an N×N board (default 9×9, the paper's MiniGo board):
/// captures, suicide prohibition, positional superko (via Zobrist hashing of
/// all previous positions), two-pass game end, and Tromp-Taylor area scoring.
class Board {
 public:
  /// Points on the largest supported board (19×19).
  static constexpr std::int64_t kMaxPoints = 19 * 19;

  explicit Board(std::int64_t size = 9, float komi = 5.5f);

  std::int64_t size() const { return size_; }
  std::int64_t num_points() const { return size_ * size_; }
  float komi() const { return komi_; }
  Stone to_play() const { return to_play_; }
  Stone at(std::int64_t p) const { return grid_.at(static_cast<std::size_t>(p)); }
  Stone at(std::int64_t row, std::int64_t col) const { return at(row * size_ + col); }
  std::int64_t move_count() const { return move_count_; }
  bool game_over() const { return consecutive_passes_ >= 2; }

  /// Is this move legal for the side to play (occupancy, suicide, superko)?
  bool is_legal(Move m) const;

  /// All legal moves (including pass, which is always legal).
  std::vector<Move> legal_moves() const;

  /// Play a move; throws std::invalid_argument if illegal.
  void play(Move m);

  /// Tromp-Taylor area score from Black's perspective (stones + exclusive
  /// territory), minus komi. Positive = Black wins.
  float tromp_taylor_score() const;

  /// Winner under Tromp-Taylor (kEmpty = draw, impossible with half komi).
  Stone winner() const;

  /// Liberties of the group containing p (0 if p is empty).
  std::int64_t liberties(std::int64_t p) const;

  /// Zobrist hash of the current position (stones + side to play not mixed;
  /// superko in this implementation is positional).
  std::uint64_t position_hash() const { return hash_; }

  /// Orthogonal neighbours of a point.
  std::vector<std::int64_t> neighbors(std::int64_t p) const;

  std::string to_string() const;

 private:
  /// One flood fill's result, in fixed storage: no heap allocation.
  struct Group {
    std::array<std::int16_t, kMaxPoints> stones;  // [0, size) are valid
    std::int64_t size = 0;
    std::int64_t liberties = 0;
  };
  /// Writes the orthogonal neighbours of p into out; returns their count.
  std::int64_t neighbors_into(std::int64_t p, std::array<std::int64_t, 4>& out) const;
  /// Flood-fills the group at the occupied point p. Stops once it has counted
  /// lib_limit distinct liberties, so only a fill that returns fewer than
  /// lib_limit liberties is guaranteed to hold every stone of the group.
  void fill_group(std::int64_t p, std::int64_t lib_limit, Group& g) const;
  void set_stone(std::int64_t p, Stone s);
  /// Hash after the side to play puts a stone on the empty point p, decided
  /// in place without playing it; nullopt if the move is suicide.
  std::optional<std::uint64_t> hash_if_played(std::int64_t p) const;

  std::int64_t size_;
  float komi_;
  std::vector<Stone> grid_;
  Stone to_play_ = Stone::kBlack;
  std::int64_t consecutive_passes_ = 0;
  std::int64_t move_count_ = 0;
  std::uint64_t hash_ = 0;
  std::unordered_set<std::uint64_t> history_;  // positions seen (superko)
};

/// A finished or in-progress game record: the move sequence from an empty
/// board. Used both for MiniGo training data and as "human reference games"
/// for the move-prediction quality metric.
struct GameRecord {
  std::int64_t board_size = 9;
  float komi = 5.5f;
  std::vector<Move> moves;
  Stone winner = Stone::kEmpty;
};

}  // namespace mlperf::go
