#include "go/board.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "tensor/rng.h"

namespace mlperf::go {

namespace {

// Zobrist table: [point][color-1] for up to 19x19; generated deterministically.
const std::array<std::array<std::uint64_t, 2>, Board::kMaxPoints>& zobrist_table() {
  static const auto table = [] {
    std::array<std::array<std::uint64_t, 2>, Board::kMaxPoints> t{};
    tensor::Rng rng(0x60BA9D5EED5EEDULL);
    for (auto& row : t)
      for (auto& v : row) v = rng.next_u64();
    return t;
  }();
  return table;
}

}  // namespace

Board::Board(std::int64_t size, float komi) : size_(size), komi_(komi) {
  if (size < 2 || size > 19) throw std::invalid_argument("Board: size must be in [2, 19]");
  grid_.assign(static_cast<std::size_t>(num_points()), Stone::kEmpty);
  history_.insert(hash_);
}

std::int64_t Board::neighbors_into(std::int64_t p, std::array<std::int64_t, 4>& out) const {
  const std::int64_t r = p / size_, c = p % size_;
  std::int64_t k = 0;
  if (r > 0) out[k++] = p - size_;
  if (r < size_ - 1) out[k++] = p + size_;
  if (c > 0) out[k++] = p - 1;
  if (c < size_ - 1) out[k++] = p + 1;
  return k;
}

std::vector<std::int64_t> Board::neighbors(std::int64_t p) const {
  std::array<std::int64_t, 4> nb{};
  const std::int64_t k = neighbors_into(p, nb);
  return {nb.begin(), nb.begin() + k};
}

void Board::fill_group(std::int64_t p, std::int64_t lib_limit, Group& g) const {
  const Stone color = at(p);
  // 1 = stone of the group, 2 = liberty already counted.
  std::array<std::uint8_t, kMaxPoints> seen;
  std::fill_n(seen.begin(), num_points(), std::uint8_t{0});
  g.stones[0] = static_cast<std::int16_t>(p);
  g.size = 1;
  g.liberties = 0;
  seen[static_cast<std::size_t>(p)] = 1;
  // The stone list doubles as the breadth-first queue.
  for (std::int64_t i = 0; i < g.size; ++i) {
    std::array<std::int64_t, 4> nb{};
    const std::int64_t k = neighbors_into(g.stones[static_cast<std::size_t>(i)], nb);
    for (std::int64_t j = 0; j < k; ++j) {
      const std::int64_t q = nb[static_cast<std::size_t>(j)];
      auto& mark = seen[static_cast<std::size_t>(q)];
      if (mark != 0) continue;
      const Stone s = at(q);
      if (s == color) {
        mark = 1;
        g.stones[static_cast<std::size_t>(g.size++)] = static_cast<std::int16_t>(q);
      } else if (s == Stone::kEmpty) {
        mark = 2;
        if (++g.liberties >= lib_limit) return;
      }
    }
  }
}

std::int64_t Board::liberties(std::int64_t p) const {
  if (at(p) == Stone::kEmpty) return 0;
  Group g;
  fill_group(p, kMaxPoints, g);
  return g.liberties;
}

void Board::set_stone(std::int64_t p, Stone s) {
  const Stone old = grid_[static_cast<std::size_t>(p)];
  if (old != Stone::kEmpty)
    hash_ ^= zobrist_table()[static_cast<std::size_t>(p)][static_cast<std::size_t>(old) - 1];
  if (s != Stone::kEmpty)
    hash_ ^= zobrist_table()[static_cast<std::size_t>(p)][static_cast<std::size_t>(s) - 1];
  grid_[static_cast<std::size_t>(p)] = s;
}

std::optional<std::uint64_t> Board::hash_if_played(std::int64_t p) const {
  // The stone at p lives iff p has an empty neighbour, joins a friendly group
  // with a liberty besides p, or captures: an adjacent opponent group whose
  // only liberty is p. Each captured stone leaves the hash once, even when
  // its group touches p on several sides.
  const auto& z = zobrist_table();
  const Stone me = to_play_, opp = opponent(me);
  std::uint64_t h = hash_ ^ z[static_cast<std::size_t>(p)][static_cast<std::size_t>(me) - 1];
  bool lives = false;
  std::array<std::int64_t, 4> nb{};
  const std::int64_t k = neighbors_into(p, nb);
  Group g;
  for (std::int64_t j = 0; j < k; ++j) {
    const std::int64_t q = nb[static_cast<std::size_t>(j)];
    const Stone s = at(q);
    if (s == Stone::kEmpty) {
      lives = true;
    } else if (s == me) {
      if (!lives) {
        fill_group(q, 2, g);  // p is one liberty; is there another?
        lives = g.liberties >= 2;
      }
    } else {
      fill_group(q, 2, g);
      if (g.liberties != 1) continue;
      lives = true;
      // A group touching p on several sides is captured from its first side only.
      const std::int16_t* const first = g.stones.data();
      const std::int16_t* const last = first + g.size;
      if (std::any_of(nb.begin(), nb.begin() + j,
                      [&](std::int64_t e) { return std::find(first, last, e) != last; }))
        continue;
      for (const std::int16_t* st = first; st != last; ++st)
        h ^= z[static_cast<std::size_t>(*st)][static_cast<std::size_t>(opp) - 1];
    }
  }
  if (!lives) return std::nullopt;  // suicide
  return h;
}

bool Board::is_legal(Move m) const {
  if (game_over()) return false;
  if (m.is_pass()) return true;
  if (m.point < 0 || m.point >= num_points()) return false;
  if (at(m.point) != Stone::kEmpty) return false;
  const auto h = hash_if_played(m.point);
  if (!h) return false;                  // suicide
  return history_.count(*h) == 0;        // positional superko
}

std::vector<Move> Board::legal_moves() const {
  std::vector<Move> out;
  if (game_over()) return out;
  for (std::int64_t p = 0; p < num_points(); ++p) {
    const Move m = Move::at(p);
    if (is_legal(m)) out.push_back(m);
  }
  out.push_back(Move::pass());
  return out;
}

void Board::play(Move m) {
  if (!is_legal(m)) throw std::invalid_argument("Board::play: illegal move");
  if (m.is_pass()) {
    ++consecutive_passes_;
  } else {
    consecutive_passes_ = 0;
    const Stone me = to_play_;
    set_stone(m.point, me);
    const Stone opp = opponent(me);
    std::array<std::int64_t, 4> nb{};
    const std::int64_t k = neighbors_into(m.point, nb);
    Group g;
    for (std::int64_t j = 0; j < k; ++j) {
      const std::int64_t q = nb[static_cast<std::size_t>(j)];
      if (at(q) != opp) continue;  // also skips a group removed through an earlier side
      fill_group(q, 1, g);
      if (g.liberties == 0)
        for (std::int64_t i = 0; i < g.size; ++i)
          set_stone(g.stones[static_cast<std::size_t>(i)], Stone::kEmpty);
    }
  }
  to_play_ = opponent(to_play_);
  ++move_count_;
  history_.insert(hash_);
}

float Board::tromp_taylor_score() const {
  // Area scoring: stones + empty regions bordered exclusively by one colour.
  float black = 0.0f, white = 0.0f;
  std::array<bool, kMaxPoints> visited;
  std::fill_n(visited.begin(), num_points(), false);
  std::array<std::int16_t, kMaxPoints> region;  // doubles as the fill queue
  for (std::int64_t p = 0; p < num_points(); ++p) {
    const Stone s = at(p);
    if (s == Stone::kBlack) {
      black += 1.0f;
    } else if (s == Stone::kWhite) {
      white += 1.0f;
    } else if (!visited[static_cast<std::size_t>(p)]) {
      // Flood-fill the empty region; find which colours border it.
      region[0] = static_cast<std::int16_t>(p);
      std::int64_t size = 1;
      visited[static_cast<std::size_t>(p)] = true;
      bool sees_black = false, sees_white = false;
      for (std::int64_t i = 0; i < size; ++i) {
        std::array<std::int64_t, 4> nb{};
        const std::int64_t k = neighbors_into(region[static_cast<std::size_t>(i)], nb);
        for (std::int64_t j = 0; j < k; ++j) {
          const std::int64_t q = nb[static_cast<std::size_t>(j)];
          const Stone ns = at(q);
          if (ns == Stone::kEmpty && !visited[static_cast<std::size_t>(q)]) {
            visited[static_cast<std::size_t>(q)] = true;
            region[static_cast<std::size_t>(size++)] = static_cast<std::int16_t>(q);
          } else if (ns == Stone::kBlack) {
            sees_black = true;
          } else if (ns == Stone::kWhite) {
            sees_white = true;
          }
        }
      }
      if (sees_black && !sees_white) black += static_cast<float>(size);
      if (sees_white && !sees_black) white += static_cast<float>(size);
    }
  }
  return black - white - komi_;
}

Stone Board::winner() const {
  const float s = tromp_taylor_score();
  if (s > 0.0f) return Stone::kBlack;
  if (s < 0.0f) return Stone::kWhite;
  return Stone::kEmpty;
}

std::string Board::to_string() const {
  std::ostringstream os;
  for (std::int64_t r = 0; r < size_; ++r) {
    for (std::int64_t c = 0; c < size_; ++c) {
      switch (at(r, c)) {
        case Stone::kEmpty: os << '.'; break;
        case Stone::kBlack: os << 'X'; break;
        case Stone::kWhite: os << 'O'; break;
      }
    }
    os << '\n';
  }
  os << (to_play_ == Stone::kBlack ? "black" : "white") << " to play\n";
  return os.str();
}

}  // namespace mlperf::go
