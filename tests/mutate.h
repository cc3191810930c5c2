// Seeded text mutations for the parser robustness tests. Every case derives
// from one fixed-seed engine, so a failing case reproduces by its index.
#pragma once

#include <cstddef>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace canvas::test {

/// Tokens the mutator inserts or substitutes: a sign, values a number
/// parser may wrap or mis-convert, and 20-digit integers.
inline const std::vector<std::string>& HostileTokens() {
  static const std::vector<std::string> tokens = {
      "-", "nan", "1e400", "99999999999999999999", "18446744073709551616",
  };
  return tokens;
}

/// Applies one to three random edits to `text`: delete, duplicate or flip
/// a byte, swap two tokens (maximal runs of non-separator bytes, so usually
/// across lines), insert a hostile token at a random byte, or replace a
/// token with one.
inline std::string Mutate(std::string text, std::mt19937_64& rng) {
  auto below = [&rng](std::size_t n) {
    return n ? std::size_t(rng() % n) : 0;
  };
  auto tokens = [](const std::string& s) {
    std::vector<std::pair<std::size_t, std::size_t>> spans;  // [begin, end)
    const char* sep = " ,\t\r\n";
    std::size_t i = s.find_first_not_of(sep);
    while (i != std::string::npos) {
      std::size_t j = s.find_first_of(sep, i);
      if (j == std::string::npos) j = s.size();
      spans.emplace_back(i, j);
      i = s.find_first_not_of(sep, j);
    }
    return spans;
  };
  const std::vector<std::string>& hostile = HostileTokens();
  for (std::size_t edits = 1 + below(3); edits > 0; --edits) {
    switch (below(6)) {
      case 0:  // delete a byte
        if (!text.empty()) text.erase(below(text.size()), 1);
        break;
      case 1: {  // duplicate a byte
        if (text.empty()) break;
        std::size_t at = below(text.size());
        text.insert(at, 1, text[at]);
        break;
      }
      case 2:  // flip one bit of a byte
        if (!text.empty()) text[below(text.size())] ^= char(1 << below(8));
        break;
      case 3: {  // swap two tokens
        auto spans = tokens(text);
        if (spans.size() < 2) break;
        auto a = spans[below(spans.size())];
        auto b = spans[below(spans.size())];
        if (a.first == b.first) break;
        if (b.first < a.first) std::swap(a, b);
        std::string ta = text.substr(a.first, a.second - a.first);
        std::string tb = text.substr(b.first, b.second - b.first);
        text.replace(b.first, tb.size(), ta);  // later span first
        text.replace(a.first, ta.size(), tb);
        break;
      }
      case 4:  // insert a hostile token at any byte
        text.insert(below(text.size() + 1), hostile[below(hostile.size())]);
        break;
      case 5: {  // replace a token with a hostile one
        auto spans = tokens(text);
        if (spans.empty()) break;
        auto s = spans[below(spans.size())];
        text.replace(s.first, s.second - s.first,
                     hostile[below(hostile.size())]);
        break;
      }
    }
  }
  return text;
}

}  // namespace canvas::test
