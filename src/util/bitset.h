// Word-addressable dynamic bitset.
//
// std::vector<bool> hides its words behind proxy references, which makes
// every append a read-modify-write through a byte-indexed proxy and keeps
// the optimizer from vectorizing scans. The differential run appends one
// "does this record differ?" bit per compared record, so the container
// sits on the diff's hot path; this bitset keeps the same 1-bit density
// with plain word stores.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ft::util {

class Bitset {
 public:
  void push_back(bool v) {
    const std::size_t word = size_ >> 6;
    if (word == words_.size()) words_.push_back(0);
    words_[word] |= std::uint64_t{v} << (size_ & 63);
    size_++;
  }

  [[nodiscard]] bool operator[](std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  void reserve(std::size_t bits) { words_.reserve((bits + 63) / 64); }
  void clear() noexcept {
    words_.clear();
    size_ = 0;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (const auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  bool operator==(const Bitset&) const = default;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace ft::util
