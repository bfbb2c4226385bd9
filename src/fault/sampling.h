// Internal helpers shared by the single-process (campaign.cpp) and
// cross-rank (rank_campaign.cpp) campaign engines: width-weighted site
// selection and the snapshot byte-budget cap. Not part of the public
// surface.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace ft::fault::detail {

/// Resolve every global bit offset in `offsets` to the site containing it
/// (sites weighted by width) and the bit offset within that site, in the
/// order of `offsets`. The offsets are sorted once and resolved in one
/// sweep over the sites: O(T log T + S) for T offsets and S sites instead
/// of a linear scan per offset. An offset past the population resolves to
/// {nullptr, 0}.
template <typename Site, typename WidthFn>
std::vector<std::pair<const Site*, std::uint32_t>> pick_weighted(
    const std::vector<Site>& sites, const std::vector<std::uint64_t>& offsets,
    const WidthFn& width_of) {
  std::vector<std::size_t> order(offsets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return offsets[a] < offsets[b];
  });
  std::vector<std::pair<const Site*, std::uint32_t>> out(offsets.size(),
                                                         {nullptr, 0});
  std::size_t next = 0;  // first unresolved entry of `order`
  std::uint64_t begin = 0;  // global offset of the current site's bit 0
  for (const auto& s : sites) {
    if (next == order.size()) break;
    const std::uint64_t end = begin + width_of(s);
    for (; next < order.size() && offsets[order[next]] < end; ++next) {
      out[order[next]] = {&s,
                          static_cast<std::uint32_t>(offsets[order[next]] -
                                                     begin)};
    }
    begin = end;
  }
  return out;
}

/// Lower a snapshot-count cap to a byte budget: a snapshot is dominated by
/// its copy of program memory (`memory_size`), plus a small overhead for
/// frames/slots. `max_bytes == 0` leaves the cap alone.
inline std::size_t cap_snapshots_to_bytes(std::size_t max_snapshots,
                                          std::size_t max_bytes,
                                          std::size_t memory_size) {
  if (max_bytes == 0) return max_snapshots;
  const std::size_t snapshot_bytes = memory_size + std::size_t{4096};
  return std::min(max_snapshots,
                  std::max<std::size_t>(1, max_bytes / snapshot_bytes));
}

}  // namespace ft::fault::detail
