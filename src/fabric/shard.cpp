#include "fabric/shard.hpp"

#include <cstdlib>

namespace kfi::fabric {

std::vector<std::vector<u32>> shard_indices(u32 total, u32 shards) {
  std::vector<std::vector<u32>> out(shards == 0 ? 1 : shards);
  const u32 n = static_cast<u32>(out.size());
  const u32 base = total / n;
  const u32 extra = total % n;
  u32 next = 0;
  for (u32 s = 0; s < n; ++s) {
    const u32 len = base + (s < extra ? 1 : 0);
    out[s].reserve(len);
    for (u32 i = 0; i < len; ++i) out[s].push_back(next++);
  }
  return out;
}

std::string shard_journal_path(const std::string& prefix, u32 shard,
                               u32 shards) {
  return prefix + ".shard" + std::to_string(shard) + "of" +
         std::to_string(shards) + ".kfij";
}

std::string format_index_ranges(const std::vector<u32>& indices) {
  std::string out;
  size_t i = 0;
  while (i < indices.size()) {
    size_t j = i;
    while (j + 1 < indices.size() && indices[j + 1] == indices[j] + 1) ++j;
    if (!out.empty()) out += ",";
    out += std::to_string(indices[i]);
    if (j > i) {
      // Appending piecewise sidesteps a GCC 12 -Wrestrict false positive.
      out += "-";
      out += std::to_string(indices[j]);
    }
    i = j + 1;
  }
  return out;
}

std::optional<std::vector<u32>> parse_index_ranges(const std::string& text) {
  std::vector<u32> out;
  size_t pos = 0;
  auto parse_u32 = [&](u32& value) -> bool {
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
      return false;
    }
    u64 v = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      v = v * 10 + static_cast<u64>(text[pos] - '0');
      if (v > 0xFFFFFFFFull) return false;
      ++pos;
    }
    value = static_cast<u32>(v);
    return true;
  };
  while (pos < text.size()) {
    u32 lo = 0;
    if (!parse_u32(lo)) return std::nullopt;
    u32 hi = lo;
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
      if (!parse_u32(hi) || hi < lo) return std::nullopt;
    }
    if (!out.empty() && lo <= out.back()) return std::nullopt;
    for (u64 i = lo; i <= hi; ++i) out.push_back(static_cast<u32>(i));
    if (pos < text.size()) {
      if (text[pos] != ',') return std::nullopt;
      ++pos;
      if (pos == text.size()) return std::nullopt;  // trailing comma
    }
  }
  return out;
}

}  // namespace kfi::fabric
