#include "common/histogram.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace kfi {

namespace {

std::string human_edge(u64 edge) {
  if (edge >= 1000000000ULL && edge % 1000000000ULL == 0)
    return std::to_string(edge / 1000000000ULL) + "G";
  if (edge >= 1000000ULL && edge % 1000000ULL == 0)
    return std::to_string(edge / 1000000ULL) + "M";
  if (edge >= 1000ULL && edge % 1000ULL == 0)
    return std::to_string(edge / 1000ULL) + "k";
  return std::to_string(edge);
}

}  // namespace

BucketHistogram::BucketHistogram(std::vector<u64> upper_edges)
    : edges_(std::move(upper_edges)) {
  KFI_CHECK(!edges_.empty(), "histogram needs at least one edge");
  KFI_CHECK(std::is_sorted(edges_.begin(), edges_.end()) &&
                std::adjacent_find(edges_.begin(), edges_.end()) == edges_.end(),
            "histogram edges must be strictly increasing");
  counts_.assign(edges_.size() + 1, 0);
}

void BucketHistogram::add(u64 sample) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), sample);
  counts_[static_cast<size_t>(it - edges_.begin())] += 1;
  ++total_;
}

u64 BucketHistogram::count(size_t bucket) const {
  KFI_CHECK(bucket < counts_.size(), "bucket out of range");
  return counts_[bucket];
}

double BucketHistogram::fraction(size_t bucket) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bucket)) / static_cast<double>(total_);
}

std::string BucketHistogram::label(size_t bucket) const {
  KFI_CHECK(bucket < counts_.size(), "bucket out of range");
  // Appending (not `literal + string`) sidesteps a GCC 12 -Wrestrict
  // false positive.
  std::string out = bucket == edges_.size() ? ">" : "<=";
  out += human_edge(bucket == edges_.size() ? edges_.back() : edges_[bucket]);
  return out;
}

std::vector<double> BucketHistogram::fractions() const {
  std::vector<double> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) out[i] = fraction(i);
  return out;
}

void BucketHistogram::merge(const BucketHistogram& other) {
  KFI_CHECK(edges_ == other.edges_, "merging histograms with different edges");
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

BucketHistogram make_latency_histogram() {
  return BucketHistogram({3000ULL, 10000ULL, 100000ULL, 1000000ULL,
                          10000000ULL, 100000000ULL, 1000000000ULL});
}

const std::vector<std::string>& latency_bucket_labels() {
  static const std::vector<std::string> kLabels = [] {
    const BucketHistogram h = make_latency_histogram();
    std::vector<std::string> labels;
    for (size_t i = 0; i < h.bucket_count(); ++i) labels.push_back(h.label(i));
    return labels;
  }();
  return kLabels;
}

}  // namespace kfi
