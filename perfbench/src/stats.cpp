#include "stats.hpp"

#include <algorithm>
#include <map>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double medianOfGroupMeans(const std::vector<double>& samples,
                          const std::vector<std::string>& groups) {
  std::map<std::string, std::pair<double, std::size_t>> byGroup;  // sum, count
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto& [sum, count] = byGroup[groups[i]];
    sum += samples[i];
    ++count;
  }
  std::vector<double> means;
  for (const auto& [group, sumCount] : byGroup)
    means.push_back(sumCount.first / static_cast<double>(sumCount.second));
  return median(std::move(means));
}

Tail tailPercentile(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= 10) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  // Rank n-10 (1-based) leaves exactly ten samples above it.
  tail.value = samples[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  tail.beyond = 10;
  return tail;
}

double OpCount::failRatio() const {
  return attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                   : 0.0;
}

std::int64_t coveredLength(const Interval& window, std::vector<Interval> parts) {
  for (Interval& p : parts) {
    p.start = std::max(p.start, window.start);
    p.end = std::min(p.end, window.end);
  }
  parts.erase(std::remove_if(parts.begin(), parts.end(),
                             [](const Interval& p) { return p.end <= p.start; }),
              parts.end());
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t reach = window.start;
  for (const Interval& p : parts) {
    const std::int64_t from = std::max(p.start, reach);
    if (p.end > from) {
      covered += p.end - from;
      reach = p.end;
    }
  }
  return covered;
}

std::int64_t selfTime(const Interval& span, const std::vector<Interval>& children) {
  return (span.end - span.start) - coveredLength(span, children);
}

}  // namespace perfbench
