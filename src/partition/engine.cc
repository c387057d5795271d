#include "partition/engine.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace hetsched {

#if HETSCHED_METRICS_ENABLED
namespace {

// Pre-registered handles (lint rule [metric-handle]); constructed during
// static initialization, never from the HETSCHED_NOALLOC tree paths.
struct SlackTreeMetrics {
  obs::Counter rebuilds = obs::registry().counter(
      "hetsched_slacktree_rebuilds_total", "full SlackTree (re)builds");
  obs::Counter descents = obs::registry().counter(
      "hetsched_slacktree_descents_total",
      "root-to-leaf first-fit descents taken");
  obs::Counter misses = obs::registry().counter(
      "hetsched_slacktree_misses_total",
      "queries rejected at the root (no machine has enough slack)");
  // A successful descent walks exactly log2(leaves) levels, so the depth
  // is a deterministic property of the current tree — a gauge refreshed
  // at build() time, not a per-descent counter on the warm-admit path.
  obs::Gauge depth = obs::registry().gauge(
      "hetsched_slacktree_depth", "tree levels per descent (log2 leaves)");
};
const SlackTreeMetrics g_tree_metrics;

}  // namespace
#endif  // HETSCHED_METRICS_ENABLED

std::string to_string(PartitionEngine e) {
  switch (e) {
    case PartitionEngine::kAuto:
      return "auto";
    case PartitionEngine::kNaive:
      return "naive";
    case PartitionEngine::kSegmentTree:
      return "tree";
  }
  return "?";
}

std::optional<PartitionEngine> engine_from_name(std::string_view name) {
  if (name == "auto") return PartitionEngine::kAuto;
  if (name == "naive") return PartitionEngine::kNaive;
  if (name == "tree" || name == "segment-tree") {
    return PartitionEngine::kSegmentTree;
  }
  return std::nullopt;
}

PartitionEngine resolve_engine(PartitionEngine e, AdmissionKind kind) {
  if (admission_row(kind).fold == AdmissionFold::kNone) {
    return PartitionEngine::kNaive;
  }
  if (e == PartitionEngine::kNaive) return PartitionEngine::kNaive;
  return PartitionEngine::kSegmentTree;
}

// HETSCHED_NOALLOC (storage grows only until the largest m has been seen)
void SlackTree::build(std::span<const double> slack) {
  m_ = slack.size();
  leaves_ = 1;
  while (leaves_ < m_) leaves_ *= 2;
  node_.resize(2 * leaves_);  // hetsched-lint: allow(noalloc) warm-up growth
  std::copy(slack.begin(), slack.end(),
            node_.begin() + static_cast<std::ptrdiff_t>(leaves_));
  std::fill(node_.begin() + static_cast<std::ptrdiff_t>(leaves_ + m_),
            node_.end(), -std::numeric_limits<double>::infinity());
  for (std::size_t i = leaves_ - 1; i >= 1; --i) {
    node_[i] = std::max(node_[2 * i], node_[2 * i + 1]);
  }
  HETSCHED_COUNT(g_tree_metrics.rebuilds);
  HETSCHED_GAUGE_SET(g_tree_metrics.depth, std::bit_width(leaves_) - 1);
  HETSCHED_AUDIT_HOOK(audit_verify_heap());
}

// The controller's descent instantiates kLeftMax = false and pays nothing
// for the batch engine's left maximum.
template <bool kLeftMax>
std::size_t SlackTree::descend(double w, double* left_max) const {
  if (m_ == 0 || node_[1] < w) {
    HETSCHED_COUNT(g_tree_metrics.misses);
    HETSCHED_AUDIT_HOOK(audit_verify_find(w, npos));
    return npos;
  }
  double skipped = -std::numeric_limits<double>::infinity();
  std::size_t i = 1;
  while (i < leaves_) {
    i *= 2;
    if (node_[i] < w) {  // left subtree's max too small -> go right
      if constexpr (kLeftMax) skipped = std::max(skipped, node_[i]);
      ++i;
    }
  }
  HETSCHED_COUNT(g_tree_metrics.descents);
  HETSCHED_AUDIT_HOOK(audit_verify_find(w, i - leaves_));
  if constexpr (kLeftMax) {
    *left_max = skipped;
    HETSCHED_AUDIT_HOOK(audit_verify_left_max(i - leaves_, skipped));
  }
  return i - leaves_;
}

std::size_t SlackTree::find_first_at_least(double w) const {
  return descend<false>(w, nullptr);
}

// HETSCHED_NOALLOC
std::size_t SlackTree::find_first_at_least(double w, double& left_max) const {
  return descend<true>(w, &left_max);
}

// HETSCHED_NOALLOC
void SlackTree::update(std::size_t j, double slack) {
  HETSCHED_CHECK(j < m_);
  std::size_t i = leaves_ + j;
  node_[i] = slack;
  for (i /= 2; i >= 1; i /= 2) {
    node_[i] = std::max(node_[2 * i], node_[2 * i + 1]);
  }
  HETSCHED_AUDIT_HOOK(audit_verify_heap());
}

#if HETSCHED_AUDIT_ENABLED

void SlackTree::audit_verify_heap() const {
  HETSCHED_CHECK_MSG(leaves_ >= m_ && node_.size() == 2 * leaves_,
                     "audit: SlackTree geometry");
  for (std::size_t j = m_; j < leaves_; ++j) {
    HETSCHED_CHECK_MSG(
        node_[leaves_ + j] == -std::numeric_limits<double>::infinity(),
        "audit: SlackTree padding leaf not -inf");
  }
  for (std::size_t i = 1; i < leaves_; ++i) {
    const double expected_max = std::max(node_[2 * i], node_[2 * i + 1]);
    // Bitwise comparison on purpose: the tree must mirror the slack array
    // exactly, NaNs included.  hetsched-lint: allow(float-compare)
    HETSCHED_CHECK_MSG(node_[i] == expected_max,
                       "audit: SlackTree internal node != max(children)");
  }
}

void SlackTree::audit_verify_find(double w, std::size_t result) const {
  // Reference answer: naive leftmost scan over the live leaves.
  std::size_t expect = npos;
  for (std::size_t j = 0; j < m_; ++j) {
    if (node_[leaves_ + j] >= w) {
      expect = j;
      break;
    }
  }
  HETSCHED_CHECK_MSG(result == expect,
                     "audit: SlackTree descent disagrees with naive scan");
}

void SlackTree::audit_verify_left_max(std::size_t result,
                                      double left_max) const {
  double scanned = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < result; ++j) {
    scanned = std::max(scanned, node_[leaves_ + j]);
  }
  // Bitwise on purpose: the maximum is one of the leaves, not a sum.
  // hetsched-lint: allow(float-compare)
  HETSCHED_CHECK_MSG(left_max == scanned,
                     "audit: SlackTree left maximum disagrees with the leaves");
}

#endif  // HETSCHED_AUDIT_ENABLED

}  // namespace hetsched
