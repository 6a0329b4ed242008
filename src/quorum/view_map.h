#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "types/ids.h"

namespace bamboo::quorum {

/// Per-view state kept along a GC horizon, keyed by view number. A replica
/// keeps such state for the 64 views below its current one, and nearly
/// every access lands on the newest few. The entries sit in two vectors
/// sorted by view: a lookup checks the newest entry, then binary-searches
/// the contiguous view numbers, with no tree walk; GC erases a prefix. A
/// view outside the window (far ahead, or below the horizon again) is one
/// more entry, inserted in order.
///
/// find() never inserts: looking up a view with no entry leaves the map as
/// it was, so a forged or stale view number leaves no state behind.
template <typename T>
class ViewMap {
 public:
  /// The entry for `view`, or nullptr if there is none.
  [[nodiscard]] const T* find(types::View view) const {
    const std::size_t i = position(view);
    return i < views_.size() && views_[i] == view ? &values_[i] : nullptr;
  }

  /// The entry for `view`, value-initialized first if there is none.
  T& operator[](types::View view) {
    const std::size_t i = position(view);
    if (i < views_.size() && views_[i] == view) return values_[i];
    const auto at = static_cast<std::ptrdiff_t>(i);
    views_.insert(views_.begin() + at, view);
    return *values_.insert(values_.begin() + at, T{});
  }

  /// Drop every entry for a view strictly below `view`.
  void erase_below(types::View view) {
    const auto end = static_cast<std::ptrdiff_t>(position(view));
    views_.erase(views_.begin(), views_.begin() + end);
    values_.erase(values_.begin(), values_.begin() + end);
  }

  [[nodiscard]] std::size_t size() const { return views_.size(); }

 private:
  /// Index of the first entry whose view is not below `view`.
  [[nodiscard]] std::size_t position(types::View view) const {
    if (views_.empty() || views_.back() < view) return views_.size();
    if (views_.back() == view) return views_.size() - 1;
    return static_cast<std::size_t>(std::distance(
        views_.begin(), std::lower_bound(views_.begin(), views_.end(), view)));
  }

  std::vector<types::View> views_;  ///< ascending
  std::vector<T> values_;           ///< values_[i] is the entry of views_[i]
};

}  // namespace bamboo::quorum
