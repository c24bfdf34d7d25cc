#ifndef GRFUSION_GRAPHEXEC_FIRST_TOUCH_PAGES_H_
#define GRFUSION_GRAPHEXEC_FIRST_TOUCH_PAGES_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace grfusion {

/// Per-index traversal state in fixed-size pages of 2^kShift consecutive
/// indexes, mapped when a probe first touches an index in them, so a
/// probe's memory follows the region it explores, not the view's size.
/// `Page` is a plain struct of arrays of 2^kShift entries.
///
/// A directory holds one pointer per page. Reset unmaps only the pages the
/// previous probe mapped and keeps their memory for the next probe; pages
/// are allocated, uninitialized, in chunks of about 16 KB. The owner
/// initializes a page when Map reports it fresh, and charges its memory.
template <typename Page, size_t kShift>
class FirstTouchPages {
 public:
  static constexpr size_t kPageSize = size_t{1} << kShift;
  static constexpr size_t kMask = kPageSize - 1;

  /// Unmaps the previous probe's pages and sizes the directory for
  /// `indexes` indexes.
  void Reset(size_t indexes) {
    for (size_t slot : mapped_) dir_[slot] = nullptr;
    mapped_.clear();
    const size_t slots = (indexes + kPageSize - 1) >> kShift;
    if (dir_.size() != slots) dir_.assign(slots, nullptr);
  }

  /// Drops the directory and every page.
  void Clear() {
    dir_.clear();
    mapped_.clear();
    chunks_.clear();
  }

  /// The page holding index `i`, or nullptr while it is unmapped.
  Page* Find(size_t i) const { return dir_[i >> kShift]; }

  /// The page holding index `i`, mapped on first touch; `*fresh` tells
  /// the caller to initialize it.
  Page& Map(size_t i, bool* fresh) {
    Page*& page = dir_[i >> kShift];
    *fresh = page == nullptr;
    if (page == nullptr) {
      const size_t k = mapped_.size();
      if (k == chunks_.size() * kChunk) {
        chunks_.push_back(std::make_unique_for_overwrite<Page[]>(kChunk));
      }
      page = &chunks_[k / kChunk][k % kChunk];
      mapped_.push_back(i >> kShift);
    }
    return *page;
  }

  /// Bytes of the directory.
  size_t directory_bytes() const { return dir_.size() * sizeof(Page*); }

 private:
  static constexpr size_t kChunk =
      sizeof(Page) >= 16384 ? 1 : 16384 / sizeof(Page);

  std::vector<Page*> dir_;  ///< Index >> kShift -> page, or nullptr.
  /// This probe mapped page k (k-th of the chunks) at dir_[mapped_[k]].
  std::vector<size_t> mapped_;
  std::vector<std::unique_ptr<Page[]>> chunks_;
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_FIRST_TOUCH_PAGES_H_
