#ifndef NDSS_INDEX_POSTING_H_
#define NDSS_INDEX_POSTING_H_

#include <cstdint>

#include "text/types.h"

namespace ndss {

/// A compact window as stored in an inverted list: the text it belongs to
/// plus its (l, c, r) positions. 16 bytes, matching the paper's "4 integers
/// per compact window" accounting (the hash function is implied by the file,
/// the min-hash key by the list).
struct PostedWindow {
  TextId text;
  uint32_t l;
  uint32_t c;
  uint32_t r;

  friend bool operator==(const PostedWindow& a, const PostedWindow& b) {
    return a.text == b.text && a.l == b.l && a.c == b.c && a.r == b.r;
  }
};

static_assert(sizeof(PostedWindow) == 16, "PostedWindow must be 16 bytes");

/// A window tagged with its inverted-list key (the token whose hash is the
/// window's min-hash). The unit of the build pipeline: generation emits
/// KeyedWindows, the builders order them by (key, text, l) and strip the key
/// into the list directory.
struct KeyedWindow {
  Token key;
  TextId text;
  uint32_t l;
  uint32_t c;
  uint32_t r;

  PostedWindow ToPosted() const { return PostedWindow{text, l, c, r}; }

  friend bool operator==(const KeyedWindow& a, const KeyedWindow& b) {
    return a.key == b.key && a.text == b.text && a.l == b.l && a.c == b.c &&
           a.r == b.r;
  }
};

static_assert(sizeof(KeyedWindow) == 20, "KeyedWindow must be 20 bytes");

/// The order every inverted list is written in: by key, then text, then
/// start, then end position. The builders reach it without a comparison
/// sort (OrderedWindowGenerator).
inline bool KeyedWindowLess(const KeyedWindow& a, const KeyedWindow& b) {
  if (a.key != b.key) return a.key < b.key;
  if (a.text != b.text) return a.text < b.text;
  if (a.l != b.l) return a.l < b.l;
  return a.r < b.r;
}

}  // namespace ndss

#endif  // NDSS_INDEX_POSTING_H_
