// Binary Association Tables (BATs): the storage and execution primitive
// of the Monet XML transform (paper §2, Definition 4).
//
// A BAT is a sequence of (head, tail) pairs. The Monet transform stores
// all associations of one schema path in one BAT; the meet algorithms are
// then expressed as joins/semijoins over these tables ("A salient feature
// ... is that they make heavy use of the relational operations of the
// underlying database engine", paper §3.2).

#ifndef MEETXML_BAT_BAT_H_
#define MEETXML_BAT_BAT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bat/oid.h"

namespace meetxml {
namespace bat {

/// \brief A read-mostly column that either owns its values or borrows
/// them from an external byte image (a mapped store file).
///
/// This is the ownership primitive behind zero-copy open: the image
/// loaders hand out columns that alias the mapped file (SetView), and
/// the first mutating call promotes the column to owned storage by
/// copying the borrowed range (EnsureOwned — copy-on-write at column
/// granularity). Readers never branch: data()/size() are kept current
/// across appends, adoption and promotion, so a hot-loop access costs
/// exactly a pointer index in both states.
///
/// Lifetime: a view column is valid only while its backing bytes are;
/// whoever installs a view is responsible for pinning the backing
/// (model::StoredDocument pins a shared mapping handle per document).
template <typename T>
class Column {
 public:
  Column() = default;

  Column(const Column& other) { *this = other; }
  Column& operator=(const Column& other) {
    if (this != &other) {
      own_ = other.own_;
      view_ = other.view_;
      if (view_) {
        data_ = other.data_;
        size_ = other.size_;
      } else {
        Sync();
      }
    }
    return *this;
  }
  Column(Column&& other) noexcept { *this = std::move(other); }
  Column& operator=(Column&& other) noexcept {
    if (this != &other) {
      // Moving the vector moves its heap buffer wholesale, so a data_
      // pointer into it stays valid under the new owner.
      own_ = std::move(other.own_);
      view_ = other.view_;
      data_ = other.data_;
      size_ = other.size_;
      other.own_.clear();
      other.view_ = false;
      other.Sync();
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* data() const { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::span<const T> span() const { return {data_, size_}; }

  /// \brief True while the column borrows from external bytes.
  bool is_view() const { return view_; }

  void push_back(const T& value) {
    EnsureOwned();
    own_.push_back(value);
    Sync();
  }
  void reserve(size_t n) {
    if (view_) return;  // a view has nothing to pre-size
    own_.reserve(n);
    Sync();
  }
  void clear() {
    own_.clear();
    view_ = false;
    Sync();
  }

  /// \brief Takes ownership of pre-built values (the copy-mode bulk
  /// ingestion path).
  void Adopt(std::vector<T> values) {
    own_ = std::move(values);
    view_ = false;
    Sync();
  }

  /// \brief Borrows `values` without copying (the view-mode ingestion
  /// path). The caller guarantees the range outlives the column or any
  /// promotion of it.
  void SetView(std::span<const T> values) {
    own_.clear();
    own_.shrink_to_fit();
    view_ = true;
    data_ = values.data();
    size_ = values.size();
  }

  /// \brief Copy-on-write promotion: after this call the column owns
  /// its values and no longer references the backing bytes. No-op when
  /// already owned.
  void EnsureOwned() {
    if (!view_) return;
    own_.assign(data_, data_ + size_);
    view_ = false;
    Sync();
  }

  bool operator==(const Column& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  void Sync() {
    data_ = own_.data();
    size_ = own_.size();
  }

  std::vector<T> own_;
  const T* data_ = nullptr;
  size_t size_ = 0;
  bool view_ = false;
};

/// \brief Column<char> semantics for a string arena: owns a blob or
/// borrows one from a mapped image, with the same copy-on-write
/// promotion contract as Column.
class ArenaColumn {
 public:
  ArenaColumn() = default;

  ArenaColumn(const ArenaColumn& other) { *this = other; }
  ArenaColumn& operator=(const ArenaColumn& other) {
    if (this != &other) {
      own_ = other.own_;
      view_ = other.view_;
      bytes_ = view_ ? other.bytes_ : std::string_view(own_);
    }
    return *this;
  }
  ArenaColumn(ArenaColumn&& other) noexcept { *this = std::move(other); }
  ArenaColumn& operator=(ArenaColumn&& other) noexcept {
    if (this != &other) {
      own_ = std::move(other.own_);
      view_ = other.view_;
      bytes_ = view_ ? other.bytes_ : std::string_view(own_);
      other.own_.clear();
      other.view_ = false;
      other.bytes_ = std::string_view(other.own_);
    }
    return *this;
  }

  size_t size() const { return bytes_.size(); }
  std::string_view view() const { return bytes_; }
  bool is_view() const { return view_; }

  void Append(std::string_view bytes) {
    EnsureOwned();
    own_.append(bytes.data(), bytes.size());
    bytes_ = own_;
  }
  void reserve(size_t n) {
    if (!view_) {
      own_.reserve(n);
      bytes_ = own_;
    }
  }

  void Adopt(std::string blob) {
    own_ = std::move(blob);
    view_ = false;
    bytes_ = own_;
  }
  void SetView(std::string_view blob) {
    own_.clear();
    own_.shrink_to_fit();
    view_ = true;
    bytes_ = blob;
  }
  void EnsureOwned() {
    if (!view_) return;
    own_.assign(bytes_.data(), bytes_.size());
    view_ = false;
    bytes_ = own_;
  }

  bool operator==(const ArenaColumn& other) const {
    return bytes_ == other.bytes_;
  }

 private:
  std::string own_;
  std::string_view bytes_;
  bool view_ = false;
};

/// \brief A binary association table with typed head and tail columns.
///
/// Stored column-wise like MonetDB; rows are addressed positionally.
/// Always owned: the per-path edge BATs are derived in memory
/// (StoredDocument::Finalize), never borrowed from an image.
template <typename H, typename T>
class Bat {
 public:
  Bat() = default;

  /// \brief Appends one association.
  void Append(H head, T tail) {
    head_.push_back(std::move(head));
    tail_.push_back(std::move(tail));
  }

  void Reserve(size_t n) {
    head_.reserve(n);
    tail_.reserve(n);
  }

  size_t size() const { return head_.size(); }
  bool empty() const { return head_.empty(); }

  const H& head(size_t row) const { return head_[row]; }
  const T& tail(size_t row) const { return tail_[row]; }

  std::span<const H> heads() const { return head_.span(); }
  std::span<const T> tails() const { return tail_.span(); }

  /// \brief Takes ownership of pre-built columns (the counting sort in
  /// StoredDocument::Finalize). Requires equal lengths (callers
  /// validate; this class only stores).
  void AdoptColumns(std::vector<H> heads, std::vector<T> tails) {
    head_.Adopt(std::move(heads));
    tail_.Adopt(std::move(tails));
  }

  /// \brief Swaps the two columns (MonetDB `reverse`), O(1) by move.
  Bat<T, H> Reverse() && {
    Bat<T, H> out;
    out.head_ = std::move(tail_);
    out.tail_ = std::move(head_);
    return out;
  }

  /// \brief Copying reverse.
  Bat<T, H> Reversed() const {
    Bat<T, H> out;
    out.head_ = tail_;
    out.tail_ = head_;
    return out;
  }

  /// \brief Sorts rows by (head, tail). Requires both orderable.
  void Sort() {
    std::vector<size_t> order(size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      if (head_[a] != head_[b]) return head_[a] < head_[b];
      return tail_[a] < tail_[b];
    });
    ApplyOrder(order);
  }

  /// \brief Removes exact duplicate rows; sorts as a side effect.
  void SortUnique() {
    Sort();
    std::vector<H> new_head;
    std::vector<T> new_tail;
    new_head.reserve(size());
    new_tail.reserve(size());
    for (size_t i = 0; i < size(); ++i) {
      if (i > 0 && head_[i] == new_head.back() &&
          tail_[i] == new_tail.back()) {
        continue;
      }
      new_head.push_back(head_[i]);
      new_tail.push_back(tail_[i]);
    }
    head_.Adopt(std::move(new_head));
    tail_.Adopt(std::move(new_tail));
  }

  bool operator==(const Bat& other) const {
    return head_ == other.head_ && tail_ == other.tail_;
  }

 private:
  template <typename H2, typename T2>
  friend class Bat;

  void ApplyOrder(const std::vector<size_t>& order) {
    std::vector<H> new_head;
    std::vector<T> new_tail;
    new_head.reserve(size());
    new_tail.reserve(size());
    for (size_t row : order) {
      new_head.push_back(head_[row]);
      new_tail.push_back(tail_[row]);
    }
    head_.Adopt(std::move(new_head));
    tail_.Adopt(std::move(new_tail));
  }

  Column<H> head_;
  Column<T> tail_;
};

/// BAT of tree edges or lifted association sets: (oid, oid).
using OidOidBat = Bat<Oid, Oid>;
/// BAT of ranks: (oid, int) — sibling order (Definition 1's rank).
using OidIntBat = Bat<Oid, int>;

/// \brief A (oid, string) BAT backed by a string arena: attribute
/// values and cdata leaves.
///
/// Instead of one heap-allocated std::string per row, all values of
/// the relation live concatenated in a single blob; a row is the
/// half-open byte range [ends[row-1], ends[row]). This is the BAT-as-
/// raw-column layout MonetDB bulk loads thrive on: the persistence
/// layer can adopt (or emit) the three columns with a memcpy each — or,
/// since the zero-copy refactor, borrow them straight out of a mapped
/// image (AdoptColumnViews) and never copy at all. A view-backed
/// relation promotes itself to owned storage the moment a mutating
/// call (Append) touches it; reads are identical in both states.
/// End offsets are u32, capping one relation's value bytes at 4 GiB —
/// far above any per-path relation of the corpora this engine targets,
/// and exactly the width the columnar image formats frame. Appends
/// beyond the cap set offsets_overflowed() instead of silently
/// wrapping; StoredDocument::Finalize turns the flag into a load/build
/// error.
class StrBat {
 public:
  StrBat() = default;

  /// \brief Appends one association; the value bytes are copied into
  /// the arena (promoting a view-backed relation to owned first). Rows
  /// past the 4 GiB arena cap mark the relation overflowed (their
  /// offsets would not be representable).
  void Append(Oid head, std::string_view tail) {
    head_.push_back(head);
    blob_.Append(tail);
    if (blob_.size() > kMaxArenaBytes) overflowed_ = true;
    ends_.push_back(static_cast<uint32_t>(blob_.size()));
  }

  void Reserve(size_t rows) {
    head_.reserve(rows);
    ends_.reserve(rows);
  }

  /// \brief Pre-sizes the arena; `bytes` is the expected total value
  /// length across all rows.
  void ReserveBytes(size_t bytes) { blob_.reserve(bytes); }

  size_t size() const { return head_.size(); }
  bool empty() const { return head_.empty(); }

  Oid head(size_t row) const { return head_[row]; }
  std::string_view tail(size_t row) const {
    size_t begin = row == 0 ? 0 : ends_[row - 1];
    return blob_.view().substr(begin, ends_[row] - begin);
  }

  std::span<const Oid> heads() const { return head_.span(); }
  /// \brief Cumulative end offsets into the arena, one per row
  /// (ends[size()-1] == tail_blob().size()).
  std::span<const uint32_t> tail_ends() const { return ends_.span(); }
  /// \brief The arena: every value, concatenated in row order.
  std::string_view tail_blob() const { return blob_.view(); }

  /// \brief Takes ownership of pre-built columns — the copy-mode bulk
  /// ingestion path of the columnar image loaders. Requires
  /// `heads.size() == ends.size()`, `ends` non-decreasing and
  /// `ends.back() == blob.size()` (callers validate; this class only
  /// stores).
  void AdoptColumns(std::vector<Oid> heads, std::vector<uint32_t> ends,
                    std::string blob) {
    head_.Adopt(std::move(heads));
    ends_.Adopt(std::move(ends));
    blob_.Adopt(std::move(blob));
  }

  /// \brief Borrows pre-built columns without copying — the view-mode
  /// (zero-copy) ingestion path. Same structural requirements as
  /// AdoptColumns; additionally the caller must keep the backing bytes
  /// alive for as long as this relation stays view-backed (see
  /// StoredDocument's pinned backing handle).
  void AdoptColumnViews(std::span<const Oid> heads,
                        std::span<const uint32_t> ends,
                        std::string_view blob) {
    head_.SetView(heads);
    ends_.SetView(ends);
    blob_.SetView(blob);
  }

  /// \brief True while any column borrows from external bytes.
  bool is_view() const {
    return head_.is_view() || ends_.is_view() || blob_.is_view();
  }

  /// \brief Promotes every column to owned storage (no-op when already
  /// owned); afterwards the relation no longer references its backing.
  void EnsureOwned() {
    head_.EnsureOwned();
    ends_.EnsureOwned();
    blob_.EnsureOwned();
  }

  /// \brief True when an Append pushed the arena past the u32 offset
  /// space; the relation's tails are unreliable and the owning
  /// document must refuse to finalize.
  bool offsets_overflowed() const { return overflowed_; }

  /// \brief Logical row equality — view- and owned-backed relations
  /// with the same rows compare equal. Equal row sequences imply equal
  /// columns (ends are cumulative lengths), so this is a plain
  /// column compare.
  bool operator==(const StrBat& other) const {
    return head_ == other.head_ && ends_ == other.ends_ &&
           blob_ == other.blob_;
  }

 private:
  static constexpr size_t kMaxArenaBytes = 0xffffffffu;

  Column<Oid> head_;
  Column<uint32_t> ends_;
  ArenaColumn blob_;
  bool overflowed_ = false;
};

/// BAT of leaf values: (oid, string) — attribute values and cdata.
using OidStrBat = StrBat;

/// \brief Hash index over a BAT's head column: head value -> row numbers.
///
/// MonetDB builds such indexes lazily for hash joins; we make the index an
/// explicit object so callers can reuse it across probes.
template <typename H, typename T>
class HeadIndex {
 public:
  explicit HeadIndex(const Bat<H, T>& table) {
    index_.reserve(table.size());
    for (size_t row = 0; row < table.size(); ++row) {
      index_[table.head(row)].push_back(row);
    }
  }

  /// \brief Rows whose head equals `key`; empty if none.
  const std::vector<size_t>& Lookup(const H& key) const {
    static const std::vector<size_t> kEmpty;
    auto it = index_.find(key);
    return it == index_.end() ? kEmpty : it->second;
  }

  bool Contains(const H& key) const { return index_.count(key) > 0; }

 private:
  std::unordered_map<H, std::vector<size_t>> index_;
};

}  // namespace bat
}  // namespace meetxml

#endif  // MEETXML_BAT_BAT_H_
