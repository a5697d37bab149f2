// The flight recorder's record type, and the container that holds a run's
// records delta-encoded: in memory, in trace files and under the digests.
//
// A TraceRecord is 32 bytes and is what every reader sees. TraceRecords
// keeps the same sequence in about 9 bytes a record, the bytes MCKTRC03
// files store (trace_io.hpp) and chunk digests hash (digest.hpp). No other
// code knows their layout:
//
//  * Each record is a kind byte, a field-presence mask byte, then one
//    zigzag prefix varint per field that differs from its context. `at`
//    is coded against the previous record's time; arg0, arg1, pid, sub
//    and aux against the previous record of the same kind (kind & 31:
//    every real kind has its own context, forged kinds share theirs with
//    a real one, which changes the size of the code but not what it
//    decodes to). Deltas wrap in the field's own width, so every 32-byte
//    bit pattern round-trips: times that go backwards, INT64_MIN, pid -1,
//    kind bytes past TraceKind::kCount.
//  * Contexts reset every kBlockRecords records, so a record is decoded
//    from at most kBlockRecords - 1 predecessors, and one 4-byte offset
//    per block makes operator[] O(kBlockRecords).
//  * kDigestChunkRecords records (256 blocks) make a chunk, the unit a
//    file stores and a digest covers; its bytes depend on its own records
//    alone. The bytes live in kSegmentBytes anonymous mappings: data
//    grows from the front of a segment and the block offsets from its
//    back. A chunk never straddles two segments, so chunk_bytes(c) is one
//    span: a segment is mapped at a chunk boundary when the next chunk
//    might not fit, and no other append allocates. Mappings, not malloc:
//    they are returned to the OS when the container is cleared or
//    destroyed.
//
// The encoding is canonical (a function of the record sequence alone), so
// two containers hold the same records iff their bytes are equal, which is
// what operator== compares. The decoder trusts the bytes push_back wrote;
// untrusted bytes (a file's chunks) enter through append_chunk, which
// bounds-checks them and accepts only a canonical encoding.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>

#include "sim/time.hpp"

namespace mck::obs {

/// One trace record: 32 bytes, trivially copyable and memcmp-comparable
/// for determinism tests; files hold it encoded (TraceRecords). The
/// per-kind field conventions are on TraceKind (trace.hpp).
struct TraceRecord {
  sim::SimTime at;      // simulation time (ns)
  std::uint64_t arg0;
  std::uint64_t arg1;
  std::int32_t pid;     // process, or -1 for simulator-global records
  std::uint8_t kind;    // TraceKind
  std::uint8_t sub;     // kind-specific discriminator (MsgKind, CkptKind)
  std::uint16_t aux;    // kind-specific small operand (peer pid, MSS id)
};
static_assert(sizeof(TraceRecord) == 32,
              "no padding: records compare with memcmp");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Records per chunk: the unit a trace file stores and a digest covers
/// (a format constant).
inline constexpr std::size_t kDigestChunkRecords = 4096;

/// An append-only sequence of TraceRecords, delta-encoded (header comment).
class TraceRecords {
 public:
  static constexpr std::size_t kBlockRecords = 16;
  static constexpr std::size_t kSegmentBytes = std::size_t{2} << 20;
  static constexpr std::size_t kKindContexts = 32;
  /// kind + mask + at, arg0, arg1 (9 B each) + pid (5) + sub (2) + aux (3).
  static constexpr std::size_t kMaxRecordBytes = 2 + 3 * 9 + 5 + 2 + 3;

 private:
  enum : unsigned { kAt = 1, kArg0 = 2, kArg1 = 4, kPid = 8, kSub = 16,
                    kAux = 32 };
  static constexpr std::size_t kChunkBlocks =
      kDigestChunkRecords / kBlockRecords;
  static_assert(kChunkBlocks * kBlockRecords == kDigestChunkRecords);
  static constexpr std::size_t kMaxChunkBytes =
      kDigestChunkRecords * kMaxRecordBytes;
  /// Mapped bytes kept past the data: varints move as 8-byte words.
  static constexpr std::size_t kSlack = 8;
  /// Zero bytes append_chunk keeps past untrusted input: a forged record
  /// that starts before the end may run past it with a 9-byte varint in
  /// each of its six fields before the bounds check sees it, and its last
  /// varint read may load kSlack bytes more.
  static constexpr std::size_t kInputPad = 2 + 6 * 9 + kSlack;

  /// The previous record of one kind in the current block (a plain
  /// aggregate: Ctx{} is the zero context a block starts from).
  struct Ctx {
    std::uint64_t arg0;
    std::uint64_t arg1;
    std::uint32_t pid;
    std::uint8_t sub;
    std::uint16_t aux;
  };

  struct Segment {
    unsigned char* base = nullptr;
    std::size_t first_block = 0;  // index of its first block
    std::uint32_t blocks = 0;     // blocks started in it
    std::uint32_t used = 0;       // data bytes, once the next is mapped
  };

  static std::uint64_t zigzag(std::uint64_t d) {
    return (d << 1) ^ (0 - (d >> 63));
  }
  static std::uint64_t unzigzag(std::uint64_t v) {
    return (v >> 1) ^ (0 - (v & 1));
  }
  /// A delta computed in a narrower width, sign-extended from it.
  template <typename S>
  static std::uint64_t widen(unsigned d) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<S>(d)));
  }
  /// Prefix varint: the first byte's trailing zero bits, plus one, give
  /// the length in bytes (1..8, 7 value bits each, little-endian above
  /// the length bits); a zero first byte is followed by the 8 raw bytes
  /// of a value >= 2^56. Same sizes as LEB128, but the length is known
  /// from one load, so a read costs no branch per byte. Reads and writes
  /// move whole 8-byte words: kSlack bytes stay mapped past the data.
  static unsigned char* put_varint(unsigned char* q, std::uint64_t v) {
    if (v >= (std::uint64_t{1} << 56)) {
      *q = 0;
      std::memcpy(q + 1, &v, 8);
      return q + 9;
    }
    const int len = (64 - __builtin_clzll(v | 1) + 6) / 7;
    const std::uint64_t w = ((v << 1) | 1) << (len - 1);
    std::memcpy(q, &w, 8);
    return q + len;
  }
  static std::uint64_t get_varint(const unsigned char*& p) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    if ((w & 0xff) == 0) {
      std::memcpy(&w, p + 1, 8);
      p += 9;
      return w;
    }
    const int len = __builtin_ctzll(w) + 1;
    p += len;
    return (w << (64 - 8 * len)) >> (64 - 7 * len);
  }

  /// Decoding state within one block: the contexts of the kinds in
  /// `seen` (the others are zeroed on first use in the block).
  struct Decoder {
    const unsigned char* p = nullptr;
    std::uint64_t at = 0;
    std::uint32_t seen = 0;
    Ctx ctx[kKindContexts] = {};

    void start(const unsigned char* block) {
      p = block;
      at = 0;
      seen = 0;
    }
    void next(TraceRecord& r) {
      const unsigned char* q = p;
      const unsigned kind = q[0];
      const unsigned mask = q[1];
      q += 2;
      if (mask & kAt) at += unzigzag(get_varint(q));
      const unsigned slot = kind & (kKindContexts - 1);
      Ctx& c = ctx[slot];
      if (((seen >> slot) & 1) == 0) {
        c = Ctx{};
        seen |= 1u << slot;
      }
      if (mask & kArg0) c.arg0 += unzigzag(get_varint(q));
      if (mask & kArg1) c.arg1 += unzigzag(get_varint(q));
      if (mask & kPid) {
        c.pid += static_cast<std::uint32_t>(unzigzag(get_varint(q)));
      }
      if (mask & kSub) {
        c.sub = static_cast<std::uint8_t>(c.sub + unzigzag(get_varint(q)));
      }
      if (mask & kAux) {
        c.aux = static_cast<std::uint16_t>(c.aux + unzigzag(get_varint(q)));
      }
      p = q;
      r = TraceRecord{static_cast<sim::SimTime>(at), c.arg0, c.arg1,
                      static_cast<std::int32_t>(c.pid),
                      static_cast<std::uint8_t>(kind), c.sub, c.aux};
    }
  };

 public:
  TraceRecords() = default;
  TraceRecords(std::initializer_list<TraceRecord> records) {
    for (const TraceRecord& r : records) push_back(r);
  }
  TraceRecords(const TraceRecords& o) { copy_from(o); }
  TraceRecords& operator=(const TraceRecords& o) {
    if (this != &o) {
      clear();
      copy_from(o);
    }
    return *this;
  }
  TraceRecords(TraceRecords&& o) noexcept { steal(o); }
  TraceRecords& operator=(TraceRecords&& o) noexcept {
    if (this != &o) {
      clear();
      steal(o);
    }
    return *this;
  }
  ~TraceRecords() { unmap_all(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Segments mapped so far (each kSegmentBytes of address space).
  std::size_t segments() const { return segs_.size(); }

  /// Resident encoded bytes: the record codes plus the block offsets, the
  /// only pages of the segments a write has touched (up to page rounding).
  std::size_t bytes() const {
    std::size_t n = 0;
    for (const Segment& s : segs_) n += used(s) + 4 * s.blocks;
    return n;
  }

  void push_back(const TraceRecord& r) {
    if ((size_ & (kBlockRecords - 1)) == 0) start_block();
    unsigned char* q = put_ + 2;
    unsigned mask = 0;
    const auto at = static_cast<std::uint64_t>(r.at);
    if (at != prev_at_) {
      mask |= kAt;
      q = put_varint(q, zigzag(at - prev_at_));
    }
    Ctx& c = ctx_[r.kind & (kKindContexts - 1)];
    const std::uint32_t bit = 1u << (r.kind & (kKindContexts - 1));
    if ((seen_ & bit) == 0) {
      c = Ctx{};
      seen_ |= bit;
    }
    if (r.arg0 != c.arg0) {
      mask |= kArg0;
      q = put_varint(q, zigzag(r.arg0 - c.arg0));
    }
    if (r.arg1 != c.arg1) {
      mask |= kArg1;
      q = put_varint(q, zigzag(r.arg1 - c.arg1));
    }
    const auto pid = static_cast<std::uint32_t>(r.pid);
    if (pid != c.pid) {
      mask |= kPid;
      q = put_varint(q, zigzag(widen<std::int32_t>(pid - c.pid)));
    }
    if (r.sub != c.sub) {
      mask |= kSub;
      q = put_varint(q, zigzag(widen<std::int8_t>(r.sub - c.sub)));
    }
    if (r.aux != c.aux) {
      mask |= kAux;
      q = put_varint(q, zigzag(widen<std::int16_t>(r.aux - c.aux)));
    }
    put_[0] = r.kind;
    put_[1] = static_cast<unsigned char>(mask);
    put_ = q;
    prev_at_ = at;
    c = Ctx{r.arg0, r.arg1, pid, r.sub, r.aux};
    ++size_;
  }

  /// Chunks the records fill (the last one may be short).
  std::size_t chunks() const {
    return (size_ + kDigestChunkRecords - 1) / kDigestChunkRecords;
  }

  /// The encoded bytes of chunk `c` (< chunks()): records
  /// [c * kDigestChunkRecords, (c + 1) * kDigestChunkRecords) clipped to
  /// size(), as a trace file stores them and a chunk digest hashes them.
  std::span<const unsigned char> chunk_bytes(std::size_t c) const {
    const std::size_t b = c * kChunkBlocks;
    const Segment& s = segment_of(b);
    const std::size_t next = b - s.first_block + kChunkBlocks;
    return {block_ptr(s, b),
            next < s.blocks ? block_ptr(s, s.first_block + next)
                            : s.base + used(s)};
  }

  /// Appends the `n` records (1 <= n <= kDigestChunkRecords) that
  /// untrusted `bytes` encode as a new chunk; size() must be a multiple
  /// of kDigestChunkRecords. Accepts only the canonical encoding of
  /// exactly n records, so the chunk's bytes equal the input; anything
  /// else returns false and leaves the container empty. `bytes` is
  /// zero-padded while it is decoded.
  bool append_chunk(std::vector<unsigned char>& bytes, std::size_t n) {
    const std::size_t first = size_;
    const std::size_t len = bytes.size();
    bool ok = n > 0 && n <= kDigestChunkRecords &&
              first % kDigestChunkRecords == 0;
    bytes.resize(len + kInputPad);
    const unsigned char* end = bytes.data() + len;
    Decoder d;
    d.p = bytes.data();
    TraceRecord r;
    for (std::size_t k = 0; ok && k < n; ++k) {
      if (k % kBlockRecords == 0) d.start(d.p);
      d.next(r);
      ok = d.p <= end;
      if (ok) push_back(r);
    }
    bytes.resize(len);
    if (ok && d.p == end) {
      const std::span<const unsigned char> got =
          chunk_bytes(first / kDigestChunkRecords);
      if (got.size() == len &&
          std::memcmp(got.data(), bytes.data(), len) == 0) {
        return true;
      }
    }
    clear();
    return false;
  }

  /// Record `i` (< size()), decoded from the start of its block.
  TraceRecord operator[](std::size_t i) const { return *from(i); }
  TraceRecord back() const { return (*this)[size_ - 1]; }

  /// Decodes block `b` (records [b*16, b*16+16) clipped to size()) into
  /// `out`; returns the count.
  std::size_t decode_block(std::size_t b, TraceRecord* out) const {
    const std::size_t n =
        std::min(kBlockRecords, size_ - b * kBlockRecords);
    Decoder d;
    d.start(block_ptr(b));
    for (std::size_t k = 0; k < n; ++k) d.next(out[k]);
    return n;
  }

  /// Sequential decoder: O(1) per step. Holds its record, so `*it` is a
  /// reference into the iterator, valid until it moves.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceRecord*;
    using reference = const TraceRecord&;

    const_iterator() = default;
    const TraceRecord& operator*() const { return cur_; }
    const TraceRecord* operator->() const { return &cur_; }
    std::size_t index() const { return i_; }
    const_iterator& operator++() {
      if (++i_ < rs_->size_) {
        if (i_ % kBlockRecords == 0) {
          d_.start(rs_->block_ptr(i_ / kBlockRecords));
        }
        d_.next(cur_);
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    friend class TraceRecords;
    const TraceRecords* rs_ = nullptr;
    std::size_t i_ = 0;
    Decoder d_;
    TraceRecord cur_{};
  };

  /// An iterator at record `i` (end() if i >= size()).
  const_iterator from(std::size_t i) const {
    const_iterator it;
    it.rs_ = this;
    it.i_ = std::min(i, size_);
    if (it.i_ < size_) {
      it.d_.start(block_ptr(it.i_ / kBlockRecords));
      for (std::size_t k = it.i_ % kBlockRecords + 1; k-- > 0;) {
        it.d_.next(it.cur_);
      }
    }
    return it;
  }
  const_iterator begin() const { return from(0); }
  const_iterator end() const { return from(size_); }

  /// Same records (compared on the canonical bytes, without decoding).
  bool operator==(const TraceRecords& o) const {
    bool same = size_ == o.size_;
    for (std::size_t c = 0; same && c < chunks(); ++c) {
      same = std::ranges::equal(chunk_bytes(c), o.chunk_bytes(c));
    }
    return same;
  }

 private:
  /// Drops every record and unmaps every segment.
  void clear() {
    unmap_all();
    segs_.clear();
    segs_.shrink_to_fit();
    put_ = nullptr;
    size_ = 0;
  }

  std::size_t used(const Segment& s) const {
    return &s == &segs_.back() ? static_cast<std::size_t>(put_ - s.base)
                               : s.used;
  }
  static unsigned char* offset_slot(const Segment& s, std::size_t local) {
    return s.base + kSegmentBytes - 4 * (local + 1);
  }

  const Segment& segment_of(std::size_t b) const {
    const auto it = std::upper_bound(
        segs_.begin(), segs_.end(), b,
        [](std::size_t blk, const Segment& s) { return blk < s.first_block; });
    return *(it - 1);
  }
  /// Block `b`, which segment `s` holds.
  static const unsigned char* block_ptr(const Segment& s, std::size_t b) {
    std::uint32_t off = 0;
    std::memcpy(&off, offset_slot(s, b - s.first_block), 4);
    return s.base + off;
  }
  const unsigned char* block_ptr(std::size_t b) const {
    return block_ptr(segment_of(b), b);
  }

  /// Starts the block of record size_: records its offset and resets the
  /// contexts. A chunk starts in a fresh segment if it might not fit in
  /// the current one, data and block offsets both.
  void start_block() {
    if (size_ % kDigestChunkRecords == 0 &&
        (segs_.empty() ||
         put_ + kMaxChunkBytes + kSlack >
             offset_slot(segs_.back(),
                         segs_.back().blocks + kChunkBlocks - 1))) {
      map_segment();
    }
    Segment& s = segs_.back();
    const auto off = static_cast<std::uint32_t>(put_ - s.base);
    std::memcpy(offset_slot(s, s.blocks), &off, 4);
    ++s.blocks;
    prev_at_ = 0;
    seen_ = 0;
  }

  void map_segment() {
    void* p = ::mmap(nullptr, kSegmentBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    if (!segs_.empty()) {
      segs_.back().used = static_cast<std::uint32_t>(put_ - segs_.back().base);
    }
    Segment s;
    s.base = static_cast<unsigned char*>(p);
    s.first_block = size_ / kBlockRecords;
    try {
      segs_.push_back(s);
    } catch (...) {
      ::munmap(p, kSegmentBytes);
      throw;
    }
    put_ = s.base;
  }

  void unmap_all() {
    for (const Segment& s : segs_) ::munmap(s.base, kSegmentBytes);
  }

  void steal(TraceRecords& o) {
    segs_ = std::move(o.segs_);
    o.segs_.clear();
    put_ = std::exchange(o.put_, nullptr);
    size_ = std::exchange(o.size_, 0);
    prev_at_ = o.prev_at_;
    seen_ = o.seen_;
    std::copy(std::begin(o.ctx_), std::end(o.ctx_), std::begin(ctx_));
  }

  /// Copies the touched bytes of every segment (front data and back
  /// offsets) and the encoder state, so appends continue identically.
  void copy_from(const TraceRecords& o) {
    for (const Segment& src : o.segs_) {
      map_segment();
      Segment& s = segs_.back();
      s.first_block = src.first_block;
      s.blocks = src.blocks;
      const std::size_t n = o.used(src);
      std::memcpy(s.base, src.base, n);
      std::memcpy(offset_slot(s, s.blocks - 1), offset_slot(src, src.blocks - 1),
                  4 * std::size_t{src.blocks});
      put_ = s.base + n;
    }
    size_ = o.size_;
    prev_at_ = o.prev_at_;
    seen_ = o.seen_;
    std::copy(std::begin(o.ctx_), std::end(o.ctx_), std::begin(ctx_));
  }

  std::vector<Segment> segs_;
  unsigned char* put_ = nullptr;  // next data byte of the last segment
  std::size_t size_ = 0;
  // Encoder contexts of the current block.
  std::uint64_t prev_at_ = 0;
  std::uint32_t seen_ = 0;
  Ctx ctx_[kKindContexts] = {};
};

/// Random access into a TraceRecords that keeps the last block it decoded,
/// so lookups in ascending order (the deliveries of a run's hops, a
/// backward walk) decode each block about once. One per reader: it is not
/// shareable.
class RecordCache {
 public:
  explicit RecordCache(const TraceRecords* records = nullptr)
      : records_(records) {}

  const TraceRecord& operator[](std::size_t i) {
    const std::size_t b = i / TraceRecords::kBlockRecords;
    if (b != block_) {
      records_->decode_block(b, buf_);
      block_ = b;
    }
    return buf_[i % TraceRecords::kBlockRecords];
  }

 private:
  const TraceRecords* records_ = nullptr;
  std::size_t block_ = static_cast<std::size_t>(-1);
  TraceRecord buf_[TraceRecords::kBlockRecords];
};

}  // namespace mck::obs
