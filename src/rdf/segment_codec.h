#ifndef OPENBG_RDF_SEGMENT_CODEC_H_
#define OPENBG_RDF_SEGMENT_CODEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace openbg::rdf {

/// Delta-varint block codec for sorted triple-index segments — the on-disk
/// adjacency format of the OBGSNAP3 sharded store (DESIGN.md §14).
///
/// A segment stores ONE shard's keys in ONE sort order (SPO for the
/// triples routed to it by subject, POS or OSP for those routed to it by
/// object) as a run of blocks of up to `block_size` keys. A key is the
/// permuted (first, second, third) triple components for that order, so the
/// key stream is strictly increasing. Each block is self-contained: deltas
/// restart from (0, 0, 0), so any block decodes without its predecessors —
/// which is what lets a point lookup touch exactly the pages of one block.
///
/// Per-key encoding against the previous key (LEB128 varints):
///   d0 = k0 - prev0; varint(d0)
///   if d0 != 0:  varint(k1), varint(k2)          // new group: absolutes
///   else: d1 = k1 - prev1; varint(d1)
///         if d1 != 0: varint(k2)                 // new sub-group: absolute
///         else:       varint(k2 - prev2)         // same (k0,k1): delta
/// Adjacency lists (many triples sharing (k0) or (k0,k1)) collapse to
/// one-or-two-byte entries, which is where the compression comes from.
///
/// Every block carries a BlockMeta in a separate block-index segment:
/// first key (for binary search without touching payload pages), payload
/// offset/rank bookkeeping, and a CRC32 of the block's payload bytes so a
/// lazily verified store can check exactly the blocks it reads.

/// One key in a given sort order: the permuted triple components.
using SegmentKey = std::array<uint32_t, 3>;

/// Fixed-size descriptor of one encoded block, stored packed (36 bytes,
/// little-endian) in the block-index segment.
struct BlockMeta {
  uint32_t k0 = 0;  ///< first key of the block (binary-search pivot)
  uint32_t k1 = 0;
  uint32_t k2 = 0;
  uint64_t payload_offset = 0;  ///< byte offset within the payload segment
  uint64_t start_rank = 0;      ///< rank of the block's first key
  uint32_t count = 0;           ///< keys in this block
  uint32_t crc = 0;             ///< CRC32 of the block's payload bytes
};

/// Serialized BlockMeta stride.
inline constexpr size_t kBlockMetaBytes = 36;

/// Default keys per block. 1024 keys ≈ a few KiB compressed — a point
/// lookup faults in at most a page or two.
inline constexpr size_t kDefaultBlockSize = 1024;

/// Appends `v` as a LEB128 varint (1-5 bytes).
void AppendVarint32(std::string* out, uint32_t v);

/// Reads one varint from [p, end). Returns bytes consumed, or 0 on overrun
/// or malformed (>5 byte) input.
size_t ReadVarint32(const uint8_t* p, const uint8_t* end, uint32_t* v);

/// Appends `m` in the packed little-endian layout (exactly kBlockMetaBytes).
void AppendBlockMeta(std::string* out, const BlockMeta& m);

/// Reads the i-th packed BlockMeta from a block-index segment. The caller
/// guarantees `index_data` holds at least (i + 1) * kBlockMetaBytes bytes;
/// memcpy-based, so unaligned mmap'd bytes are fine.
inline BlockMeta BlockMetaAt(const uint8_t* index_data, size_t i) {
  const uint8_t* p = index_data + i * kBlockMetaBytes;
  BlockMeta m;
  std::memcpy(&m.k0, p, 4);
  std::memcpy(&m.k1, p + 4, 4);
  std::memcpy(&m.k2, p + 8, 4);
  std::memcpy(&m.payload_offset, p + 12, 8);
  std::memcpy(&m.start_rank, p + 20, 8);
  std::memcpy(&m.count, p + 28, 4);
  std::memcpy(&m.crc, p + 32, 4);
  return m;
}

/// Encodes one segment: feed keys in strictly increasing order, then
/// Finish(). `payload()` is the concatenated block bytes; `blocks()` the
/// metas in block order (serialize with AppendBlockMeta).
class SegmentEncoder {
 public:
  explicit SegmentEncoder(size_t block_size = kDefaultBlockSize)
      : block_size_(block_size == 0 ? kDefaultBlockSize : block_size) {}

  void Add(const SegmentKey& key);

  /// Seals the trailing block (CRC + meta). Add must not be called after.
  void Finish();

  const std::string& payload() const { return payload_; }
  const std::vector<BlockMeta>& blocks() const { return blocks_; }

  /// All metas in the packed on-disk layout.
  std::string SerializeBlockIndex() const;

 private:
  void SealBlock();

  size_t block_size_;
  std::string payload_;
  std::vector<BlockMeta> blocks_;
  // In-flight block state.
  size_t block_start_offset_ = 0;
  uint64_t rank_ = 0;  // keys added overall
  uint32_t in_block_ = 0;
  SegmentKey first_ = {0, 0, 0};
  SegmentKey prev_ = {0, 0, 0};
};

/// Streaming decoder over one block's payload bytes. Bounds-checked: a
/// truncated or malformed varint stream flips ok() to false and Next()
/// returns no further keys — the caller treats that as corruption, never as
/// a short-but-valid block.
class BlockDecoder {
 public:
  BlockDecoder(const uint8_t* data, size_t len, uint32_t count)
      : p_(data), end_(data + len), remaining_(count) {}

  /// Advances to the next key; false at end of block or on malformed input
  /// (distinguish via ok()).
  bool Next(SegmentKey* key);

  /// False iff the byte stream was malformed (overrun / bad varint).
  bool ok() const { return ok_; }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  uint32_t remaining_;
  SegmentKey prev_ = {0, 0, 0};
  bool ok_ = true;
};

/// Decodes a whole block into `out` (appended). False on malformed input;
/// `out` may then hold a prefix of the block — callers must discard it.
bool DecodeBlock(const uint8_t* data, size_t len, uint32_t count,
                 std::vector<SegmentKey>* out);

}  // namespace openbg::rdf

#endif  // OPENBG_RDF_SEGMENT_CODEC_H_
