#include "rdf/sharded_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <queue>
#include <utility>

#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/snapshot.h"
#include "util/string_util.h"

namespace openbg::rdf {
namespace {

// OBGSNAP2 (every index in the subject's shard) is refused by this magic.
constexpr std::string_view kManifestMagic = "OBGSNAP3";
constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kManifestHeaderTag = 1;
constexpr uint32_t kManifestShardsTag = 2;

constexpr std::string_view kShardMagic = "OBGSHRD3";
constexpr uint32_t kShardVersion = 1;
// magic, version, shard index/count, block size, subject-side count,
// object-side count, TOC offset.
constexpr size_t kShardHeaderBytes = 48;
constexpr size_t kSegmentsPerShard = 6;  // 3 orders x {payload, block index}
// TOC: u32 seg_count + 6 x (u32 kind, u64 offset, u64 length, u32 crc)
//      + u32 header_crc + u32 toc_crc
constexpr size_t kTocBytes = 4 + kSegmentsPerShard * 24 + 4 + 4;
constexpr size_t kSpillRecordBytes = 12;
// Two spills per shard (subject and object side) at half a MiB each keep
// the builder's buffering at one MiB per shard.
constexpr size_t kSpillFlushBytes = 1 << 19;

// The file name predates OBGSNAP3 and is kept, so an older store is
// refused by its magic rather than looking like a missing manifest.
std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.obgs2";
}

std::string ShardPath(const std::string& dir, uint32_t shard) {
  return util::StrFormat("%s/shard-%04u.seg", dir.c_str(), shard);
}

std::string SpillPath(const std::string& dir, uint32_t spill) {
  return util::StrFormat("%s/spill-%04u.tmp", dir.c_str(), spill);
}

void AppendLe(std::string* out, const void* v, size_t n) {
  // Little-endian hosts only (x86-64 / aarch64), matching util/snapshot.cc.
  out->append(static_cast<const char*>(v), n);
}

// Permuted key of `t` in order `ord` — must match KeyOf in triple_store.cc.
inline SegmentKey TripleToKey(const Triple& t, int ord) {
  switch (ord) {
    case 0:  // SPO
      return {t.s, t.p, t.o};
    case 1:  // POS
      return {t.p, t.o, t.s};
    default:  // OSP
      return {t.o, t.s, t.p};
  }
}

inline Triple KeyToTriple(const SegmentKey& k, int ord) {
  switch (ord) {
    case 0:
      return Triple{k[0], k[1], k[2]};
    case 1:
      return Triple{k[2], k[0], k[1]};
    default:
      return Triple{k[1], k[2], k[0]};
  }
}

inline bool Matches(const TriplePattern& p, const Triple& t) {
  constexpr TermId kAny = TriplePattern::kAny;
  return (p.s == kAny || p.s == t.s) && (p.p == kAny || p.p == t.p) &&
         (p.o == kAny || p.o == t.o);
}

// First block whose first key is > `key`; blocks [result-1 ..] may contain
// keys >= `key`.
size_t UpperBoundBlock(const uint8_t* index, size_t num_blocks,
                       const SegmentKey& key) {
  size_t lo = 0, hi = num_blocks;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    BlockMeta m = BlockMetaAt(index, mid);
    SegmentKey first = {m.k0, m.k1, m.k2};
    if (key < first) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Payload byte extent of block `bi` (valid after the index is validated).
inline std::pair<size_t, size_t> BlockExtent(const uint8_t* index,
                                             size_t num_blocks,
                                             size_t payload_len, size_t bi) {
  BlockMeta m = BlockMetaAt(index, bi);
  size_t end = (bi + 1 < num_blocks)
                   ? static_cast<size_t>(BlockMetaAt(index, bi + 1).payload_offset)
                   : payload_len;
  return {static_cast<size_t>(m.payload_offset), end};
}

// Structural validation of a block-index segment: contiguous offsets,
// chained ranks, strictly increasing first keys, counts summing to the
// order's key count. After this passes, every extent arithmetic on the
// metas is in-bounds by construction.
bool ValidateMetas(const uint8_t* index, size_t num_blocks, size_t payload_len,
                   uint64_t key_count, std::string* err) {
  uint64_t rank = 0;
  uint64_t prev_end = 0;
  SegmentKey prev_first = {0, 0, 0};
  for (size_t i = 0; i < num_blocks; ++i) {
    BlockMeta m = BlockMetaAt(index, i);
    if (m.count == 0) {
      *err = util::StrFormat("block %zu: zero count", i);
      return false;
    }
    if (m.payload_offset != prev_end) {
      *err = util::StrFormat("block %zu: non-contiguous payload offset", i);
      return false;
    }
    if (m.start_rank != rank) {
      *err = util::StrFormat("block %zu: rank chain broken", i);
      return false;
    }
    SegmentKey first = {m.k0, m.k1, m.k2};
    if (i > 0 && !(prev_first < first)) {
      *err = util::StrFormat("block %zu: first keys not increasing", i);
      return false;
    }
    size_t end = (i + 1 < num_blocks)
                     ? static_cast<size_t>(BlockMetaAt(index, i + 1).payload_offset)
                     : payload_len;
    if (end <= m.payload_offset || end > payload_len) {
      *err = util::StrFormat("block %zu: payload extent out of bounds", i);
      return false;
    }
    prev_end = end;
    rank += m.count;
    prev_first = first;
  }
  if (num_blocks > 0 && prev_end != payload_len) {
    *err = "trailing payload bytes after last block";
    return false;
  }
  if (rank != key_count) {
    *err = util::StrFormat("block counts sum to %llu, order has %llu keys",
                           static_cast<unsigned long long>(rank),
                           static_cast<unsigned long long>(key_count));
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

ShardedStoreBuilder::ShardedStoreBuilder(std::string dir,
                                         ShardedBuildOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.num_shards == 0) {
    status_ = util::Status::InvalidArgument("num_shards must be >= 1");
    return;
  }
  if (options_.block_size == 0) options_.block_size = kDefaultBlockSize;
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    status_ = util::Status::IoError(util::StrFormat(
        "cannot create %s: %s", dir_.c_str(), std::strerror(errno)));
    return;
  }
  // Reclaim spills (and atomic-file temps) from a crashed previous build.
  util::RemoveStaleTemps(dir_);
  spill_buffers_.resize(2 * size_t{options_.num_shards});
  spill_fds_.assign(2 * size_t{options_.num_shards}, -1);
}

ShardedStoreBuilder::~ShardedStoreBuilder() {
  for (uint32_t i = 0; i < spill_fds_.size(); ++i) {
    if (spill_fds_[i] >= 0) ::close(spill_fds_[i]);
    if (!finished_) ::unlink(SpillPath(dir_, i).c_str());
  }
}

util::Status ShardedStoreBuilder::Add(TermId s, TermId p, TermId o) {
  if (!status_.ok()) return status_;
  if (finished_) {
    return util::Status::InvalidArgument("Add after Finish on sharded builder");
  }
  if (s == kInvalidTerm || p == kInvalidTerm || o == kInvalidTerm) {
    return util::Status::InvalidArgument("cannot add wildcard triple");
  }
  const uint32_t n = options_.num_shards;
  for (uint32_t spill : {ShardOf(s, n), n + ShardOf(o, n)}) {
    std::string& buf = spill_buffers_[spill];
    AppendLe(&buf, &s, 4);
    AppendLe(&buf, &p, 4);
    AppendLe(&buf, &o, 4);
    if (buf.size() >= kSpillFlushBytes) {
      status_ = FlushSpill(spill);
      if (!status_.ok()) return status_;
    }
  }
  return util::Status::OK();
}

util::Status ShardedStoreBuilder::FlushSpill(uint32_t spill) {
  std::string& buf = spill_buffers_[spill];
  if (buf.empty()) return util::Status::OK();
  int& fd = spill_fds_[spill];
  if (fd < 0) {
    fd = ::open(SpillPath(dir_, spill).c_str(),
                O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return util::Status::IoError(util::StrFormat(
          "cannot open spill %u: %s", spill, std::strerror(errno)));
    }
  }
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(util::StrFormat(
          "spill %u write: %s", spill, std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  buf.clear();
  return util::Status::OK();
}

util::Status ShardedStoreBuilder::LoadSpill(uint32_t spill,
                                            std::vector<SegmentKey>* keys) {
  // A spill record is an SPO key: three little-endian u32s.
  static_assert(sizeof(SegmentKey) == kSpillRecordBytes);
  keys->clear();
  const std::string path = SpillPath(dir_, spill);
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::OK();  // nothing was spilled here
  in.seekg(0, std::ios::end);
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (size % kSpillRecordBytes != 0) {
    return util::Status::IoError(
        util::StrFormat("spill %u has torn records", spill));
  }
  keys->resize(size / kSpillRecordBytes);
  if (size > 0 && !in.read(reinterpret_cast<char*>(keys->data()),
                           static_cast<std::streamsize>(size))) {
    return util::Status::IoError(
        util::StrFormat("cannot read spill %u", spill));
  }
  return util::Status::OK();
}

util::Status ShardedStoreBuilder::EncodeShard(uint32_t shard,
                                              uint64_t* spo_count,
                                              uint64_t* obj_count,
                                              uint64_t* file_size) {
  // The segment list is (payload, index) per order. Each order is sorted
  // once; only one spill's keys are in memory at a time.
  std::string segments[kSegmentsPerShard];
  auto encode = [&](std::vector<SegmentKey>* keys, int ord) {
    std::sort(keys->begin(), keys->end());
    keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
    SegmentEncoder enc(options_.block_size);
    for (const SegmentKey& k : *keys) enc.Add(k);
    enc.Finish();
    segments[ord * 2] = enc.payload();
    segments[ord * 2 + 1] = enc.SerializeBlockIndex();
  };
  std::vector<SegmentKey> keys;
  // Subject side: SPO.
  OPENBG_RETURN_NOT_OK(LoadSpill(shard, &keys));
  encode(&keys, 0);
  *spo_count = keys.size();
  // Object side: POS, then the deduped POS keys permuted into OSP.
  OPENBG_RETURN_NOT_OK(LoadSpill(options_.num_shards + shard, &keys));
  for (SegmentKey& k : keys) k = {k[1], k[2], k[0]};  // (s,p,o) -> (p,o,s)
  encode(&keys, 1);
  *obj_count = keys.size();
  for (SegmentKey& k : keys) k = {k[1], k[2], k[0]};  // (p,o,s) -> (o,s,p)
  encode(&keys, 2);

  uint64_t toc_offset = kShardHeaderBytes;
  for (const std::string& s : segments) toc_offset += s.size();

  std::string header;
  header.reserve(kShardHeaderBytes);
  header.append(kShardMagic);
  uint32_t v32 = kShardVersion;
  AppendLe(&header, &v32, 4);
  AppendLe(&header, &shard, 4);
  AppendLe(&header, &options_.num_shards, 4);
  v32 = static_cast<uint32_t>(options_.block_size);
  AppendLe(&header, &v32, 4);
  AppendLe(&header, spo_count, 8);
  AppendLe(&header, obj_count, 8);
  AppendLe(&header, &toc_offset, 8);
  OPENBG_CHECK(header.size() == kShardHeaderBytes);

  std::string toc;
  toc.reserve(kTocBytes);
  uint32_t seg_count = kSegmentsPerShard;
  AppendLe(&toc, &seg_count, 4);
  uint64_t offset = kShardHeaderBytes;
  for (uint32_t kind = 0; kind < kSegmentsPerShard; ++kind) {
    const std::string& s = segments[kind];
    uint64_t len = s.size();
    uint32_t crc = util::Crc32(s);
    AppendLe(&toc, &kind, 4);
    AppendLe(&toc, &offset, 8);
    AppendLe(&toc, &len, 8);
    AppendLe(&toc, &crc, 4);
    offset += len;
  }
  uint32_t header_crc = util::Crc32(header);
  AppendLe(&toc, &header_crc, 4);
  uint32_t toc_crc = util::Crc32(toc);
  AppendLe(&toc, &toc_crc, 4);
  OPENBG_CHECK(toc.size() == kTocBytes);

  util::AtomicFile out(ShardPath(dir_, shard));
  OPENBG_RETURN_NOT_OK(out.status());
  OPENBG_RETURN_NOT_OK(out.Append(header));
  for (const std::string& s : segments) OPENBG_RETURN_NOT_OK(out.Append(s));
  OPENBG_RETURN_NOT_OK(out.Append(toc));
  OPENBG_RETURN_NOT_OK(out.Commit());
  *file_size = toc_offset + kTocBytes;
  ::unlink(SpillPath(dir_, shard).c_str());
  ::unlink(SpillPath(dir_, options_.num_shards + shard).c_str());
  return util::Status::OK();
}

util::Status ShardedStoreBuilder::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) {
    return util::Status::InvalidArgument("Finish called twice");
  }
  const uint32_t n = options_.num_shards;
  for (uint32_t spill = 0; spill < 2 * n; ++spill) {
    status_ = FlushSpill(spill);
    if (!status_.ok()) return status_;
    if (spill_fds_[spill] >= 0) {
      ::close(spill_fds_[spill]);
      spill_fds_[spill] = -1;
    }
  }
  std::vector<uint64_t> spo_counts(n, 0), obj_counts(n, 0), sizes(n, 0);
  uint64_t total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    status_ = EncodeShard(i, &spo_counts[i], &obj_counts[i], &sizes[i]);
    if (!status_.ok()) return status_;
    total += spo_counts[i];
  }
  // Manifest is written LAST: until it exists, Open refuses the directory,
  // so a crash mid-build never yields a half-openable store.
  util::SnapshotWriter w(ManifestPath(dir_), kManifestMagic, kManifestVersion);
  w.BeginSection(kManifestHeaderTag);
  w.PutU32(options_.num_shards);
  w.PutU32(static_cast<uint32_t>(options_.block_size));
  w.PutU64(total);
  w.BeginSection(kManifestShardsTag);
  for (uint32_t i = 0; i < n; ++i) {
    w.PutU64(spo_counts[i]);
    w.PutU64(obj_counts[i]);
    w.PutU64(sizes[i]);
  }
  status_ = w.Finish();
  if (status_.ok()) finished_ = true;
  return status_;
}

util::Status BuildShardedStore(const TripleStore& store,
                               const std::string& dir,
                               ShardedBuildOptions options) {
  ShardedStoreBuilder builder(dir, options);
  OPENBG_RETURN_NOT_OK(builder.status());
  for (const Triple& t : store.triples()) {
    OPENBG_RETURN_NOT_OK(builder.Add(t));
  }
  return builder.Finish();
}

// ---------------------------------------------------------------------------
// Open / verification
// ---------------------------------------------------------------------------

ShardedStore::~ShardedStore() = default;

util::Result<std::shared_ptr<const ShardedStore>> ShardedStore::Open(
    const std::string& dir, ShardedOpenOptions options) {
  std::shared_ptr<ShardedStore> store(new ShardedStore());
  store->dir_ = dir;
  store->options_ = options;

  util::SnapshotReader reader;
  if (util::Status st =
          reader.Open(ManifestPath(dir), kManifestMagic, kManifestVersion);
      !st.ok()) {
    return util::Status::IoError(st.message());
  }
  if (reader.num_sections() != 2) {
    return util::Status::IoError(dir + ": manifest: expected 2 sections");
  }
  util::SnapshotSection header = reader.section(0);
  if (header.tag() != kManifestHeaderTag) {
    return util::Status::IoError(dir + ": manifest: missing header section");
  }
  uint32_t num_shards = 0, block_size = 0;
  uint64_t total = 0;
  OPENBG_RETURN_NOT_OK(header.ReadU32(&num_shards));
  OPENBG_RETURN_NOT_OK(header.ReadU32(&block_size));
  OPENBG_RETURN_NOT_OK(header.ReadU64(&total));
  if (!header.AtEnd()) {
    return util::Status::IoError(dir + ": manifest: trailing header bytes");
  }
  if (num_shards == 0 || num_shards > 65536 || block_size == 0) {
    return util::Status::IoError(dir + ": manifest: implausible shard layout");
  }
  util::SnapshotSection shards_sec = reader.section(1);
  if (shards_sec.tag() != kManifestShardsTag) {
    return util::Status::IoError(dir + ": manifest: missing shards section");
  }
  std::vector<uint64_t> spo_counts(num_shards), obj_counts(num_shards),
      sizes(num_shards);
  uint64_t spo_sum = 0, obj_sum = 0;
  for (uint32_t i = 0; i < num_shards; ++i) {
    OPENBG_RETURN_NOT_OK(shards_sec.ReadU64(&spo_counts[i]));
    OPENBG_RETURN_NOT_OK(shards_sec.ReadU64(&obj_counts[i]));
    OPENBG_RETURN_NOT_OK(shards_sec.ReadU64(&sizes[i]));
    spo_sum += spo_counts[i];
    obj_sum += obj_counts[i];
  }
  if (!shards_sec.AtEnd()) {
    return util::Status::IoError(dir + ": manifest: trailing shard bytes");
  }
  if (spo_sum != total) {
    return util::Status::IoError(dir + ": manifest: subject-side shard "
                                       "counts disagree with total");
  }
  if (obj_sum != total) {
    return util::Status::IoError(dir + ": manifest: object-side shard "
                                       "counts disagree with total");
  }
  store->total_triples_ = total;

  const bool eager = options.verify == ShardedOpenOptions::Verify::kEager;
  uint64_t total_blocks = 0;
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::string path = ShardPath(dir, i);
    auto shard = std::make_unique<Shard>();
    OPENBG_RETURN_NOT_OK(shard->file.Open(path));
    // Before any page is touched: header/TOC validation under the default
    // readahead window would fault in most of a small shard, defeating the
    // lazy-page-in story a cold open is supposed to deliver.
    shard->file.Advise(util::MappedFile::Advice::kRandom);
    const uint8_t* data = shard->file.data();
    const size_t size = shard->file.size();
    if (size != sizes[i]) {
      return util::Status::IoError(util::StrFormat(
          "%s: size %zu disagrees with manifest (%llu) — truncated or "
          "swapped shard",
          path.c_str(), size, static_cast<unsigned long long>(sizes[i])));
    }
    if (size < kShardHeaderBytes + kTocBytes) {
      return util::Status::IoError(path + ": truncated shard file");
    }
    if (std::string_view(reinterpret_cast<const char*>(data), 8) !=
        kShardMagic) {
      return util::Status::IoError(path + ": bad shard magic");
    }
    uint32_t version, shard_index, file_shards, file_block_size;
    uint64_t spo_count, obj_count, toc_offset;
    std::memcpy(&version, data + 8, 4);
    std::memcpy(&shard_index, data + 12, 4);
    std::memcpy(&file_shards, data + 16, 4);
    std::memcpy(&file_block_size, data + 20, 4);
    std::memcpy(&spo_count, data + 24, 8);
    std::memcpy(&obj_count, data + 32, 8);
    std::memcpy(&toc_offset, data + 40, 8);
    if (version != kShardVersion) {
      return util::Status::IoError(
          util::StrFormat("%s: shard version %u, this build reads %u",
                          path.c_str(), version, kShardVersion));
    }
    if (shard_index != i || file_shards != num_shards ||
        file_block_size != block_size || spo_count != spo_counts[i] ||
        obj_count != obj_counts[i]) {
      return util::Status::IoError(
          path + ": shard header disagrees with manifest");
    }
    if (toc_offset < kShardHeaderBytes || toc_offset + kTocBytes != size) {
      return util::Status::IoError(path + ": TOC offset out of bounds");
    }
    const uint8_t* toc = data + toc_offset;
    uint32_t header_crc, toc_crc;
    std::memcpy(&header_crc, toc + kTocBytes - 8, 4);
    std::memcpy(&toc_crc, toc + kTocBytes - 4, 4);
    if (util::Crc32(data, kShardHeaderBytes) != header_crc) {
      return util::Status::IoError(path + ": shard header checksum mismatch");
    }
    if (util::Crc32(toc, kTocBytes - 4) != toc_crc) {
      return util::Status::IoError(path + ": shard TOC checksum mismatch");
    }
    uint32_t seg_count;
    std::memcpy(&seg_count, toc, 4);
    if (seg_count != kSegmentsPerShard) {
      return util::Status::IoError(path + ": unexpected segment count");
    }
    shard->orders[0].count = spo_count;
    shard->orders[1].count = obj_count;
    shard->orders[2].count = obj_count;
    uint64_t expect_offset = kShardHeaderBytes;
    for (uint32_t k = 0; k < kSegmentsPerShard; ++k) {
      uint32_t kind, crc;
      uint64_t offset, length;
      const uint8_t* e = toc + 4 + k * 24;
      std::memcpy(&kind, e, 4);
      std::memcpy(&offset, e + 4, 8);
      std::memcpy(&length, e + 12, 8);
      std::memcpy(&crc, e + 20, 4);
      if (kind != k || offset != expect_offset ||
          length > toc_offset - offset) {
        return util::Status::IoError(
            util::StrFormat("%s: segment %u extent out of bounds",
                            path.c_str(), k));
      }
      expect_offset += length;
      const int ord = static_cast<int>(k / 2);
      OrderSeg& seg = shard->orders[ord];
      if (k % 2 == 0) {
        seg.payload = data + offset;
        seg.payload_len = static_cast<size_t>(length);
      } else {
        seg.index = data + offset;
        seg.index_len = static_cast<size_t>(length);
        seg.index_crc = crc;
        if (length % kBlockMetaBytes != 0) {
          return util::Status::IoError(
              util::StrFormat("%s: segment %u: torn block index",
                              path.c_str(), k));
        }
        seg.num_blocks = static_cast<size_t>(length / kBlockMetaBytes);
        const uint64_t expected_blocks =
            (seg.count + block_size - 1) / block_size;
        if (seg.num_blocks != expected_blocks) {
          return util::Status::IoError(util::StrFormat(
              "%s: segment %u: %zu blocks, expected %llu", path.c_str(), k,
              seg.num_blocks, static_cast<unsigned long long>(expected_blocks)));
        }
        total_blocks += seg.num_blocks;
      }
      if (eager) {
        if (util::Crc32(data + offset, static_cast<size_t>(length)) != crc) {
          return util::Status::IoError(util::StrFormat(
              "%s: segment %u checksum mismatch — corrupted shard",
              path.c_str(), k));
        }
      }
    }
    if (expect_offset != toc_offset) {
      return util::Status::IoError(path + ": segments do not fill the file");
    }
    for (int ord = 0; ord < 3; ++ord) {
      OrderSeg& seg = shard->orders[ord];
      if (eager) {
        std::string err;
        if (!ValidateMetas(seg.index, seg.num_blocks, seg.payload_len,
                           seg.count, &err)) {
          return util::Status::IoError(
              util::StrFormat("%s: order %d block index: %s", path.c_str(),
                              ord, err.c_str()));
        }
      } else if (seg.num_blocks > 0) {
        seg.block_state =
            std::make_unique<std::atomic<uint8_t>[]>(seg.num_blocks);
        for (size_t b = 0; b < seg.num_blocks; ++b) {
          seg.block_state[b].store(0, std::memory_order_relaxed);
        }
      }
    }
    if (eager) {
      // Verification paged the whole shard in; hand the pages back so an
      // eager open still leaves RSS at baseline.
      shard->file.Advise(util::MappedFile::Advice::kDontNeed);
    }
    store->shards_.push_back(std::move(shard));
  }
  if (eager) {
    store->blocks_verified_.store(total_blocks, std::memory_order_relaxed);
  }
  return std::shared_ptr<const ShardedStore>(std::move(store));
}

void ShardedStore::LatchCorrupt(const std::string& message) const {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_.empty()) first_error_ = message;
  }
  corrupt_.store(true, std::memory_order_release);
  OPENBG_LOG(Error) << "sharded store corrupt: " << message;
}

util::Status ShardedStore::status() const {
  if (ok()) return util::Status::OK();
  std::lock_guard<std::mutex> lock(error_mu_);
  return util::Status::IoError(first_error_);
}

bool ShardedStore::CheckIndex(const Shard& shard, int ord) const {
  const OrderSeg& seg = shard.orders[ord];
  if (options_.verify == ShardedOpenOptions::Verify::kEager) return true;
  uint8_t state = seg.index_state.load(std::memory_order_acquire);
  if (state == 1) return true;
  if (state == 2) return false;
  if (util::Crc32(seg.index, seg.index_len) != seg.index_crc) {
    seg.index_state.store(2, std::memory_order_release);
    LatchCorrupt(util::StrFormat("%s order %d: block index checksum mismatch",
                                 shard.file.path().c_str(), ord));
    return false;
  }
  std::string err;
  if (!ValidateMetas(seg.index, seg.num_blocks, seg.payload_len, seg.count,
                     &err)) {
    seg.index_state.store(2, std::memory_order_release);
    LatchCorrupt(util::StrFormat("%s order %d: block index: %s",
                                 shard.file.path().c_str(), ord, err.c_str()));
    return false;
  }
  // Two threads may both verify; both reach the same verdict, so the race
  // is benign.
  seg.index_state.store(1, std::memory_order_release);
  return true;
}

bool ShardedStore::CheckBlock(const OrderSeg& seg, size_t block) const {
  if (options_.verify == ShardedOpenOptions::Verify::kEager) return true;
  uint8_t state = seg.block_state[block].load(std::memory_order_acquire);
  if (state == 1) return true;
  if (state == 2) return false;
  BlockMeta m = BlockMetaAt(seg.index, block);
  auto [begin, end] =
      BlockExtent(seg.index, seg.num_blocks, seg.payload_len, block);
  if (util::Crc32(seg.payload + begin, end - begin) != m.crc) {
    seg.block_state[block].store(2, std::memory_order_release);
    blocks_corrupt_.fetch_add(1, std::memory_order_relaxed);
    LatchCorrupt(
        util::StrFormat("block %zu payload checksum mismatch", block));
    return false;
  }
  seg.block_state[block].store(1, std::memory_order_release);
  blocks_verified_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

ShardedStore::Plan ShardedStore::MakePlan(const TriplePattern& p) {
  constexpr TermId kAny = TriplePattern::kAny;
  Plan plan;
  uint32_t a = 0, b = 0;
  if (p.s != kAny && p.p != kAny) {
    plan.ord = 0;
    plan.bound = 2;
    a = p.s;
    b = p.p;
  } else if (p.p != kAny && p.o != kAny) {
    plan.ord = 1;
    plan.bound = 2;
    a = p.p;
    b = p.o;
  } else if (p.s != kAny && p.o != kAny) {
    plan.ord = 2;  // OSP order is (o, s, p): prefix (o, s)
    plan.bound = 2;
    a = p.o;
    b = p.s;
  } else if (p.s != kAny) {
    plan.ord = 0;
    plan.bound = 1;
    a = p.s;
  } else if (p.p != kAny) {
    plan.ord = 1;
    plan.bound = 1;
    a = p.p;
  } else if (p.o != kAny) {
    plan.ord = 2;
    plan.bound = 1;
    a = p.o;
  } else {
    plan.ord = 0;  // full scan: global SPO order
    plan.bound = 0;
    return plan;
  }
  // Bound components are real term ids (< kInvalidTerm = 0xFFFFFFFF), so
  // the +1 below cannot wrap.
  if (plan.bound == 2) {
    plan.lo = {a, b, 0};
    plan.hi = {a, b + 1, 0};
  } else {
    plan.lo = {a, 0, 0};
    plan.hi = {a + 1, 0, 0};
  }
  return plan;
}

bool ShardedStore::ScanShard(const Shard& shard, const Plan& plan,
                             const TriplePattern& pattern,
                             const std::function<bool(const Triple&)>& sink,
                             bool* stopped) const {
  const OrderSeg& seg = shard.orders[plan.ord];
  if (seg.num_blocks == 0) return true;
  if (!CheckIndex(shard, plan.ord)) return false;
  size_t bi = 0;
  if (plan.bound > 0) {
    size_t ub = UpperBoundBlock(seg.index, seg.num_blocks, plan.lo);
    bi = ub > 0 ? ub - 1 : 0;
  }
  for (; bi < seg.num_blocks; ++bi) {
    BlockMeta m = BlockMetaAt(seg.index, bi);
    if (plan.bound > 0) {
      SegmentKey first = {m.k0, m.k1, m.k2};
      if (!(first < plan.hi)) break;  // every later key is past the range
    }
    if (!CheckBlock(seg, bi)) return false;
    auto [begin, end] =
        BlockExtent(seg.index, seg.num_blocks, seg.payload_len, bi);
    BlockDecoder dec(seg.payload + begin, end - begin, m.count);
    SegmentKey k;
    while (dec.Next(&k)) {
      if (plan.bound > 0) {
        if (k < plan.lo) continue;
        if (!(k < plan.hi)) return true;  // sorted: range exhausted
      }
      Triple t = KeyToTriple(k, plan.ord);
      if (Matches(pattern, t) && !sink(t)) {
        *stopped = true;
        return true;
      }
    }
    if (!dec.ok()) {
      blocks_corrupt_.fetch_add(1, std::memory_order_relaxed);
      LatchCorrupt(util::StrFormat("%s order %d block %zu: malformed varint "
                                   "stream",
                                   shard.file.path().c_str(), plan.ord, bi));
      return false;
    }
  }
  return true;
}

const ShardedStore::Shard* ShardedStore::Route(
    const Plan& plan, const TriplePattern& pattern) const {
  if (plan.ord == 0 && plan.bound > 0) {
    return shards_[ShardOf(pattern.s, num_shards())].get();
  }
  if (plan.ord != 0 && pattern.o != TriplePattern::kAny) {
    return shards_[ShardOf(pattern.o, num_shards())].get();
  }
  return nullptr;
}

void ShardedStore::Scan(const TriplePattern& pattern,
                        const std::function<bool(const Triple&)>& fn) const {
  if (!ok() || shards_.empty()) return;
  const Plan plan = MakePlan(pattern);
  bool stopped = false;
  if (const Shard* owner = Route(plan, pattern)) {
    // Single-shard route: the owning shard holds every candidate, and its
    // segment order IS the documented iteration order — stream with early
    // stop, no merge.
    ScanShard(*owner, plan, pattern, fn, &stopped);
    return;
  }
  // Fan-out: collect per shard (in parallel when a pool is bound; shard i
  // is scanned wholly by one worker — per-shard affinity keeps each
  // worker's page touches local to few mappings), then merge serially in
  // plan.ord key order, which equals the in-memory store's iteration order.
  const size_t n = shards_.size();
  std::vector<std::vector<Triple>> per(n);
  std::atomic<bool> bad{false};
  util::ParallelFor(options_.pool, n,
                    [&](size_t /*worker*/, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        bool shard_stopped = false;
                        auto sink = [&per, i](const Triple& t) {
                          per[i].push_back(t);
                          return true;
                        };
                        if (!ScanShard(*shards_[i], plan, pattern, sink,
                                       &shard_stopped)) {
                          bad.store(true, std::memory_order_relaxed);
                        }
                      }
                    });
  if (bad.load(std::memory_order_relaxed)) return;  // latched corrupt
  struct Head {
    SegmentKey key;
    size_t shard;
    size_t idx;
  };
  auto greater = [](const Head& a, const Head& b) { return b.key < a.key; };
  std::priority_queue<Head, std::vector<Head>, decltype(greater)> heads(
      greater);
  for (size_t i = 0; i < n; ++i) {
    if (!per[i].empty()) {
      heads.push({TripleToKey(per[i][0], plan.ord), i, 0});
    }
  }
  while (!heads.empty()) {
    Head h = heads.top();
    heads.pop();
    const Triple& t = per[h.shard][h.idx];
    if (!fn(t)) return;
    if (h.idx + 1 < per[h.shard].size()) {
      heads.push(
          {TripleToKey(per[h.shard][h.idx + 1], plan.ord), h.shard,
           h.idx + 1});
    }
  }
}

bool ShardedStore::Contains(TermId s, TermId p, TermId o) const {
  if (!ok() || shards_.empty()) return false;
  if (s == kInvalidTerm || p == kInvalidTerm || o == kInvalidTerm) {
    return false;
  }
  const Shard& shard = *shards_[ShardOf(s, num_shards())];
  const OrderSeg& seg = shard.orders[0];
  if (seg.num_blocks == 0) return false;
  if (!CheckIndex(shard, 0)) return false;
  const SegmentKey key = {s, p, o};
  size_t ub = UpperBoundBlock(seg.index, seg.num_blocks, key);
  if (ub == 0) return false;  // key precedes the first block's first key
  const size_t bi = ub - 1;
  if (!CheckBlock(seg, bi)) return false;
  BlockMeta m = BlockMetaAt(seg.index, bi);
  auto [begin, end] =
      BlockExtent(seg.index, seg.num_blocks, seg.payload_len, bi);
  BlockDecoder dec(seg.payload + begin, end - begin, m.count);
  SegmentKey k;
  while (dec.Next(&k)) {
    if (!(k < key)) return k == key;
  }
  if (!dec.ok()) {
    LatchCorrupt(util::StrFormat("%s block %zu: malformed varint stream",
                                 shard.file.path().c_str(), bi));
  }
  return false;
}

bool ShardedStore::RankLowerBound(const Shard& shard, int ord,
                                  const SegmentKey& key,
                                  uint64_t* rank) const {
  const OrderSeg& seg = shard.orders[ord];
  *rank = 0;
  if (seg.num_blocks == 0) return true;
  if (!CheckIndex(shard, ord)) return false;
  size_t ub = UpperBoundBlock(seg.index, seg.num_blocks, key);
  if (ub == 0) return true;  // key precedes everything
  const size_t bi = ub - 1;
  if (!CheckBlock(seg, bi)) return false;
  BlockMeta m = BlockMetaAt(seg.index, bi);
  auto [begin, end] =
      BlockExtent(seg.index, seg.num_blocks, seg.payload_len, bi);
  BlockDecoder dec(seg.payload + begin, end - begin, m.count);
  uint64_t before = 0;
  SegmentKey k;
  bool exhausted = true;
  while (dec.Next(&k)) {
    if (!(k < key)) {
      exhausted = false;
      break;
    }
    ++before;
  }
  if (exhausted && !dec.ok()) {
    LatchCorrupt(util::StrFormat("%s order %d block %zu: malformed varint "
                                 "stream",
                                 shard.file.path().c_str(), ord, bi));
    return false;
  }
  *rank = m.start_rank + before;
  return true;
}

size_t ShardedStore::ScanCost(const TriplePattern& pattern) const {
  if (!ok()) return 0;
  const Plan plan = MakePlan(pattern);
  if (plan.bound == 0) return static_cast<size_t>(total_triples_);
  auto range_of = [this, &plan](const Shard& shard, uint64_t* out) {
    uint64_t lo = 0, hi = 0;
    if (!RankLowerBound(shard, plan.ord, plan.lo, &lo)) return false;
    if (!RankLowerBound(shard, plan.ord, plan.hi, &hi)) return false;
    *out = hi - lo;
    return true;
  };
  uint64_t cost = 0;
  if (const Shard* owner = Route(plan, pattern)) {
    if (!range_of(*owner, &cost)) return 0;
    return static_cast<size_t>(cost);
  }
  for (const auto& shard : shards_) {
    uint64_t r = 0;
    if (!range_of(*shard, &r)) return 0;
    cost += r;
  }
  return static_cast<size_t>(cost);
}

std::vector<TermId> ShardedStore::DistinctPredicates() const {
  std::vector<TermId> out;
  if (!ok()) return out;
  for (const auto& shard : shards_) {
    const OrderSeg& seg = shard->orders[1];  // POS: k0 is the predicate
    if (seg.num_blocks == 0) continue;
    if (!CheckIndex(*shard, 1)) return {};
    TermId last = kInvalidTerm;
    for (size_t bi = 0; bi < seg.num_blocks; ++bi) {
      if (!CheckBlock(seg, bi)) return {};
      BlockMeta m = BlockMetaAt(seg.index, bi);
      auto [begin, end] =
          BlockExtent(seg.index, seg.num_blocks, seg.payload_len, bi);
      BlockDecoder dec(seg.payload + begin, end - begin, m.count);
      SegmentKey k;
      while (dec.Next(&k)) {
        if (k[0] != last) {
          out.push_back(k[0]);
          last = k[0];
        }
      }
      if (!dec.ok()) {
        LatchCorrupt(util::StrFormat("%s POS block %zu: malformed varint "
                                     "stream",
                                     shard->file.path().c_str(), bi));
        return {};
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ShardedStoreStats ShardedStore::Stats() const {
  ShardedStoreStats stats;
  stats.num_shards = num_shards();
  stats.num_triples = total_triples_;
  for (const auto& shard : shards_) {
    stats.mapped_bytes += shard->file.size();
    stats.resident_bytes += shard->file.ResidentBytes();
  }
  stats.blocks_verified = blocks_verified_.load(std::memory_order_relaxed);
  stats.blocks_corrupt = blocks_corrupt_.load(std::memory_order_relaxed);
  stats.ok = ok();
  if (!stats.ok) {
    std::lock_guard<std::mutex> lock(error_mu_);
    stats.first_error = first_error_;
  }
  return stats;
}

}  // namespace openbg::rdf
