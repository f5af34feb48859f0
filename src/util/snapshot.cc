#include "util/snapshot.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <memory>

#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace openbg::util {
namespace {

void AppendLe(std::string* out, const void* v, size_t n) {
  // Little-endian hosts only (x86-64 / aarch64): raw byte copy.
  out->append(static_cast<const char*>(v), n);
}

}  // namespace

SnapshotWriter::SnapshotWriter(std::string path, std::string_view magic,
                               uint32_t version)
    : path_(std::move(path)), magic_(magic), version_(version) {
  OPENBG_CHECK(magic_.size() == 8) << "snapshot magic must be 8 bytes";
}

std::string& SnapshotWriter::payload() {
  OPENBG_CHECK(!sections_.empty())
      << "Put* before BeginSection in snapshot writer";
  return sections_.back().payload;
}

void SnapshotWriter::BeginSection(uint32_t tag) {
  sections_.push_back({tag, {}});
}

void SnapshotWriter::PutU8(uint8_t v) { AppendLe(&payload(), &v, 1); }
void SnapshotWriter::PutU32(uint32_t v) { AppendLe(&payload(), &v, 4); }
void SnapshotWriter::PutU64(uint64_t v) { AppendLe(&payload(), &v, 8); }
void SnapshotWriter::PutDouble(double v) { AppendLe(&payload(), &v, 8); }

void SnapshotWriter::PutFloats(const float* data, size_t n) {
  AppendLe(&payload(), data, n * sizeof(float));
}

void SnapshotWriter::PutString(std::string_view s) {
  PutU64(s.size());
  payload().append(s.data(), s.size());
}

Status SnapshotWriter::Finish() {
  std::string blob;
  blob.reserve(16 + sections_.size() * 16);
  blob.append(magic_);
  AppendLe(&blob, &version_, 4);
  uint32_t count = static_cast<uint32_t>(sections_.size());
  AppendLe(&blob, &count, 4);
  for (const Section& s : sections_) {
    AppendLe(&blob, &s.tag, 4);
    uint64_t len = s.payload.size();
    AppendLe(&blob, &len, 8);
    blob.append(s.payload);
    uint32_t crc = Crc32(s.payload);
    AppendLe(&blob, &crc, 4);
  }
  return WriteFileAtomic(path_, blob);
}

Status SnapshotSection::Take(size_t n, const char** p) {
  if (!error_.ok()) return error_;
  if (payload_.size() - pos_ < n) {
    return Status::IoError(
        StrFormat("snapshot section %u: truncated payload (want %zu bytes "
                  "at offset %zu of %zu)",
                  tag_, n, pos_, payload_.size()));
  }
  *p = payload_.data() + pos_;
  pos_ += n;
  return Status::OK();
}

Status SnapshotSection::ReadU8(uint8_t* v) {
  const char* p;
  OPENBG_RETURN_NOT_OK(Take(1, &p));
  std::memcpy(v, p, 1);
  return Status::OK();
}

Status SnapshotSection::ReadU32(uint32_t* v) {
  const char* p;
  OPENBG_RETURN_NOT_OK(Take(4, &p));
  std::memcpy(v, p, 4);
  return Status::OK();
}

Status SnapshotSection::ReadU64(uint64_t* v) {
  const char* p;
  OPENBG_RETURN_NOT_OK(Take(8, &p));
  std::memcpy(v, p, 8);
  return Status::OK();
}

Status SnapshotSection::ReadDouble(double* v) {
  const char* p;
  OPENBG_RETURN_NOT_OK(Take(8, &p));
  std::memcpy(v, p, 8);
  return Status::OK();
}

Status SnapshotSection::ReadFloats(float* out, size_t n) {
  const char* p;
  OPENBG_RETURN_NOT_OK(Take(n * sizeof(float), &p));
  std::memcpy(out, p, n * sizeof(float));
  return Status::OK();
}

Status SnapshotSection::ReadString(std::string* out) {
  uint64_t len;
  OPENBG_RETURN_NOT_OK(ReadU64(&len));
  if (len > payload_.size() - pos_) {
    return Status::IoError(
        StrFormat("snapshot section %u: string length %llu exceeds "
                  "remaining payload",
                  tag_, static_cast<unsigned long long>(len)));
  }
  const char* p;
  OPENBG_RETURN_NOT_OK(Take(static_cast<size_t>(len), &p));
  out->assign(p, static_cast<size_t>(len));
  return Status::OK();
}

namespace {

// Bounded streaming buffer for validation: no allocation ever exceeds this,
// regardless of file or section size.
constexpr size_t kStreamBufBytes = 256 * 1024;

Status ReadExact(std::ifstream& in, const std::string& path, char* out,
                 size_t n) {
  in.read(out, static_cast<std::streamsize>(n));
  if (static_cast<size_t>(in.gcount()) != n) {
    return Status::IoError("failed reading " + path);
  }
  return Status::OK();
}

}  // namespace

Status SnapshotReader::Open(const std::string& path, std::string_view magic,
                            uint32_t version) {
  OPENBG_CHECK(magic.size() == 8) << "snapshot magic must be 8 bytes";
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  in.seekg(0, std::ios::end);
  if (!in) return Status::IoError("failed reading " + path);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  path_ = path;
  sections_.clear();

  if (file_size < 16) {
    return Status::IoError(path + ": truncated snapshot header");
  }
  char header[16];
  OPENBG_RETURN_NOT_OK(ReadExact(in, path, header, 16));
  if (std::string_view(header, 8) != magic) {
    std::string found(header, 8);
    for (char& c : found) {
      if (!std::isprint(static_cast<unsigned char>(c))) c = '?';
    }
    return Status::InvalidArgument(
        path + ": bad snapshot magic " + found + " (not a " +
        std::string(magic) + " file, or corrupted header)");
  }
  uint32_t file_version, count;
  std::memcpy(&file_version, header + 8, 4);
  std::memcpy(&count, header + 12, 4);
  if (file_version != version) {
    return Status::InvalidArgument(
        StrFormat("%s: snapshot version %u, this build reads version %u",
                  path.c_str(), file_version, version));
  }
  std::string buf;
  uint64_t pos = 16;
  for (uint32_t i = 0; i < count; ++i) {
    if (file_size - pos < 12) {
      return Status::IoError(
          StrFormat("%s: truncated section header (section %u of %u)",
                    path.c_str(), i, count));
    }
    char sec_header[12];
    OPENBG_RETURN_NOT_OK(ReadExact(in, path, sec_header, 12));
    uint32_t tag;
    uint64_t len;
    std::memcpy(&tag, sec_header, 4);
    std::memcpy(&len, sec_header + 4, 8);
    pos += 12;
    if (len > file_size - pos || file_size - pos - len < 4) {
      return Status::IoError(
          StrFormat("%s: truncated section %u payload (claims %llu bytes, "
                    "%zu remain)",
                    path.c_str(), tag, static_cast<unsigned long long>(len),
                    static_cast<size_t>(file_size - pos)));
    }
    SectionInfo info;
    info.tag = tag;
    info.offset = pos;
    info.length = len;
    // CRC the payload in bounded chunks via seed chaining:
    // Crc32(b, Crc32(a)) == Crc32(a||b), so the rolling value after the
    // last chunk equals the whole-payload CRC without the payload ever
    // being resident at once.
    uint32_t actual_crc = 0;
    uint64_t remaining = len;
    while (remaining > 0) {
      const size_t chunk =
          static_cast<size_t>(std::min<uint64_t>(remaining, kStreamBufBytes));
      buf.resize(chunk);
      OPENBG_RETURN_NOT_OK(ReadExact(in, path, buf.data(), chunk));
      actual_crc = Crc32(buf.data(), chunk, actual_crc);
      remaining -= chunk;
    }
    pos += len;
    char crc_bytes[4];
    OPENBG_RETURN_NOT_OK(ReadExact(in, path, crc_bytes, 4));
    uint32_t stored_crc;
    std::memcpy(&stored_crc, crc_bytes, 4);
    pos += 4;
    if (stored_crc != actual_crc) {
      return Status::IoError(
          StrFormat("%s: section %u checksum mismatch (stored %08x, "
                    "computed %08x) — corrupted payload",
                    path.c_str(), tag, stored_crc, actual_crc));
    }
    info.crc = stored_crc;
    sections_.push_back(info);
  }
  if (pos != file_size) {
    return Status::IoError(
        StrFormat("%s: %zu trailing bytes after last section",
                  path.c_str(), static_cast<size_t>(file_size - pos)));
  }
  return Status::OK();
}

SnapshotSection SnapshotReader::section(size_t i) const {
  OPENBG_CHECK(i < sections_.size()) << "snapshot section index out of range";
  const SectionInfo& info = sections_[i];
  SnapshotSection s;
  s.tag_ = info.tag;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    s.error_ = Status::IoError("cannot open " + path_);
    return s;
  }
  in.seekg(static_cast<std::streamoff>(info.offset));
  auto owned = std::make_shared<std::string>();
  owned->resize(static_cast<size_t>(info.length));
  if (info.length > 0) {
    Status st = ReadExact(in, path_, owned->data(),
                          static_cast<size_t>(info.length));
    if (!st.ok()) {
      s.error_ = st;
      return s;
    }
  }
  // Re-verify: the file passed validation at Open, but it is re-read here,
  // so rot (or replacement) in between must not decode as clean data.
  const uint32_t actual_crc = Crc32(*owned);
  if (actual_crc != info.crc) {
    s.error_ = Status::IoError(
        StrFormat("%s: section %u checksum mismatch on load (stored %08x, "
                  "computed %08x) — file changed after validation",
                  path_.c_str(), info.tag, info.crc, actual_crc));
    return s;
  }
  s.owned_ = owned;
  s.payload_ = *owned;
  return s;
}

}  // namespace openbg::util
