#include "store/paged_snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

#if defined(__unix__) || defined(__APPLE__)
#define TABBIN_STORE_HAVE_POSIX_IO 1
#include <unistd.h>
#else
#define TABBIN_STORE_HAVE_POSIX_IO 0
#endif

namespace tabbin {

namespace {

bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

uint64_t AlignUp(uint64_t v, uint64_t align) {
  // align is pre-validated as a power of two <= kMaxStoreAlign and v is
  // bounded by the file size, so this cannot overflow.
  return (v + align - 1) & ~(align - 1);
}

Status FlushAndSync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    return Status::IoError("snapshot store: flush failed for '" + path + "'");
  }
#if TABBIN_STORE_HAVE_POSIX_IO
  if (::fsync(fileno(f)) != 0) {
    return Status::IoError("snapshot store: fsync failed for '" + path + "'");
  }
#endif
  return Status::OK();
}

}  // namespace

Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    return Status::IoError("snapshot store: cannot open '" + tmp +
                           "' for writing");
  }
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::IoError("snapshot store: short write to '" + tmp + "'");
  }
  Status synced = FlushAndSync(f, tmp);
  std::fclose(f);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot store: cannot rename '" + tmp +
                           "' to '" + path + "'");
  }
  return Status::OK();
}

// --- Writer ---------------------------------------------------------------

BinaryWriter* PagedSnapshotWriter::AddSection(const std::string& name,
                                              uint64_t align) {
  const auto [it, added] = index_.emplace(name, sections_.size());
  if (!added) return sections_[it->second].payload.get();
  Section s;
  s.name = name;
  // Invalid alignments are a programming error on the write side; they
  // are clamped here and rejected loudly by the reader's validation, so
  // they can never produce a file that silently misparses.
  s.align = (IsPow2(align) && align <= kMaxStoreAlign) ? align : 1;
  s.payload = std::make_unique<BinaryWriter>();
  sections_.push_back(std::move(s));
  return sections_.back().payload.get();
}

std::vector<uint8_t> PagedSnapshotWriter::Assemble() const {
  // Pass 1: directory geometry. Entry = name (8 + bytes) + offset +
  // length + align + checksum (8 each).
  uint64_t header = 4 + 4 + 8 + 8;
  for (const auto& s : sections_) {
    header += 8 + s.name.size() + 8 * 4;
  }
  header += 8;  // directory checksum

  std::vector<uint64_t> offsets;
  offsets.reserve(sections_.size());
  uint64_t end = header;
  for (const auto& s : sections_) {
    const uint64_t off = AlignUp(end, s.align);
    offsets.push_back(off);
    end = off + s.payload->buffer().size();
  }

  // Pass 2: header + directory.
  BinaryWriter w;
  w.WriteU32(kSnapshotMagic);
  w.WriteU32(kPagedSnapshotVersion);
  w.WriteU64(sections_.size());
  w.WriteU64(header);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const auto& buf = sections_[i].payload->buffer();
    w.WriteString(sections_[i].name);
    w.WriteU64(offsets[i]);
    w.WriteU64(buf.size());
    w.WriteU64(sections_[i].align);
    w.WriteU64(Fnv1a64(buf.data(), buf.size()));
  }
  w.WriteU64(Fnv1a64(w.buffer().data(), w.buffer().size()));

  // Pass 3: padding + payloads.
  std::vector<uint8_t> out = std::move(w).TakeBuffer();
  out.reserve(static_cast<size_t>(end));
  for (size_t i = 0; i < sections_.size(); ++i) {
    out.resize(static_cast<size_t>(offsets[i]), 0);  // zero padding
    const auto& buf = sections_[i].payload->buffer();
    out.insert(out.end(), buf.begin(), buf.end());
  }
  return out;
}

Status PagedSnapshotWriter::ToFile(const std::string& path) const {
  return AtomicWriteFile(path, Assemble());
}

// --- Reader ---------------------------------------------------------------

Result<PagedSnapshotReader> PagedSnapshotReader::Open(const std::string& path,
                                                      uint64_t max_bytes) {
  TABBIN_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path, max_bytes));
  const ByteSpan bytes = file.bytes();

  constexpr uint64_t kFixedHeader = 4 + 4 + 8 + 8;
  if (bytes.size < kFixedHeader + 8) {
    return Status::ParseError("paged snapshot: file too small for a header");
  }
  uint32_t magic, version;
  uint64_t count, header;
  std::memcpy(&magic, bytes.data, 4);
  std::memcpy(&version, bytes.data + 4, 4);
  std::memcpy(&count, bytes.data + 8, 8);
  std::memcpy(&header, bytes.data + 16, 8);
  if (magic != kSnapshotMagic) {
    return Status::ParseError("paged snapshot: bad magic");
  }
  if (version == 1) {
    return Status::ParseError(
        "paged snapshot: '" + path +
        "' is a v1 stream file, which this build no longer reads; rebuild "
        "it (tabbin_cli save-model or build-service)");
  }
  if (version != kPagedSnapshotVersion) {
    return Status::ParseError("paged snapshot: format version " +
                              std::to_string(version) + " (this build reads " +
                              std::to_string(kPagedSnapshotVersion) + ")");
  }
  if (count > kMaxStoreSections) {
    return Status::ParseError("paged snapshot: section count " +
                              std::to_string(count) + " exceeds cap");
  }
  if (header < kFixedHeader + 8 || header > bytes.size) {
    return Status::ParseError(
        "paged snapshot: header length field out of bounds");
  }

  // The directory checksum covers everything before it — a reader that
  // passes this check holds a directory whose every field the writer
  // wrote.
  uint64_t dir_checksum;
  std::memcpy(&dir_checksum, bytes.data + header - 8, 8);
  if (Fnv1a64(bytes.data, static_cast<size_t>(header - 8)) != dir_checksum) {
    return Status::ParseError("paged snapshot: directory checksum mismatch");
  }

  // Parse directory entries in place; `file` (and with it the bytes)
  // outlives `dir`.
  BinaryReader dir(bytes.data + kFixedHeader,
                   static_cast<size_t>(header - 8 - kFixedHeader));
  PagedSnapshotReader reader;
  reader.sections_.reserve(static_cast<size_t>(count));
  uint64_t prev_end = header;
  for (uint64_t i = 0; i < count; ++i) {
    SectionInfo info;
    TABBIN_ASSIGN_OR_RETURN(info.name, dir.ReadString());
    TABBIN_ASSIGN_OR_RETURN(info.offset, dir.ReadU64());
    TABBIN_ASSIGN_OR_RETURN(info.length, dir.ReadU64());
    TABBIN_ASSIGN_OR_RETURN(info.align, dir.ReadU64());
    TABBIN_ASSIGN_OR_RETURN(info.checksum, dir.ReadU64());
    if (info.name.empty()) {
      return Status::ParseError("paged snapshot: empty section name");
    }
    if (!IsPow2(info.align) || info.align > kMaxStoreAlign) {
      return Status::ParseError(
          "paged snapshot: section '" + info.name + "' alignment " +
          std::to_string(info.align) + " is not a power of two within cap");
    }
    // The offsets must reproduce the writer's AlignUp chain exactly:
    // any slack the directory claims beyond mandatory padding is a
    // forgery (hostile padding can otherwise smuggle unchecksummed
    // bytes or overlap sections).
    if (info.offset != AlignUp(prev_end, info.align)) {
      return Status::ParseError(
          "paged snapshot: section '" + info.name +
          "' offset disagrees with the alignment chain");
    }
    if (info.length > bytes.size || info.offset > bytes.size - info.length) {
      return Status::ParseError("paged snapshot: section '" + info.name +
                                "' extends past end of file");
    }
    prev_end = info.offset + info.length;
    reader.sections_.push_back(std::move(info));
  }
  if (!dir.AtEnd()) {
    return Status::ParseError(
        "paged snapshot: trailing bytes inside the directory");
  }
  if (prev_end != bytes.size) {
    return Status::ParseError(
        "paged snapshot: file size disagrees with the directory (" +
        std::to_string(bytes.size - prev_end) + " trailing bytes)");
  }

  // Sorted once: duplicate names end up adjacent, and FindSection
  // binary-searches the same index.
  std::vector<uint32_t>& by_name = reader.by_name_;
  by_name.resize(reader.sections_.size());
  std::iota(by_name.begin(), by_name.end(), 0u);
  const std::vector<SectionInfo>& infos = reader.sections_;
  std::sort(by_name.begin(), by_name.end(), [&](uint32_t a, uint32_t b) {
    return infos[a].name < infos[b].name;
  });
  const auto dup = std::adjacent_find(
      by_name.begin(), by_name.end(),
      [&](uint32_t a, uint32_t b) { return infos[a].name == infos[b].name; });
  if (dup != by_name.end()) {
    return Status::ParseError("paged snapshot: duplicate section '" +
                              infos[*dup].name + "'");
  }

  reader.file_ = std::move(file);
  if (count > 0) {
    reader.checksum_state_ =
        std::make_unique<std::atomic<uint8_t>[]>(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      reader.checksum_state_[static_cast<size_t>(i)].store(
          0, std::memory_order_relaxed);
    }
  }
  return reader;
}

const PagedSnapshotReader::SectionInfo* PagedSnapshotReader::FindSection(
    const std::string& name) const {
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [&](uint32_t i, const std::string& n) { return sections_[i].name < n; });
  if (it == by_name_.end() || sections_[*it].name != name) return nullptr;
  return &sections_[*it];
}

Result<const PagedSnapshotReader::SectionInfo*>
PagedSnapshotReader::RequireSection(const std::string& name) const {
  const SectionInfo* info = FindSection(name);
  if (!info) {
    return Status::NotFound("paged snapshot: no section named '" + name +
                            "'");
  }
  return info;
}

std::vector<std::string> PagedSnapshotReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& s : sections_) names.push_back(s.name);
  return names;
}

Status PagedSnapshotReader::ValidateInfo(const SectionInfo& info) const {
  const size_t idx = static_cast<size_t>(&info - sections_.data());
  std::atomic<uint8_t>& state = checksum_state_[idx];
  uint8_t cached = state.load(std::memory_order_acquire);
  if (cached == 0) {
    const uint64_t got =
        Fnv1a64(file_.bytes().data + info.offset,
                static_cast<size_t>(info.length));
    cached = (got == info.checksum) ? 1 : 2;
    state.store(cached, std::memory_order_release);
  }
  if (cached != 1) {
    return Status::ParseError("paged snapshot: checksum mismatch in section '" +
                              info.name + "'");
  }
  return Status::OK();
}

Result<ByteSpan> PagedSnapshotReader::SectionSpan(
    const std::string& name) const {
  TABBIN_ASSIGN_OR_RETURN(const SectionInfo* info, RequireSection(name));
  TABBIN_RETURN_IF_ERROR(ValidateInfo(*info));
  return ByteSpan{file_.bytes().data + info->offset,
                  static_cast<size_t>(info->length)};
}

Result<ByteSpan> PagedSnapshotReader::SectionSpanUnverified(
    const std::string& name) const {
  TABBIN_ASSIGN_OR_RETURN(const SectionInfo* info, RequireSection(name));
  return ByteSpan{file_.bytes().data + info->offset,
                  static_cast<size_t>(info->length)};
}

Result<BinaryReader> PagedSnapshotReader::Section(
    const std::string& name) const {
  TABBIN_ASSIGN_OR_RETURN(ByteSpan span, SectionSpan(name));
  return BinaryReader(span.data, span.size);
}

Status PagedSnapshotReader::ValidateSection(const std::string& name) const {
  TABBIN_ASSIGN_OR_RETURN(const SectionInfo* info, RequireSection(name));
  return ValidateInfo(*info);
}

Status PagedSnapshotReader::ValidateAll() const {
  for (const auto& info : sections_) {
    TABBIN_RETURN_IF_ERROR(ValidateInfo(info));
  }
  return Status::OK();
}

const char* PagedSnapshotReader::ChecksumState(const std::string& name) const {
  const SectionInfo* info = FindSection(name);
  if (!info) return "unknown-section";
  const size_t idx = static_cast<size_t>(info - sections_.data());
  switch (checksum_state_[idx].load(std::memory_order_acquire)) {
    case 1: return "ok";
    case 2: return "BAD";
    default: return "unchecked";
  }
}

}  // namespace tabbin
