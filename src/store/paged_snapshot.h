// TBSN v2 — the one on-disk container. It holds model snapshots
// (`tabbin.*` sections plus `encoder.cache`, from `tabbin_cli
// save-model` and TabBiNSystem::Save) and service stores (the same
// model sections, `service.options` and the `store.*` corpus state).
// The file is laid out for mapping, so opening it touches only the
// directory, never the payloads:
//
//   u32 magic           "TBSN"
//   u32 format version  2
//   u64 section count
//   u64 header bytes    (everything through the directory checksum)
//   per section, in file order:
//     string  name      (u64 length + bytes)
//     u64     offset    (absolute; == AlignUp(previous end, align))
//     u64     length    (payload bytes)
//     u64     align     (power of two; 1 = packed, 4096 = page-aligned)
//     u64     checksum  (FNV-1a 64 over the payload bytes)
//   u64 directory checksum  (FNV-1a 64 over file[0 .. header-8))
//   zero padding, then payloads at their aligned offsets
//
// Opening a v2 file validates ONLY the header: magic, version, the
// directory checksum, and the full offset/length/alignment chain
// (offsets must reproduce the AlignUp chain exactly and the last
// section must end at the file size — a directory that passes cannot
// index out of the mapping). Payload checksums are validated lazily,
// per section, on first parsed access, and the verdict is memoized.
// Bulk payloads served zero-copy (embedding row blocks, the table-JSON
// blob) are fetched with SectionSpanUnverified() so a cold start never
// scans them; `tabbin_cli inspect` and ValidateAll() still check every
// section when asked.
//
// Format version 1 (a stream of sections under one trailing checksum)
// is no longer read: such a file is ParseError with a rebuild hint.
//
// Durability: ToFile never exposes a half-written snapshot — bytes go
// to a temp file, fsync, then one atomic rename (see also
// store/generation.h for the multi-generation directory workflow).
#ifndef TABBIN_STORE_PAGED_SNAPSHOT_H_
#define TABBIN_STORE_PAGED_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/mapped_file.h"
#include "util/serialize.h"
#include "util/status.h"

namespace tabbin {

inline constexpr uint32_t kSnapshotMagic = 0x4E534254;  // "TBSN"
inline constexpr uint32_t kPagedSnapshotVersion = 2;
/// Alignment used for bulk blocks (embedding rows, int8 codes): one
/// x86/common-ARM page, fixed so the byte format never depends on the
/// writing host's page size.
inline constexpr uint64_t kStoreBlockAlign = 4096;
/// Directory sanity caps — far above real snapshots, low enough that a
/// hostile header cannot drive giant allocations or overflow offset
/// arithmetic.
inline constexpr uint64_t kMaxStoreSections = 1u << 20;
inline constexpr uint64_t kMaxStoreAlign = 1u << 20;

/// \brief Writes `bytes` to `path` via temp file + fsync + atomic
/// rename: readers see the old content or the new, never a prefix.
Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& bytes);

/// \brief Assembles named, aligned sections into one v2 snapshot.
class PagedSnapshotWriter {
 public:
  /// \brief Starts (or resumes) a section. `align` is recorded on first
  /// add and must be a power of two <= kMaxStoreAlign; payload bytes
  /// land at the next multiple of it. Returned pointer stays valid for
  /// the writer's lifetime.
  BinaryWriter* AddSection(const std::string& name, uint64_t align = 1);

  std::vector<uint8_t> Assemble() const;

  /// \brief Assemble + AtomicWriteFile.
  Status ToFile(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    uint64_t align;
    std::unique_ptr<BinaryWriter> payload;
  };
  std::vector<Section> sections_;
  std::unordered_map<std::string, size_t> index_;  // name -> sections_
};

/// \brief Maps and validates a v2 snapshot; hands out section views.
class PagedSnapshotReader {
 public:
  /// \brief What the directory records about one section.
  struct SectionInfo {
    std::string name;
    uint64_t offset = 0;
    uint64_t length = 0;
    uint64_t align = 1;
    uint64_t checksum = 0;
  };

  /// \brief Maps the file and eagerly validates the header/directory
  /// only (see file comment). Corrupt directories are ParseError;
  /// payload corruption surfaces on (lazy) section validation.
  static Result<PagedSnapshotReader> Open(
      const std::string& path,
      uint64_t max_bytes = MappedFile::kDefaultMaxMappedBytes);

  /// \brief Name lookups (HasSection and every accessor) are binary
  /// searches over a sorted index built once by Open.
  bool HasSection(const std::string& name) const {
    return FindSection(name) != nullptr;
  }
  std::vector<std::string> SectionNames() const;
  const std::vector<SectionInfo>& sections() const { return sections_; }

  /// \brief Zero-copy payload view, checksum-validated on first call
  /// (memoized; later calls are free). ParseError on a checksum
  /// mismatch, NotFound for unknown names.
  Result<ByteSpan> SectionSpan(const std::string& name) const;

  /// \brief Zero-copy payload view with NO checksum pass — the serving
  /// path for bulk blocks, where an O(bytes) scan would defeat the
  /// O(ms) cold start. Bounds are still guaranteed by the validated
  /// directory; integrity of these sections is checked on demand by
  /// ValidateSection/ValidateAll (e.g. `tabbin_cli inspect`).
  Result<ByteSpan> SectionSpanUnverified(const std::string& name) const;

  /// \brief Checksum-validated payload behind a BinaryReader that
  /// borrows it in place (no copy) — the parsing path for metadata
  /// sections. The reader must not outlive this PagedSnapshotReader.
  Result<BinaryReader> Section(const std::string& name) const;

  /// \brief Forces checksum validation of one / every section.
  Status ValidateSection(const std::string& name) const;
  Status ValidateAll() const;

  /// \brief Lazily-computed checksum verdict for inspect-style tools:
  /// "ok", "BAD", or "unchecked".
  const char* ChecksumState(const std::string& name) const;

  size_t file_size() const { return file_.size(); }
  bool is_mapped() const { return file_.is_mapped(); }
  const std::string& path() const { return file_.path(); }
  /// \brief Advisory hint over the whole mapping (see MappedFile).
  void Advise(MappedFile::Advice advice) const { file_.Advise(advice); }

 private:
  PagedSnapshotReader() = default;

  const SectionInfo* FindSection(const std::string& name) const;
  Result<const SectionInfo*> RequireSection(const std::string& name) const;
  Status ValidateInfo(const SectionInfo& info) const;

  MappedFile file_;
  std::vector<SectionInfo> sections_;  // in file order
  std::vector<uint32_t> by_name_;      // indices into sections_, by name
  // Memoized lazy checksum verdicts, one per section, in sections_
  // order: 0 = unchecked, 1 = ok, 2 = mismatch. Atomic because mapped
  // snapshots are shared across query threads; first-toucher races are
  // benign (both writers compute the same verdict).
  std::unique_ptr<std::atomic<uint8_t>[]> checksum_state_;
};

}  // namespace tabbin

#endif  // TABBIN_STORE_PAGED_SNAPSHOT_H_
