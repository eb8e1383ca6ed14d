// Read-only memory-mapped files — the storage primitive under the
// paged snapshot store (store/paged_snapshot.h).
//
// MappedFile::Open maps a whole file read-only and hands out its bytes
// as a stable span for the lifetime of the object (RAII unmap). Two
// backends sit behind the same type:
//
//  * POSIX mmap(PROT_READ, MAP_PRIVATE) — the real thing: pages fault
//    in lazily, the kernel page cache is shared across processes, and
//    RSS only grows with the pages actually touched;
//  * a portable read-into-heap fallback — used on non-POSIX builds, when
//    TABBIN_STORE_NO_MMAP=1 is set (CI exercises this leg), or when the
//    mmap call itself fails. Same bytes, same API, eager memory.
//
// This header is the ONLY sanctioned home for raw mmap/munmap calls in
// the tree (tabbin_lint rule `raw-mmap` enforces it): everything above
// speaks MappedFile, never the syscall.
//
// A note on fault semantics the callers must respect: a mapped file
// that is truncated by another process AFTER mapping turns page reads
// into SIGBUS — no userspace check can fully close that race. The
// snapshot store therefore never rewrites a published generation file
// in place; new state is always a NEW file plus an atomic manifest
// rename (store/generation.h), so a mapping, once opened, is backed by
// an immutable file.
#ifndef TABBIN_STORE_MAPPED_FILE_H_
#define TABBIN_STORE_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace tabbin {

/// \brief A contiguous read-only view of bytes (no ownership).
struct ByteSpan {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool empty() const { return size == 0; }
};

/// \brief A whole file, mapped read-only (or heap-loaded on the
/// fallback path). Move-only; unmaps/frees on destruction.
class MappedFile {
 public:
  /// \brief Maps `path` read-only. Missing/unreadable files come back
  /// as IoError. Zero-byte files map successfully with an empty span.
  /// A file larger than `max_bytes` is OutOfRange before anything is
  /// mapped or allocated, on the mapped and the fallback path alike.
  static Result<MappedFile> Open(
      const std::string& path,
      uint64_t max_bytes = kDefaultMaxMappedBytes);

  /// \brief Advisory access-pattern hints, forwarded to madvise where
  /// available and ignored elsewhere. Never fails: hints are best
  /// effort by contract.
  enum class Advice { kNormal, kSequential, kRandom, kWillNeed };
  void Advise(Advice advice) const;

  ByteSpan bytes() const { return {data_, size_}; }
  size_t size() const { return size_; }
  /// \brief True when the bytes live in a real kernel mapping (false on
  /// the heap fallback). Observability only — the API contract is
  /// identical either way.
  bool is_mapped() const { return mapped_; }
  const std::string& path() const { return path_; }

  // 64 GiB: far above any snapshot this system writes, low enough to
  // reject nonsense sizes before the fallback path tries to heap them.
  static constexpr uint64_t kDefaultMaxMappedBytes = 64ull << 30;

  /// \brief An empty view (no file). What Open replaces; also lets
  /// holders (PagedSnapshotReader) default-construct before opening.
  MappedFile() = default;

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;            // true: munmap on destruction
  std::vector<uint8_t> fallback_;  // heap copy when !mapped_
  std::string path_;
};

/// \brief The system page size (granularity mmap hands out); 4096 on
/// the fallback path so layout decisions stay deterministic.
size_t StorePageSize();

}  // namespace tabbin

#endif  // TABBIN_STORE_MAPPED_FILE_H_
