// Generation directories — crash-safe publication for paged snapshots.
//
// A mapped snapshot must never be rewritten in place: live readers hold
// page mappings into it, and truncation under a mapping is a SIGBUS,
// not an error code (see store/mapped_file.h). So a serving corpus that
// is saved repeatedly lives in a *generation directory*:
//
//   corpus.store/
//     gen-000001.tbsn      immutable v2 snapshot files, one per Save
//     gen-000002.tbsn
//     MANIFEST             three text lines naming the current one
//
// MANIFEST:
//   tbsn-generation-manifest v1
//   gen-000002.tbsn
//   2
//
// Publishing generation N+1 writes gen-<N+1>.tbsn (temp + fsync +
// rename), then swings MANIFEST the same way — the rename is the
// commit point. A crash at any step leaves the previous generation
// intact and current; a reader that resolved the manifest a moment
// before the swing keeps serving its (still-existing, still-immutable)
// file. Old generation files are deliberately NOT deleted here: a
// sibling process may still be mapping them. Pruning is an operator
// decision (delete any gen-*.tbsn the manifest no longer names).
#ifndef TABBIN_STORE_GENERATION_H_
#define TABBIN_STORE_GENERATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace tabbin {

class PagedSnapshotWriter;

/// \brief True when `path` names an existing directory — how Save/Load
/// tell "single snapshot file" from "generation directory".
bool IsDirectory(const std::string& path);

struct GenerationManifest {
  uint64_t generation = 0;
  std::string file;  // relative to the directory
};

/// \brief Parses `dir`/MANIFEST. NotFound when there is no manifest
/// (a fresh directory), ParseError on malformed contents.
Result<GenerationManifest> ReadGenerationManifest(const std::string& dir);

/// \brief Resolves the current generation to a full snapshot path,
/// verifying the named file actually exists (a manifest pointing at a
/// missing generation is ParseError, not a later open failure — the
/// distinction the corrupt-store tests pin).
Result<std::string> ResolveGeneration(const std::string& dir);

/// \brief Publishes `bytes` as the next generation of `dir`: writes
/// gen-<N+1>.tbsn, then atomically swings MANIFEST to it. Returns the
/// new generation number. `dir` must already exist.
Result<uint64_t> PublishGeneration(const std::string& dir,
                                   const std::vector<uint8_t>& bytes);

/// \brief Maps a user-supplied path to the snapshot file to open: a
/// directory resolves through its MANIFEST, anything else is returned
/// as-is.
Result<std::string> ResolveSnapshotPath(const std::string& path);

/// \brief Writes an assembled snapshot to `path`: into an existing
/// directory as the next generation (MANIFEST swing), otherwise as a
/// single file via temp + fsync + atomic rename.
Status WriteStoreSnapshot(const std::string& path,
                          const PagedSnapshotWriter& w);

}  // namespace tabbin

#endif  // TABBIN_STORE_GENERATION_H_
