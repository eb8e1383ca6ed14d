#include "store/generation.h"

#include <cstdio>
#include <cstring>

#include "store/paged_snapshot.h"

#if defined(__unix__) || defined(__APPLE__)
#define TABBIN_STORE_HAVE_POSIX_IO 1
#include <sys/stat.h>
#else
#define TABBIN_STORE_HAVE_POSIX_IO 0
#endif

namespace tabbin {

namespace {

constexpr const char kManifestName[] = "MANIFEST";
constexpr const char kManifestHeader[] = "tbsn-generation-manifest v1";

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::fclose(f);
  return true;
}

std::string GenerationFileName(uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "gen-%06llu.tbsn",
                static_cast<unsigned long long>(gen));
  return buf;
}

// One text line, stripped of the trailing newline (CRLF tolerated).
bool ReadLine(std::FILE* f, std::string* out) {
  out->clear();
  int c;
  while ((c = std::fgetc(f)) != EOF && c != '\n') {
    out->push_back(static_cast<char>(c));
  }
  if (!out->empty() && out->back() == '\r') out->pop_back();
  return c != EOF || !out->empty();
}

}  // namespace

bool IsDirectory(const std::string& path) {
#if TABBIN_STORE_HAVE_POSIX_IO
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
#else
  // Portable approximation: directories cannot be fopen'd for reading
  // as regular files, but a path that holds a MANIFEST is one of ours.
  return FileExists(JoinPath(path, kManifestName));
#endif
}

Result<GenerationManifest> ReadGenerationManifest(const std::string& dir) {
  const std::string path = JoinPath(dir, kManifestName);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    return Status::NotFound("generation store: no MANIFEST in '" + dir + "'");
  }
  std::string header, file, gen_text;
  const bool ok = ReadLine(f, &header) && ReadLine(f, &file) &&
                  ReadLine(f, &gen_text);
  std::fclose(f);
  if (!ok || header != kManifestHeader) {
    return Status::ParseError("generation store: malformed MANIFEST in '" +
                              dir + "'");
  }
  // The named file must be a plain name inside the directory — a
  // manifest is data, and data must not redirect opens elsewhere.
  if (file.empty() || file.find('/') != std::string::npos ||
      file.find("..") != std::string::npos) {
    return Status::ParseError(
        "generation store: MANIFEST names an invalid file '" + file + "'");
  }
  GenerationManifest m;
  m.file = file;
  char* endp = nullptr;
  m.generation = std::strtoull(gen_text.c_str(), &endp, 10);
  if (gen_text.empty() || endp == nullptr || *endp != '\0') {
    return Status::ParseError(
        "generation store: MANIFEST generation number is not numeric");
  }
  return m;
}

Result<std::string> ResolveGeneration(const std::string& dir) {
  TABBIN_ASSIGN_OR_RETURN(GenerationManifest m, ReadGenerationManifest(dir));
  const std::string path = JoinPath(dir, m.file);
  if (!FileExists(path)) {
    return Status::ParseError("generation store: MANIFEST points at missing "
                              "generation file '" + m.file + "'");
  }
  return path;
}

Result<uint64_t> PublishGeneration(const std::string& dir,
                                   const std::vector<uint8_t>& bytes) {
  uint64_t next = 1;
  auto current = ReadGenerationManifest(dir);
  if (current.ok()) {
    next = current.value().generation + 1;
  } else if (current.status().code() != StatusCode::kNotFound) {
    // A corrupt manifest is surfaced, not clobbered: overwriting it
    // could orphan a generation some reader still expects to resolve.
    return current.status();
  }

  const std::string file = GenerationFileName(next);
  TABBIN_RETURN_IF_ERROR(AtomicWriteFile(JoinPath(dir, file), bytes));

  std::string manifest;
  manifest += kManifestHeader;
  manifest += '\n';
  manifest += file;
  manifest += '\n';
  manifest += std::to_string(next);
  manifest += '\n';
  std::vector<uint8_t> mbytes(manifest.begin(), manifest.end());
  TABBIN_RETURN_IF_ERROR(
      AtomicWriteFile(JoinPath(dir, kManifestName), mbytes));
  return next;
}

Result<std::string> ResolveSnapshotPath(const std::string& path) {
  if (!IsDirectory(path)) return path;
  return ResolveGeneration(path);
}

Status WriteStoreSnapshot(const std::string& path,
                          const PagedSnapshotWriter& w) {
  if (IsDirectory(path)) return PublishGeneration(path, w.Assemble()).status();
  return w.ToFile(path);
}

}  // namespace tabbin
