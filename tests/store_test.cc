// Paged snapshot store suite: container hardening, generation
// publication, and the mapped-serving contract.
//
// The load-bearing claims pinned here:
//   * a corrupt v2 file — truncated mid-page, flipped payload byte,
//     hostile offset/alignment chain, manifest naming a missing
//     generation, a shard count that disagrees with the section groups,
//     a table id live in two shards — always comes back as ParseError,
//     never a crash, SIGBUS, or out-of-bounds read (CI re-runs this
//     suite under ASan/UBSan, mapped and with TABBIN_STORE_NO_MMAP=1);
//   * a v1 stream file handed to any loader is ParseError (the v1 format
//     is gone), and so is a v2 model snapshot handed to a service loader;
//   * a service restored from a mapped v2 store answers every endpoint
//     byte-identically to the saved one — scores, ranks, captions, AND
//     `candidates` counts (tombstone bucket pollution is persisted);
//   * writes on a mapped service go to heap deltas and merge into the
//     next saved generation, which restores equivalently (delta-merge
//     round trip); Compact materializes the mapping away.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/corpus_gen.h"
#include "service/sharded_service.h"
#include "store/generation.h"
#include "store/mapped_file.h"
#include "store/paged_snapshot.h"

namespace tabbin {
namespace {

// --------------------------------------------------------------------------
// Container-level helpers
// --------------------------------------------------------------------------

uint64_t ReadU64At(const std::vector<uint8_t>& b, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + off, sizeof(v));
  return v;
}

void WriteU64At(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  std::memcpy(b->data() + off, &v, sizeof(v));
}

// Re-stamps the directory checksum after a deliberate header edit, so
// Open's failure exercises the *structural* validation, not the
// checksum (the checksum path gets its own test).
void FixDirectoryChecksum(std::vector<uint8_t>* b) {
  const uint64_t header = ReadU64At(*b, 16);
  ASSERT_LE(header, b->size());
  WriteU64At(b, header - 8, Fnv1a64(b->data(), header - 8));
}

// Byte offset of the FIRST section's `offset` field in the directory
// (header: magic u32, version u32, count u64, header-bytes u64, then
// per section: name string, offset, length, align, checksum).
size_t FirstSectionOffsetField(const std::vector<uint8_t>& b) {
  const uint64_t name_len = ReadU64At(b, 24);
  return 24 + 8 + static_cast<size_t>(name_len);
}

std::vector<uint8_t> SampleStoreBytes() {
  PagedSnapshotWriter w;
  BinaryWriter* meta = w.AddSection("meta");
  meta->WriteU64(7);
  meta->WriteString("hello");
  BinaryWriter* block = w.AddSection("block", kStoreBlockAlign);
  for (int i = 0; i < 2000; ++i) {
    block->WriteF32(static_cast<float>(i) * 0.5f);
  }
  BinaryWriter* tail = w.AddSection("tail");
  tail->WriteString("after the aligned block");
  return w.Assemble();
}

Result<PagedSnapshotReader> OpenBytes(const std::vector<uint8_t>& bytes,
                                      const std::string& name) {
  const std::string path = "/tmp/tabbin_store_" + name + ".tbsn";
  Status st = AtomicWriteFile(path, bytes);
  if (!st.ok()) return st;
  return PagedSnapshotReader::Open(path);
}

// Bytes of a retired v1 stream file: magic, version 1, section count,
// then per section its name, length and payload, and one trailing
// FNV-1a over everything before it. Hand-written, since no writer for
// the format is left.
std::vector<uint8_t> V1StreamBytes(
    const std::vector<std::pair<std::string, std::vector<uint8_t>>>&
        sections) {
  BinaryWriter w;
  // Corruption fixture: hand-writes the retired v1 container.
  // tabbin-lint: allow(naked-new-sections)
  w.WriteU32(kSnapshotMagic);
  w.WriteU32(1);
  w.WriteU64(sections.size());
  for (const auto& [name, payload] : sections) {
    w.WriteString(name);
    w.WriteU64(payload.size());
    w.WriteBytes(payload.data(), payload.size());
  }
  w.WriteU64(Fnv1a64(w.buffer().data(), w.buffer().size()));
  return std::move(w).TakeBuffer();
}

TEST(PagedSnapshotTest, RoundTripSectionsAlignmentAndChecksums) {
  auto reader = OpenBytes(SampleStoreBytes(), "roundtrip");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const PagedSnapshotReader& r = reader.value();

  ASSERT_EQ(r.sections().size(), 3u);
  EXPECT_TRUE(r.HasSection("meta"));
  EXPECT_TRUE(r.HasSection("block"));
  EXPECT_FALSE(r.HasSection("nope"));
  EXPECT_EQ(r.SectionSpan("nope").status().code(), StatusCode::kNotFound);

  // The bulk section landed on a page boundary; its neighbors are
  // packed (align 1).
  for (const auto& info : r.sections()) {
    if (info.name == "block") {
      EXPECT_EQ(info.align, kStoreBlockAlign);
      EXPECT_EQ(info.offset % kStoreBlockAlign, 0u);
      EXPECT_EQ(info.length, 2000u * sizeof(float));
    } else {
      EXPECT_EQ(info.align, 1u);
    }
  }

  // Unverified access leaves the verdict lazy; parsing access and
  // explicit validation settle it.
  EXPECT_STREQ(r.ChecksumState("block"), "unchecked");
  auto span = r.SectionSpanUnverified("block");
  ASSERT_TRUE(span.ok());
  EXPECT_STREQ(r.ChecksumState("block"), "unchecked");
  float first = 0;
  std::memcpy(&first, span.value().data, sizeof(first));
  EXPECT_EQ(first, 0.0f);

  auto meta = r.Section("meta");
  ASSERT_TRUE(meta.ok());
  EXPECT_STREQ(r.ChecksumState("meta"), "ok");
  ASSERT_TRUE(meta.value().ReadU64().ok());
  auto s = meta.value().ReadString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), "hello");

  EXPECT_TRUE(r.ValidateAll().ok());
  EXPECT_STREQ(r.ChecksumState("block"), "ok");
  EXPECT_STREQ(r.ChecksumState("tail"), "ok");
}

TEST(PagedSnapshotTest, AddSectionResumesAnExistingSection) {
  PagedSnapshotWriter w;
  w.AddSection("alpha")->WriteString("first");
  w.AddSection("beta")->WriteU64(42);
  w.AddSection("alpha", kStoreBlockAlign)->WriteString("second");
  auto reader = OpenBytes(w.Assemble(), "resume");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const PagedSnapshotReader& r = reader.value();
  ASSERT_EQ(r.SectionNames(), (std::vector<std::string>{"alpha", "beta"}));
  // The alignment recorded on the first add stands.
  EXPECT_EQ(r.sections()[0].align, 1u);
  auto alpha = r.Section("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha.value().ReadString().value(), "first");
  EXPECT_EQ(alpha.value().ReadString().value(), "second");
  EXPECT_TRUE(alpha.value().AtEnd());
  auto beta = r.Section("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta.value().ReadU64().value(), 42u);
}

TEST(PagedSnapshotCorruptionTest, TruncationNeverCrashes) {
  const std::vector<uint8_t> bytes = SampleStoreBytes();
  // Every prefix class: inside the fixed header, inside the directory,
  // inside the alignment padding, and mid-way through the page-aligned
  // payload ("mid-page").
  const uint64_t header = ReadU64At(bytes, 16);
  for (size_t cut : {size_t{6}, size_t{20}, static_cast<size_t>(header) - 3,
                     static_cast<size_t>(header) + 100,
                     bytes.size() - bytes.size() / 3, bytes.size() - 1}) {
    ASSERT_LT(cut, bytes.size());
    std::vector<uint8_t> t(bytes.begin(),
                           bytes.begin() + static_cast<long>(cut));
    auto r = OpenBytes(t, "trunc");
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << "cut at " << cut;
  }
}

TEST(PagedSnapshotCorruptionTest, EmptyFileIsParseError) {
  auto r = OpenBytes({}, "empty");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError)
      << r.status().ToString();
}

TEST(PagedSnapshotCorruptionTest, BadMagicIsParseError) {
  std::vector<uint8_t> bytes = SampleStoreBytes();
  bytes[0] ^= 0xFF;
  // Re-stamp the directory checksum so only the magic is wrong.
  FixDirectoryChecksum(&bytes);
  auto r = OpenBytes(bytes, "bad_magic");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos)
      << r.status().ToString();
}

TEST(PagedSnapshotCorruptionTest, FutureVersionIsParseError) {
  std::vector<uint8_t> bytes = SampleStoreBytes();
  const uint32_t future = kPagedSnapshotVersion + 7;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  FixDirectoryChecksum(&bytes);
  auto r = OpenBytes(bytes, "future_version");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("version"), std::string::npos)
      << r.status().ToString();
}

TEST(PagedSnapshotCorruptionTest, V1StreamIsParseErrorWithRebuildHint) {
  auto r = OpenBytes(V1StreamBytes({{"a", {1, 2, 3}}}), "v1_stream");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("rebuild"), std::string::npos)
      << r.status().ToString();
}

// `count` empty sections named "s<i>"; with `dup`, the last one reuses
// the first one's name (same length, so the writer's layout holds and
// only the name bytes change before the checksum is re-stamped).
std::vector<uint8_t> ManyEmptySections(size_t count, bool dup) {
  PagedSnapshotWriter w;
  for (size_t i = 0; i < count; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "s%07zu", i);
    w.AddSection(name);
  }
  std::vector<uint8_t> bytes = w.Assemble();
  if (dup) {
    const std::string first = "s0000000";
    char last[32];
    std::snprintf(last, sizeof(last), "s%07zu", count - 1);
    const auto at = std::search(bytes.begin(), bytes.end(), last, last + 8);
    EXPECT_NE(at, bytes.end());
    std::copy(first.begin(), first.end(), at);
    FixDirectoryChecksum(&bytes);
  }
  return bytes;
}

TEST(PagedSnapshotCorruptionTest, DuplicateSectionNameIsParseError) {
  for (size_t count : {size_t{2}, size_t{1000}}) {
    auto r = OpenBytes(ManyEmptySections(count, /*dup=*/true), "dup");
    ASSERT_FALSE(r.ok()) << count;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find("duplicate section 's0000000'"),
              std::string::npos)
        << r.status().ToString();
  }
}

// Duplicate detection must stay near-linear in the section count, or a
// forged directory near kMaxStoreSections stalls a loader for minutes.
TEST(PagedSnapshotCorruptionTest, ManySectionsOpenInLinearithmicTime) {
  constexpr size_t kCount = 131072;
  const std::vector<uint8_t> bytes = ManyEmptySections(kCount, false);
  const auto start = std::chrono::steady_clock::now();
  auto r = OpenBytes(bytes, "many_sections");
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LT(secs, 2.0);
  EXPECT_EQ(r.value().sections().size(), kCount);
  EXPECT_TRUE(r.value().HasSection("s0131071"));
  EXPECT_TRUE(r.value().Section("s0131071").ok());
  EXPECT_FALSE(r.value().HasSection("s0131072"));
}

TEST(PagedSnapshotCorruptionTest, FlippedDirectoryByteIsParseError) {
  std::vector<uint8_t> bytes = SampleStoreBytes();
  bytes[25] ^= 0xFF;  // first section's name length
  auto r = OpenBytes(bytes, "dirflip");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(PagedSnapshotCorruptionTest, HostileOffsetChainIsParseError) {
  std::vector<uint8_t> bytes = SampleStoreBytes();
  const size_t off_field = FirstSectionOffsetField(bytes);
  // Point the first section 8 bytes past where the AlignUp chain says
  // it must live, with a VALID directory checksum — only the chain
  // validation can catch this.
  WriteU64At(&bytes, off_field, ReadU64At(bytes, off_field) + 8);
  FixDirectoryChecksum(&bytes);
  auto r = OpenBytes(bytes, "hostile_offset");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// A length near UINT64_MAX must fail the bounds check before any
// offset arithmetic can wrap.
TEST(PagedSnapshotCorruptionTest, OverflowingSectionLengthIsParseError) {
  for (uint64_t length : {UINT64_MAX - 3, uint64_t{1} << 40}) {
    std::vector<uint8_t> bytes = SampleStoreBytes();
    const size_t length_field = FirstSectionOffsetField(bytes) + 8;
    WriteU64At(&bytes, length_field, length);
    FixDirectoryChecksum(&bytes);
    auto r = OpenBytes(bytes, "hostile_length");
    ASSERT_FALSE(r.ok()) << "length " << length;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

TEST(PagedSnapshotCorruptionTest, HostileAlignmentIsParseError) {
  for (uint64_t align : {uint64_t{3}, kMaxStoreAlign * 2}) {
    std::vector<uint8_t> bytes = SampleStoreBytes();
    const size_t align_field = FirstSectionOffsetField(bytes) + 16;
    WriteU64At(&bytes, align_field, align);
    FixDirectoryChecksum(&bytes);
    auto r = OpenBytes(bytes, "hostile_align");
    ASSERT_FALSE(r.ok()) << "align " << align;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

TEST(PagedSnapshotCorruptionTest, FlippedPayloadByteIsLazyParseError) {
  std::vector<uint8_t> bytes = SampleStoreBytes();
  bytes[bytes.size() / 2] ^= 0x01;  // lands inside the big aligned block
  auto reader = OpenBytes(bytes, "payload_flip");
  // Open validates only the directory, so it succeeds...
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const PagedSnapshotReader& r = reader.value();
  // ...unverified bulk access still works (zero-copy serving path)...
  EXPECT_TRUE(r.SectionSpanUnverified("block").ok());
  // ...and integrity checks report the corruption without crashing.
  EXPECT_EQ(r.ValidateSection("block").code(), StatusCode::kParseError);
  EXPECT_STREQ(r.ChecksumState("block"), "BAD");
  EXPECT_EQ(r.SectionSpan("block").status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.ValidateAll().code(), StatusCode::kParseError);
  EXPECT_TRUE(r.ValidateSection("meta").ok());
}

TEST(PagedSnapshotTest, NoMmapFallbackServesIdenticalBytes) {
  const std::vector<uint8_t> bytes = SampleStoreBytes();
  ASSERT_TRUE(
      AtomicWriteFile("/tmp/tabbin_store_fallback.tbsn", bytes).ok());
  setenv("TABBIN_STORE_NO_MMAP", "1", 1);
  auto heap = PagedSnapshotReader::Open("/tmp/tabbin_store_fallback.tbsn");
  unsetenv("TABBIN_STORE_NO_MMAP");
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_FALSE(heap.value().is_mapped());
  EXPECT_TRUE(heap.value().ValidateAll().ok());

  auto mapped = PagedSnapshotReader::Open("/tmp/tabbin_store_fallback.tbsn");
  ASSERT_TRUE(mapped.ok());
  auto a = heap.value().SectionSpan("block");
  auto b = mapped.value().SectionSpan("block");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().size, b.value().size);
  EXPECT_EQ(std::memcmp(a.value().data, b.value().data, a.value().size), 0);
}

// --------------------------------------------------------------------------
// Generation directories
// --------------------------------------------------------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = "/tmp/tabbin_store_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(GenerationTest, PublishResolveAndKeepOldGenerations) {
  const std::string dir = FreshDir("gen_roundtrip");
  EXPECT_EQ(ReadGenerationManifest(dir).status().code(),
            StatusCode::kNotFound);

  auto g1 = PublishGeneration(dir, SampleStoreBytes());
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  EXPECT_EQ(g1.value(), 1u);
  auto g2 = PublishGeneration(dir, SampleStoreBytes());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2.value(), 2u);

  auto manifest = ReadGenerationManifest(dir);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().generation, 2u);

  auto current = ResolveGeneration(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(PagedSnapshotReader::Open(current.value()).ok());
  // Publication never deletes the previous generation (live readers
  // may still be mapping it).
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(dir) / "gen-000001.tbsn"));

  // ResolveSnapshotPath: directory goes through the manifest, a plain
  // file passes through.
  auto resolved = ResolveSnapshotPath(dir);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), current.value());
  auto passthrough = ResolveSnapshotPath(current.value());
  ASSERT_TRUE(passthrough.ok());
  EXPECT_EQ(passthrough.value(), current.value());
}

TEST(GenerationTest, ManifestNamingMissingGenerationIsParseError) {
  const std::string dir = FreshDir("gen_missing");
  ASSERT_TRUE(PublishGeneration(dir, SampleStoreBytes()).ok());
  auto current = ResolveGeneration(dir);
  ASSERT_TRUE(current.ok());
  std::filesystem::remove(current.value());
  auto gone = ResolveGeneration(dir);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kParseError);
}

// --------------------------------------------------------------------------
// Mapped serving: byte-identity, delta merge, re-partitioning
// --------------------------------------------------------------------------

TabBiNConfig TinyConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 24;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 48;
  cfg.max_seq_len = 96;
  return cfg;
}

const LabeledCorpus& SharedCorpus() {
  static const LabeledCorpus* corpus = [] {
    GeneratorOptions gen;
    gen.num_tables = 16;
    gen.seed = 23;
    return new LabeledCorpus(GenerateDataset("cancerkg", gen));
  }();
  return *corpus;
}

std::shared_ptr<TabBiNSystem> SharedSystem() {
  static std::shared_ptr<TabBiNSystem> sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(SharedCorpus().corpus.tables, TinyConfig()));
  return sys;
}

void ExpectSameMatches(const std::vector<ServiceMatch>& a,
                       const std::vector<ServiceMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
    EXPECT_EQ(a[i].caption, b[i].caption) << "rank " << i;
    EXPECT_EQ(a[i].col, b[i].col) << "rank " << i;
    EXPECT_EQ(a[i].row, b[i].row) << "rank " << i;
    EXPECT_EQ(a[i].entity, b[i].entity) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;  // bitwise
  }
}

// Byte-identity across every endpoint, INCLUDING the LSH `candidates`
// counts — the strictest equivalence this repo states: it only holds
// when the restore preserves tombstone bucket pollution exactly, which
// is what the v2 store's verbatim slot persistence is for.
void ExpectIdenticalService(const TabBinServing& ref,
                            const TabBinServing& svc) {
  ASSERT_EQ(ref.NumLiveTables(), svc.NumLiveTables());
  EXPECT_EQ(ref.NumIndexedColumns(), svc.NumIndexedColumns());
  EXPECT_EQ(ref.NumIndexedEntities(), svc.NumIndexedEntities());
  EXPECT_EQ(ref.LiveTableIds(), svc.LiveTableIds());
  for (const std::string& id : ref.LiveTableIds()) {
    SCOPED_TRACE("table " + id);
    auto rt = ref.SimilarTables({id, nullptr, 10});
    auto st = svc.SimilarTables({id, nullptr, 10});
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    EXPECT_EQ(rt.value().candidates, st.value().candidates);
    ExpectSameMatches(rt.value().matches, st.value().matches);
    auto rc = ref.SimilarColumns({id, nullptr, 0, 10});
    auto sc = svc.SimilarColumns({id, nullptr, 0, 10});
    ASSERT_TRUE(rc.ok() && sc.ok());
    EXPECT_EQ(rc.value().candidates, sc.value().candidates);
    ExpectSameMatches(rc.value().matches, sc.value().matches);
  }
  for (const std::string& q :
       {std::string("overall survival months"), std::string("tumor")}) {
    SCOPED_TRACE("ask: " + q);
    auto ra = ref.Ask({q, 5});
    auto sa = svc.Ask({q, 5});
    ASSERT_TRUE(ra.ok() && sa.ok());
    EXPECT_EQ(ra.value().answer, sa.value().answer);
    ExpectSameMatches(ra.value().tables, sa.value().tables);
  }
  // Entity endpoint over a few labeled probes.
  int probes = 0;
  for (const auto& q : SharedCorpus().entities) {
    if (probes >= 3) break;
    const Table& t =
        SharedCorpus().corpus.tables[static_cast<size_t>(q.table_index)];
    auto re = ref.SimilarEntities({t.id(), nullptr, q.row, q.col, 8});
    if (!re.ok()) continue;  // probe table may be tombstoned
    ++probes;
    SCOPED_TRACE("entity probe " + t.id());
    auto se = svc.SimilarEntities({t.id(), nullptr, q.row, q.col, 8});
    ASSERT_TRUE(se.ok()) << se.status().ToString();
    EXPECT_EQ(re.value().candidates, se.value().candidates);
    ExpectSameMatches(re.value().matches, se.value().matches);
  }
}

// Sets TABBIN_STORE_NO_MMAP=1 for its lifetime and restores the prior
// value after (CI runs the whole suite with it already set).
class ScopedNoMmap {
 public:
  ScopedNoMmap() {
    const char* prev = std::getenv("TABBIN_STORE_NO_MMAP");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("TABBIN_STORE_NO_MMAP", "1", 1);
  }
  ~ScopedNoMmap() {
    if (had_prev_) {
      setenv("TABBIN_STORE_NO_MMAP", prev_.c_str(), 1);
    } else {
      unsetenv("TABBIN_STORE_NO_MMAP");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

// The size cap is the first check MappedFile::Open makes, before any
// mapping or allocation, on both the mapped and the heap-fallback path.
TEST(MappedFileTest, OpenRejectsFilesOverTheCap) {
  const std::string path = "/tmp/tabbin_store_cap.bin";
  ASSERT_TRUE(AtomicWriteFile(path, std::vector<uint8_t>(100, 0x42)).ok());
  for (bool no_mmap : {false, true}) {
    SCOPED_TRACE(no_mmap ? "heap fallback" : "default");
    std::unique_ptr<ScopedNoMmap> env;
    if (no_mmap) env = std::make_unique<ScopedNoMmap>();
    auto capped = MappedFile::Open(path, 10);
    ASSERT_FALSE(capped.ok());
    EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange);
    auto fits = MappedFile::Open(path, 100);
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits.value().size(), 100u);
    EXPECT_EQ(fits.value().bytes().data[99], 0x42);
    if (no_mmap) {
      EXPECT_FALSE(fits.value().is_mapped());
    }
  }
  std::remove(path.c_str());
}

TEST(StoreServingTest, MappedV2AnswersIdenticalToHeapV2) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService svc(SharedSystem());
  ASSERT_TRUE(svc.AddTables(tables).ok());
  // A tombstone, so candidates equality actually tests the verbatim
  // slot persistence.
  ASSERT_TRUE(svc.RemoveTable(tables[2].id()).ok());

  const std::string v2 = "/tmp/tabbin_store_svc_v2.tbsn";
  ASSERT_TRUE(svc.Save(v2).ok());

  // The heap open reads the whole file and serves the same spans the
  // mapping would (MmapDisabledByEnv is consulted on every open).
  auto heap = [&v2] {
    ScopedNoMmap no_mmap;
    return TabBinService::Load(v2);
  }();
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ExpectIdenticalService(svc, *heap.value());

  auto mapped = TabBinService::Load(v2);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value()->IsMapped());
  ExpectIdenticalService(svc, *mapped.value());
  ExpectIdenticalService(*heap.value(), *mapped.value());

  // The core loader reads the same store's model sections.
  auto system_load = TabBiNSystem::Load(v2);
  ASSERT_TRUE(system_load.ok()) << system_load.status().ToString();
}

TEST(StoreServingTest, DeltaMergeCompactAndGenerationRoundTrip) {
  const auto& tables = SharedCorpus().corpus.tables;
  const std::vector<Table> base(tables.begin(), tables.end() - 4);
  const std::vector<Table> delta(tables.end() - 4, tables.end());

  // Reference service never touches the store.
  TabBinService ref(SharedSystem());
  ASSERT_TRUE(ref.AddTables(base).ok());

  const std::string dir = FreshDir("gen_service");
  {
    TabBinService writer(SharedSystem());
    ASSERT_TRUE(writer.AddTables(base).ok());
    ASSERT_TRUE(writer.Save(dir).ok());
  }

  auto mapped = TabBinService::Load(dir);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  TabBinService& svc = *mapped.value();
  EXPECT_TRUE(svc.IsMapped());
  ExpectIdenticalService(ref, svc);

  // Deltas on a mapped service: inserts go to heap rows, a removal
  // tombstones a mapped slot — the mapping itself never changes.
  ASSERT_TRUE(ref.AddTables(delta).ok());
  ASSERT_TRUE(svc.AddTables(delta).ok());
  ASSERT_TRUE(ref.RemoveTable(base[1].id()).ok());
  ASSERT_TRUE(svc.RemoveTable(base[1].id()).ok());
  EXPECT_TRUE(svc.IsMapped());
  ExpectIdenticalService(ref, svc);

  // Saving the delta'd service publishes generation 2; a fresh load of
  // the directory restores the merged state.
  ASSERT_TRUE(svc.Save(dir).ok());
  auto manifest = ReadGenerationManifest(dir);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().generation, 2u);
  auto merged = TabBinService::Load(dir);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged.value()->IsMapped());
  ExpectIdenticalService(ref, *merged.value());
  ExpectIdenticalService(svc, *merged.value());

  // Compact materializes the mapping away; answers stay identical to a
  // compacted reference.
  ASSERT_TRUE(ref.Compact().ok());
  ASSERT_TRUE(svc.Compact().ok());
  EXPECT_FALSE(svc.IsMapped());
  ExpectIdenticalService(ref, svc);
}

TEST(StoreServingTest, ShardedStoreRoundTripAndRepartition) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService svc(SharedSystem(), {}, 3);
  ASSERT_TRUE(svc.AddTables(tables).ok());
  ASSERT_TRUE(svc.RemoveTable(tables[5].id()).ok());

  const std::string path = "/tmp/tabbin_store_sharded.tbsn";
  ASSERT_TRUE(svc.Save(path).ok());

  // Saved-count restore is the byte-identical mapped path.
  auto same = TabBinService::Load(path);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(same.value()->num_shards(), 3);
  EXPECT_TRUE(same.value()->IsMapped());
  ExpectIdenticalService(svc, *same.value());

  // A different target count re-partitions (heap-backed): ranked
  // answers still match, though candidates may not (tombstone
  // pollution is not re-created).
  auto repart = TabBinService::Load(path, 2);
  ASSERT_TRUE(repart.ok()) << repart.status().ToString();
  EXPECT_EQ(repart.value()->num_shards(), 2);
  EXPECT_FALSE(repart.value()->IsMapped());
  EXPECT_EQ(svc.LiveTableIds(), repart.value()->LiveTableIds());
  for (const std::string& id : svc.LiveTableIds()) {
    SCOPED_TRACE("table " + id);
    auto a = svc.SimilarTables({id, nullptr, 10});
    auto b = repart.value()->SimilarTables({id, nullptr, 10});
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameMatches(a.value().matches, b.value().matches);
  }
}

TEST(StoreServingTest, LoadServingDispatchesEveryFormat) {
  const auto& tables = SharedCorpus().corpus.tables;

  TabBinService single(SharedSystem());
  ASSERT_TRUE(single.AddTables(tables).ok());
  const std::string single_v2 = "/tmp/tabbin_store_serving_single.tbsn";
  ASSERT_TRUE(single.Save(single_v2).ok());

  TabBinService sharded(SharedSystem(), {}, 2);
  ASSERT_TRUE(sharded.AddTables(tables).ok());
  const std::string sharded_v2 = "/tmp/tabbin_store_serving_sharded.tbsn";
  ASSERT_TRUE(sharded.Save(sharded_v2).ok());

  auto served_single = LoadServing(single_v2);
  ASSERT_TRUE(served_single.ok()) << served_single.status().ToString();
  ExpectIdenticalService(single, *served_single.value());
  auto served_sharded = LoadServing(sharded_v2);
  ASSERT_TRUE(served_sharded.ok()) << served_sharded.status().ToString();
  ExpectIdenticalService(sharded, *served_sharded.value());
  // Override re-partitions a 1-shard store through the same path.
  auto fanned = LoadServing(single_v2, 2);
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  EXPECT_EQ(fanned.value()->NumLiveTables(), single.NumLiveTables());
}

TEST(StoreServingTest, CorruptServiceStoreSurfacesAsParseError) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService svc(SharedSystem());
  ASSERT_TRUE(svc.AddTables(tables).ok());
  PagedSnapshotWriter w;
  svc.AppendStore(&w);
  const std::vector<uint8_t> good = w.Assemble();

  // Flip one byte in every section in turn: wherever it lands —
  // directory, metadata, JSON blob, embedding block — the load either
  // fails ParseError or (for unverified bulk bytes) still yields a
  // structurally valid service; it never crashes.
  std::vector<size_t> probes;
  for (size_t off = 32; off < good.size();
       off += std::max<size_t>(1, good.size() / 37)) {
    probes.push_back(off);
  }
  for (size_t off : probes) {
    std::vector<uint8_t> bad = good;
    bad[off] ^= 0x20;
    const std::string path = "/tmp/tabbin_store_corrupt_svc.tbsn";
    ASSERT_TRUE(AtomicWriteFile(path, bad).ok());
    auto loaded = TabBinService::Load(path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
          << "flip at " << off << ": " << loaded.status().ToString();
    }
  }
}

// The v1 formats are gone: a v1 stream — a single-service "service.*"
// file, a "sharded.manifest" file, or a model snapshot — handed to
// either service loader is ParseError, not a crash and not a silent
// fall-through to some other reader.
TEST(StoreServingTest, V1ServiceStreamIsRejected) {
  // The model sections of a v1 model snapshot carry the same bytes as
  // today's; only the framing differs.
  PagedSnapshotWriter model;
  SharedSystem()->AppendTo(&model);
  auto model_reader = OpenBytes(model.Assemble(), "v1_model_source");
  ASSERT_TRUE(model_reader.ok()) << model_reader.status().ToString();
  std::vector<std::pair<std::string, std::vector<uint8_t>>> model_sections;
  for (const std::string& name : model_reader.value().SectionNames()) {
    auto span = model_reader.value().SectionSpan(name);
    ASSERT_TRUE(span.ok());
    model_sections.emplace_back(
        name, std::vector<uint8_t>(span.value().data,
                                   span.value().data + span.value().size));
  }
  for (const char* corpus_section : {"service.tables", "sharded.manifest",
                                     static_cast<const char*>(nullptr)}) {
    SCOPED_TRACE(corpus_section ? corpus_section : "model snapshot");
    auto sections = model_sections;
    if (corpus_section != nullptr) {
      sections.emplace_back(corpus_section, std::vector<uint8_t>(8, 0));
    }
    const std::string path = "/tmp/tabbin_store_v1_service.tbsn";
    ASSERT_TRUE(AtomicWriteFile(path, V1StreamBytes(sections)).ok());
    auto loaded = TabBinService::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status().ToString();
    auto serving = LoadServing(path, 3);
    ASSERT_FALSE(serving.ok());
    EXPECT_EQ(serving.status().code(), StatusCode::kParseError)
        << serving.status().ToString();
  }
}

// A v2 model snapshot (`tabbin_cli save-model`, TabBiNSystem::Save)
// holds the model sections but no "store.meta": the service loaders
// name it instead of reporting a missing section.
TEST(StoreServingTest, ModelSnapshotIsNotAServiceStore) {
  const std::string path = "/tmp/tabbin_store_model_only.tbsn";
  ASSERT_TRUE(SharedSystem()->Save(path).ok());
  ASSERT_TRUE(TabBiNSystem::Load(path).ok());
  for (int shards : {0, 3}) {
    auto loaded = TabBinService::Load(path, shards);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(
                  "model snapshot, not a service store"),
              std::string::npos)
        << loaded.status().ToString();
    auto serving = LoadServing(path, shards);
    ASSERT_FALSE(serving.ok());
    EXPECT_EQ(serving.status().code(), StatusCode::kParseError);
  }
}

// --------------------------------------------------------------------------
// Cross-shard store validation
// --------------------------------------------------------------------------
// Each case copies a valid store's sections, breaks one cross-shard
// invariant, re-assembles a structurally valid container, and requires
// ParseError from the service loader (CI runs these under ASan/UBSan).

struct StoreSection {
  std::string name;
  uint64_t align = 1;
  std::vector<uint8_t> bytes;
};
using StoreSections = std::vector<StoreSection>;

StoreSections ReadStoreSections(const std::vector<uint8_t>& store,
                                const std::string& tag) {
  auto reader = OpenBytes(store, tag);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  StoreSections out;
  if (!reader.ok()) return out;
  for (const auto& info : reader.value().sections()) {
    auto span = reader.value().SectionSpan(info.name);
    EXPECT_TRUE(span.ok()) << info.name;
    if (!span.ok()) continue;
    out.push_back({info.name, info.align,
                   std::vector<uint8_t>(span.value().data,
                                        span.value().data + span.value().size)});
  }
  return out;
}

std::vector<uint8_t> AssembleStore(const StoreSections& sections) {
  PagedSnapshotWriter w;
  for (const StoreSection& sec : sections) {
    w.AddSection(sec.name, sec.align)
        ->WriteBytes(sec.bytes.data(), sec.bytes.size());
  }
  return w.Assemble();
}

std::vector<uint8_t> StoreMetaBytes(uint32_t flag_word, uint32_t shards) {
  BinaryWriter w;
  w.WriteU32(1);  // store.meta version
  w.WriteU32(flag_word);
  w.WriteU32(shards);
  return std::move(w).TakeBuffer();
}

bool InGroup(const StoreSection& sec, uint32_t shard) {
  return sec.name.rfind(StoreShardPrefix(shard), 0) == 0;
}

void SetStoreMeta(StoreSections* sections, std::vector<uint8_t> bytes) {
  for (StoreSection& sec : *sections) {
    if (sec.name == "store.meta") sec.bytes = std::move(bytes);
  }
}

// Appends a copy of group `from`, renamed into group `to`.
StoreSections CopyGroup(const StoreSections& sections, uint32_t from,
                        uint32_t to) {
  StoreSections out = sections;
  const std::string src = StoreShardPrefix(from);
  for (const StoreSection& sec : sections) {
    if (!InGroup(sec, from)) continue;
    out.push_back({StoreShardPrefix(to) + sec.name.substr(src.size()),
                   sec.align, sec.bytes});
  }
  return out;
}

StoreSections DropGroup(const StoreSections& sections, uint32_t shard) {
  StoreSections out;
  for (const StoreSection& sec : sections) {
    if (!InGroup(sec, shard)) out.push_back(sec);
  }
  return out;
}

Result<std::unique_ptr<TabBinService>> LoadStoreBytes(
    const std::vector<uint8_t>& bytes) {
  const std::string path = "/tmp/tabbin_store_xshard.tbsn";
  TABBIN_RETURN_IF_ERROR(AtomicWriteFile(path, bytes));
  return TabBinService::Load(path);
}

class ShardedStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TabBinService svc(SharedSystem(), {}, 2);
    ASSERT_TRUE(svc.AddTables(SharedCorpus().corpus.tables).ok());
    ASSERT_GT(svc.ShardLiveCount(0), 0u);
    ASSERT_GT(svc.ShardLiveCount(1), 0u);
    live_ = svc.NumLiveTables();
    PagedSnapshotWriter w;
    svc.AppendStore(&w);
    sections_ = ReadStoreSections(w.Assemble(), "xshard_src");
    ASSERT_FALSE(sections_.empty());
  }

  void ExpectParseError(const StoreSections& sections,
                        const std::string& what) {
    auto loaded = LoadStoreBytes(AssembleStore(sections));
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << what << ": " << loaded.status().ToString();
  }

  size_t live_ = 0;
  StoreSections sections_;
};

TEST_F(ShardedStoreCorruptionTest, ReassembledStoreLoads) {
  auto loaded = LoadStoreBytes(AssembleStore(sections_));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_shards(), 2);
  EXPECT_EQ(loaded.value()->NumLiveTables(), live_);
}

TEST_F(ShardedStoreCorruptionTest, DuplicateTableIdAcrossGroupsRejected) {
  // Group 1 replaced by a copy of group 0: every id in shard 0 is now
  // live in two shards.
  ExpectParseError(CopyGroup(DropGroup(sections_, 1), 0, 1),
                   "duplicate table id across groups");
}

TEST_F(ShardedStoreCorruptionTest, ExtraGroupBeyondMetaCountRejected) {
  ExpectParseError(CopyGroup(sections_, 0, 2), "group s2 with meta count 2");
  auto undercount = sections_;
  SetStoreMeta(&undercount, StoreMetaBytes(1, 1));
  ExpectParseError(undercount, "meta count 1 with two groups");
}

TEST_F(ShardedStoreCorruptionTest, MissingGroupRejected) {
  ExpectParseError(DropGroup(sections_, 1), "group s1 missing");
  ExpectParseError(DropGroup(sections_, 0), "group s0 missing");
  auto overcount = sections_;
  SetStoreMeta(&overcount, StoreMetaBytes(1, 3));
  ExpectParseError(overcount, "meta count 3 with two groups");
}

TEST_F(ShardedStoreCorruptionTest, MetaShardCountOutOfRangeRejected) {
  for (uint32_t shards : {0u, static_cast<uint32_t>(kMaxShards) + 1}) {
    auto corrupt = sections_;
    SetStoreMeta(&corrupt, StoreMetaBytes(1, shards));
    ExpectParseError(corrupt, "meta shard count " + std::to_string(shards));
  }
}

TEST_F(ShardedStoreCorruptionTest, TruncatedStoreMetaRejected) {
  const std::vector<uint8_t> meta = StoreMetaBytes(1, 2);
  for (size_t cut : {size_t{0}, size_t{3}, size_t{4}, size_t{8},
                     meta.size() - 1}) {
    auto corrupt = sections_;
    SetStoreMeta(&corrupt, std::vector<uint8_t>(
                               meta.begin(),
                               meta.begin() + static_cast<long>(cut)));
    ExpectParseError(corrupt, "store.meta cut to " + std::to_string(cut));
  }
}

// LSH bucket ids index each query's bitmap, so one id past the index's
// row count in a shard's lsh section must fail the load as ParseError
// instead of reaching a query.
TEST_F(ShardedStoreCorruptionTest, LshBucketIdOutOfRangeRejected) {
  auto corrupt = sections_;
  bool patched = false;
  for (StoreSection& sec : corrupt) {
    if (sec.name != StoreShardPrefix(0) + "lsh") continue;
    // The first index in the section is the table index: geometry
    // (dim, bits, tables, count), the hyperplane block, then table 0's
    // bucket count, and its first bucket's key, size and ids.
    BinaryReader r(sec.bytes);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(r.ReadI32().ok());
    const int32_t count = r.ReadI32().value();
    ASSERT_TRUE(EmbeddingMatrix::Deserialize(&r).ok());
    const size_t table0 = sec.bytes.size() - r.remaining();
    ASSERT_GT(r.ReadU64().value(), 0u);  // buckets
    ASSERT_TRUE(r.ReadU64().ok());       // key
    ASSERT_GT(r.ReadU64().value(), 0u);  // ids in the bucket
    std::memcpy(sec.bytes.data() + table0 + 24, &count, sizeof(count));
    patched = true;
  }
  ASSERT_TRUE(patched);
  const std::string path = "/tmp/tabbin_store_lsh_id.tbsn";
  ASSERT_TRUE(AtomicWriteFile(path, AssembleStore(corrupt)).ok());
  auto serving = LoadServing(path);
  ASSERT_FALSE(serving.ok());
  EXPECT_EQ(serving.status().code(), StatusCode::kParseError)
      << serving.status().ToString();
  EXPECT_NE(serving.status().message().find("LshIndex: bucket id"),
            std::string::npos)
      << serving.status().ToString();
  ExpectParseError(corrupt, "lsh bucket id == count");
}

// Byte offsets inside shard 0's meta section, found by walking its
// layout: per slot (id, live, caption, grid rows/cols, tbl_row,
// col_begin, col_end, ent_begin, ent_end, json off/len, live doc terms),
// then the column refs as (slot, col) pairs.
struct ShardMetaLayout {
  size_t slots = 0;
  size_t slot0_tbl_row = 0;   // offset of slot 0's tbl_row
  int slot0_col_begin = -1;   // slot 0's first column row
  size_t col_refs = 0;        // offset of column ref 0
};

ShardMetaLayout WalkShardMeta(const std::vector<uint8_t>& bytes) {
  ShardMetaLayout out;
  BinaryReader r(bytes);
  const auto at = [&] { return bytes.size() - r.remaining(); };
  out.slots = r.ReadU64().value();
  for (size_t i = 0; i < out.slots; ++i) {
    EXPECT_TRUE(r.ReadString().ok());
    const int32_t live = r.ReadI32().value();
    EXPECT_TRUE(r.ReadString().ok());
    EXPECT_TRUE(r.ReadI32().ok() && r.ReadI32().ok());
    if (i == 0) out.slot0_tbl_row = at();
    EXPECT_TRUE(r.ReadI32().ok());
    const int32_t col_begin = r.ReadI32().value();
    if (i == 0) out.slot0_col_begin = col_begin;
    for (int f = 0; f < 3; ++f) EXPECT_TRUE(r.ReadI32().ok());
    EXPECT_TRUE(r.ReadU64().ok() && r.ReadU64().ok());
    if (live != 0) {
      const uint64_t terms = r.ReadU64().value();
      for (uint64_t t = 0; t < terms; ++t) {
        EXPECT_TRUE(r.ReadString().ok() && r.ReadI32().ok());
      }
    }
  }
  EXPECT_TRUE(r.ReadU64().ok());  // column ref count
  out.col_refs = at();
  return out;
}

void PatchI32(std::vector<uint8_t>* bytes, size_t off, int32_t v) {
  std::memcpy(bytes->data() + off, &v, sizeof(v));
}

StoreSection* FindSection(StoreSections* sections, const std::string& name) {
  for (StoreSection& sec : *sections) {
    if (sec.name == name) return &sec;
  }
  return nullptr;
}

// Slot i owns table row i: a live slot claiming no table row would send
// ResolveTable and the Ask lexical stage to row -1 of the table matrix.
TEST_F(ShardedStoreCorruptionTest, LiveSlotWithoutTableRowRejected) {
  auto corrupt = sections_;
  StoreSection* meta = FindSection(&corrupt, StoreShardPrefix(0) + "meta");
  ASSERT_NE(meta, nullptr);
  const ShardMetaLayout layout = WalkShardMeta(meta->bytes);
  ASSERT_GT(layout.slots, 0u);
  PatchI32(&meta->bytes, layout.slot0_tbl_row, -1);
  ExpectParseError(corrupt, "live slot 0 with tbl_row -1");
}

// Every column ref inside a slot's range must name that slot; one that
// names another slot would answer for the wrong table.
TEST_F(ShardedStoreCorruptionTest, ColumnRefNamingAnotherSlotRejected) {
  auto corrupt = sections_;
  StoreSection* meta = FindSection(&corrupt, StoreShardPrefix(0) + "meta");
  ASSERT_NE(meta, nullptr);
  const ShardMetaLayout layout = WalkShardMeta(meta->bytes);
  ASSERT_GE(layout.slots, 2u);
  ASSERT_GE(layout.slot0_col_begin, 0);
  // Column refs are (slot i32, col i32) pairs.
  PatchI32(&meta->bytes,
           layout.col_refs + 8 * static_cast<size_t>(layout.slot0_col_begin),
           1);
  ExpectParseError(corrupt, "slot 0's column ref names slot 1");
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// The store format is pinned by its own round trip: a mapped load saved
// again writes the same bytes, section for section, at 1 and 3 shards,
// with tombstones, under LSH and under HNSW with the int8 scan on.
TEST(StoreServingTest, MappedLoadResavesIdenticalBytes) {
  const auto& tables = SharedCorpus().corpus.tables;
  for (int shards : {1, 3}) {
    for (bool hnsw : {false, true}) {
      SCOPED_TRACE("shards " + std::to_string(shards) +
                   (hnsw ? " hnsw+int8" : " lsh"));
      TabBinService svc(SharedSystem(), {}, shards);
      ASSERT_TRUE(svc.AddTables(tables).ok());
      ASSERT_TRUE(svc.RemoveTable(tables[2].id()).ok());
      ASSERT_TRUE(svc.AddTables({tables[6]}).ok());  // replaced: tombstone
      if (hnsw) {
        svc.SetIndexKind(kIndexHnsw);
        svc.SetQuantizedScan(true, 4);
      }
      const std::string first = "/tmp/tabbin_store_resave_a.tbsn";
      const std::string second = "/tmp/tabbin_store_resave_b.tbsn";
      ASSERT_TRUE(svc.Save(first).ok());
      auto mapped = TabBinService::Load(first);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      EXPECT_TRUE(mapped.value()->IsMapped());
      ASSERT_TRUE(mapped.value()->Save(second).ok());
      const std::vector<uint8_t> a = FileBytes(first);
      const std::vector<uint8_t> b = FileBytes(second);
      ASSERT_FALSE(a.empty());
      EXPECT_TRUE(a == b) << "re-saved store differs (" << a.size() << " vs "
                          << b.size() << " bytes)";
    }
  }
}

// Rewrites shard meta `bytes` with one live slot's doc terms mangled
// by `mangle` (called on the first live slot holding >= 2 terms), every
// other byte copied through. False when no slot qualifies.
bool MangleDocTerms(
    std::vector<uint8_t>* bytes,
    const std::function<void(std::vector<std::pair<std::string, int32_t>>*)>&
        mangle) {
  BinaryReader r(bytes->data(), bytes->size());
  BinaryWriter w;
  bool mangled = false;
  const uint64_t slots = r.ReadU64().value();
  w.WriteU64(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    w.WriteString(r.ReadString().value());
    const int32_t live = r.ReadI32().value();
    w.WriteI32(live);
    w.WriteString(r.ReadString().value());
    for (int f = 0; f < 7; ++f) w.WriteI32(r.ReadI32().value());
    for (int f = 0; f < 2; ++f) w.WriteU64(r.ReadU64().value());
    if (live == 0) continue;
    std::vector<std::pair<std::string, int32_t>> terms(r.ReadU64().value());
    for (auto& [term, count] : terms) {
      term = r.ReadString().value();
      count = r.ReadI32().value();
    }
    if (!mangled && terms.size() >= 2) {
      mangle(&terms);
      mangled = true;
    }
    w.WriteU64(terms.size());
    for (const auto& [term, count] : terms) {
      w.WriteString(term);
      w.WriteI32(count);
    }
  }
  const std::vector<uint8_t> rest = r.ReadBytes(r.remaining()).value();
  w.WriteBytes(rest.data(), rest.size());
  *bytes = std::move(w).TakeBuffer();
  return mangled;
}

// The store holds each slot's doc terms strictly ascending: a repeated
// term would post the slot twice and double its lexical score, and the
// order is what makes a re-save byte-identical. A forged meta whose
// terms are out of order, or name one term twice, is ParseError.
TEST_F(ShardedStoreCorruptionTest, DocTermsOutOfOrderOrRepeatedRejected) {
  // Unmangled, the rewrite reproduces the section exactly.
  auto same = sections_;
  StoreSection* meta = FindSection(&same, StoreShardPrefix(0) + "meta");
  ASSERT_NE(meta, nullptr);
  const std::vector<uint8_t> original = meta->bytes;
  ASSERT_TRUE(MangleDocTerms(&meta->bytes, [](auto*) {}));
  EXPECT_EQ(meta->bytes, original);

  const std::vector<std::pair<
      std::string,
      std::function<void(std::vector<std::pair<std::string, int32_t>>*)>>>
      forgeries = {
          {"first two terms swapped",
           [](auto* terms) { std::swap((*terms)[0], (*terms)[1]); }},
          {"last term moved first",
           [](auto* terms) {
             std::rotate(terms->rbegin(), terms->rbegin() + 1,
                         terms->rend());
           }},
          {"second term repeats the first",
           [](auto* terms) { (*terms)[1].first = (*terms)[0].first; }},
          {"first term repeated after itself",
           [](auto* terms) {
             const auto first = (*terms)[0];
             terms->insert(terms->begin() + 1, first);
           }},
      };
  for (const auto& [what, mangle] : forgeries) {
    SCOPED_TRACE(what);
    auto corrupt = sections_;
    StoreSection* m = FindSection(&corrupt, StoreShardPrefix(1) + "meta");
    ASSERT_NE(m, nullptr);
    ASSERT_TRUE(MangleDocTerms(&m->bytes, mangle));
    auto loaded = LoadStoreBytes(AssembleStore(corrupt));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("doc terms out of order"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

// Shards restore concurrently, but the error is the one a serial
// restore would stop at: with groups s1 and s3 both corrupt, every load
// reports s1, never s3, however the shard threads happen to finish.
TEST(StoreServingTest, LowestCorruptShardReportsOnEveryLoad) {
  TabBinService svc(SharedSystem(), {}, 4);
  ASSERT_TRUE(svc.AddTables(SharedCorpus().corpus.tables).ok());
  PagedSnapshotWriter w;
  svc.AppendStore(&w);
  std::vector<uint8_t> bytes = w.Assemble();
  {
    auto reader = OpenBytes(bytes, "two_corrupt_src");
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    int flipped = 0;
    for (const auto& info : reader.value().sections()) {
      if (info.name != StoreShardPrefix(1) + "meta" &&
          info.name != StoreShardPrefix(3) + "meta") {
        continue;
      }
      ASSERT_GT(info.length, 0u);
      bytes[static_cast<size_t>(info.offset)] ^= 0x5a;  // payload only
      ++flipped;
    }
    ASSERT_EQ(flipped, 2);
  }
  const std::string path = "/tmp/tabbin_store_two_corrupt.tbsn";
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  for (int load = 0; load < 20; ++load) {
    SCOPED_TRACE("load " + std::to_string(load));
    auto loaded = TabBinService::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_EQ(loaded.status().message(),
              "paged snapshot: checksum mismatch in section '" +
                  StoreShardPrefix(1) + "meta'");
  }
}

// MappedLoadResavesIdenticalBytes at 4 shards: the count the serving
// benchmark's mapped workload opens, restored on four threads at once.
TEST(StoreServingTest, MappedLoadResavesIdenticalBytesFourShards) {
  const auto& tables = SharedCorpus().corpus.tables;
  for (bool hnsw : {false, true}) {
    SCOPED_TRACE(hnsw ? "hnsw+int8" : "lsh");
    TabBinService svc(SharedSystem(), {}, 4);
    ASSERT_TRUE(svc.AddTables(tables).ok());
    ASSERT_TRUE(svc.RemoveTable(tables[2].id()).ok());
    ASSERT_TRUE(svc.AddTables({tables[6]}).ok());  // replaced: tombstone
    if (hnsw) {
      svc.SetIndexKind(kIndexHnsw);
      svc.SetQuantizedScan(true, 4);
    }
    const std::string first = "/tmp/tabbin_store_resave4_a.tbsn";
    const std::string second = "/tmp/tabbin_store_resave4_b.tbsn";
    ASSERT_TRUE(svc.Save(first).ok());
    auto mapped = TabBinService::Load(first);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped.value()->IsMapped());
    EXPECT_EQ(mapped.value()->num_shards(), 4);
    ExpectIdenticalService(svc, *mapped.value());
    ASSERT_TRUE(mapped.value()->Save(second).ok());
    const std::vector<uint8_t> a = FileBytes(first);
    const std::vector<uint8_t> b = FileBytes(second);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "re-saved store differs (" << a.size() << " vs "
                        << b.size() << " bytes)";
  }
}

// The removed single-shard service wrote 0 in the meta word that
// follows the version; the word is ignored on read, so such a store
// still opens, byte-identically.
TEST(StoreServingTest, MetaFlagWordZeroStillLoads) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService svc(SharedSystem());
  ASSERT_TRUE(svc.AddTables(tables).ok());
  ASSERT_TRUE(svc.RemoveTable(tables[4].id()).ok());
  PagedSnapshotWriter w;
  svc.AppendStore(&w);
  StoreSections sections = ReadStoreSections(w.Assemble(), "flag0_src");
  SetStoreMeta(&sections, StoreMetaBytes(0, 1));
  auto loaded = LoadStoreBytes(AssembleStore(sections));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_shards(), 1);
  ExpectIdenticalService(svc, *loaded.value());
}

// --------------------------------------------------------------------------
// One candidate generator per shard
// --------------------------------------------------------------------------
// A shard keeps (and stores) only the active generator: graph stores
// carry no "<p>lsh" sections, switching a graph shard to LSH rebuilds
// the buckets from the matrix rows, and the Ask term counts live only
// in the lexical postings.

std::vector<uint8_t> StoreBytes(const TabBinService& svc) {
  PagedSnapshotWriter w;
  svc.AppendStore(&w);
  return w.Assemble();
}

std::unique_ptr<TabBinService> BuiltService(int shards, IndexKind kind,
                                            const std::string& removed) {
  ServiceOptions options;
  options.index_kind = kind;
  auto svc = std::make_unique<TabBinService>(SharedSystem(), options, shards);
  EXPECT_TRUE(svc->AddTables(SharedCorpus().corpus.tables).ok());
  EXPECT_TRUE(svc->RemoveTable(removed).ok());
  return svc;
}

bool IsLshSection(const std::string& name) {
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".lsh") == 0;
}

TEST(GeneratorStoreTest, GraphShardSwitchedToLshStoresLikeAnLshBuild) {
  const std::string removed = SharedCorpus().corpus.tables[5].id();
  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    auto lsh = BuiltService(shards, kIndexLsh, removed);
    auto graph = BuiltService(shards, kIndexHnsw, removed);
    graph->SetIndexKind(kIndexLsh);
    const std::vector<uint8_t> want = StoreBytes(*lsh);
    EXPECT_TRUE(StoreBytes(*graph) == want)
        << "LSH rebuilt from rows differs from the maintained one";
    ExpectIdenticalService(*lsh, *graph);
  }
}

TEST(GeneratorStoreTest, GraphStoreHasNoLshSectionAndOlderOnesStillLoad) {
  const std::string removed = SharedCorpus().corpus.tables[5].id();
  auto graph = BuiltService(3, kIndexHnsw, removed);
  auto lsh = BuiltService(3, kIndexLsh, removed);
  const std::vector<uint8_t> graph_bytes = StoreBytes(*graph);
  const StoreSections graph_sections =
      ReadStoreSections(graph_bytes, "graph_src");
  for (const StoreSection& sec : graph_sections) {
    EXPECT_FALSE(IsLshSection(sec.name)) << sec.name;
  }

  // A graph store as the previous writer laid it out: each shard's LSH
  // indexes between its norms and its embedding blocks.
  StoreSections with_lsh;
  for (const StoreSection& sec : graph_sections) {
    with_lsh.push_back(sec);
    for (uint32_t i = 0; i < 3; ++i) {
      if (sec.name != StoreShardPrefix(i) + "norms") continue;
      bool spliced = false;
      for (const StoreSection& l : ReadStoreSections(StoreBytes(*lsh), "l")) {
        if (l.name != StoreShardPrefix(i) + "lsh") continue;
        with_lsh.push_back(l);
        spliced = true;
      }
      ASSERT_TRUE(spliced) << "shard " << i;
    }
  }
  ASSERT_EQ(with_lsh.size(), graph_sections.size() + 3);
  const std::vector<uint8_t> old_bytes = AssembleStore(with_lsh);
  auto opened = OpenBytes(old_bytes, "graph_with_lsh");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().ValidateAll().ok());

  auto loaded = LoadStoreBytes(old_bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalService(*graph, *loaded.value());
  EXPECT_TRUE(StoreBytes(*loaded.value()) == graph_bytes)
      << "re-saved graph store still differs";

  // The mapped graph shards rebuild their LSH indexes from the mapped
  // rows, tombstoned ones included.
  loaded.value()->SetIndexKind(kIndexLsh);
  EXPECT_TRUE(StoreBytes(*loaded.value()) == StoreBytes(*lsh));
  ExpectIdenticalService(*lsh, *loaded.value());
}

// Compact re-inserts the survivors with term lists read back from the
// postings; the result must be what a fresh build over the survivors
// (in slot order) stores, for either generator.
TEST(GeneratorStoreTest, CompactedStoreEqualsFreshBuildOfSurvivors) {
  const auto& tables = SharedCorpus().corpus.tables;
  const std::vector<std::string> removed = {tables[2].id(), tables[9].id()};
  for (IndexKind kind : {kIndexLsh, kIndexHnsw}) {
    for (int shards : {1, 3}) {
      SCOPED_TRACE(std::string(kind == kIndexHnsw ? "hnsw" : "lsh") +
                   " shards " + std::to_string(shards));
      ServiceOptions options;
      options.index_kind = kind;
      TabBinService svc(SharedSystem(), options, shards);
      ASSERT_TRUE(svc.AddTables(tables).ok());
      for (const std::string& id : removed) {
        ASSERT_TRUE(svc.RemoveTable(id).ok());
      }
      ASSERT_TRUE(svc.Compact().ok());

      std::vector<Table> survivors;
      for (const Table& t : tables) {
        if (std::find(removed.begin(), removed.end(), t.id()) ==
            removed.end()) {
          survivors.push_back(t);
        }
      }
      TabBinService fresh(SharedSystem(), options, shards);
      ASSERT_TRUE(fresh.AddTables(survivors).ok());
      EXPECT_TRUE(StoreBytes(svc) == StoreBytes(fresh));
      ExpectIdenticalService(fresh, svc);
    }
  }
}

}  // namespace
}  // namespace tabbin
