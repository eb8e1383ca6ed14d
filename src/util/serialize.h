// Minimal binary (de)serialization for model checkpoints and corpora.
//
// Little-endian, length-prefixed primitives; no alignment requirements.
#ifndef TABBIN_UTIL_SERIALIZE_H_
#define TABBIN_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace tabbin {

/// \brief FNV-1a 64-bit hash: the TBSN section and directory checksums,
/// shard routing of table ids, and HNSW level draws.
uint64_t Fnv1a64(const uint8_t* data, size_t n);

/// \brief Appends primitives to a growable byte buffer.
class BinaryWriter {
 public:
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }
  void WriteF32Vector(const std::vector<float>& v) {
    WriteU64(v.size());
    WriteRaw(v.data(), v.size() * sizeof(float));
  }
  /// \brief Appends raw bytes with no length prefix (snapshot payloads).
  void WriteBytes(const void* data, size_t n) { WriteRaw(data, n); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  /// \brief Moves the buffer out (the writer is spent afterwards).
  std::vector<uint8_t> TakeBuffer() && { return std::move(buf_); }

 private:
  void WriteRaw(const void* data, size_t n) {
    if (n == 0) return;  // empty vectors hand over a null data()
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<uint8_t> buf_;
};

/// \brief Reads primitives back from a byte buffer.
///
/// Either owns its bytes (the vector constructor) or borrows
/// them (the pointer constructor): a borrowing reader parses in place,
/// e.g. straight off a mapped snapshot section, and the caller keeps
/// the bytes alive and unchanged for the reader's lifetime. Reads behave
/// the same either way. Move-only; a moved-from reader is empty.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<uint8_t> buf)
      : owned_(std::move(buf)), data_(owned_.data()), size_(owned_.size()) {}
  BinaryReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), borrowed_(true) {}

  BinaryReader(BinaryReader&& other) noexcept { *this = std::move(other); }
  BinaryReader& operator=(BinaryReader&& other) noexcept {
    if (this == &other) return *this;
    owned_ = std::move(other.owned_);
    // A moved vector keeps its heap block, but re-derive the pointer
    // rather than rely on that.
    data_ = other.borrowed_ ? other.data_ : owned_.data();
    size_ = other.size_;
    pos_ = other.pos_;
    borrowed_ = other.borrowed_;
    other.owned_.clear();
    other.data_ = nullptr;
    other.size_ = other.pos_ = 0;
    other.borrowed_ = false;
    return *this;
  }
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  Result<uint32_t> ReadU32() { return ReadPod<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadPod<uint64_t>(); }
  Result<int32_t> ReadI32() { return ReadPod<int32_t>(); }
  Result<int64_t> ReadI64() { return ReadPod<int64_t>(); }
  Result<float> ReadF32() { return ReadPod<float>(); }
  Result<double> ReadF64() { return ReadPod<double>(); }
  Result<std::string> ReadString();
  Result<std::vector<float>> ReadF32Vector();
  /// \brief Reads exactly `n` raw bytes (bounds-checked).
  Result<std::vector<uint8_t>> ReadBytes(uint64_t n);
  /// \brief Bulk-reads `n` contiguous i32 values into `dst` (which must
  /// hold n entries) with one bounds check and one memcpy — the hot
  /// path for id lists at load time, where per-element ReadI32 calls
  /// pay Result-wrapping overhead n times.
  Status ReadI32Into(int32_t* dst, uint64_t n);

  bool AtEnd() const { return pos_ == size_; }
  /// \brief The whole underlying buffer, regardless of read position
  /// (the reader is spent afterwards): moved out of an owning reader,
  /// copied out of a borrowing one.
  std::vector<uint8_t> TakeBuffer() &&;
  size_t position() const { return pos_; }
  /// \brief Bytes left to read. The `remaining()`-relative bounds checks
  /// below cannot overflow because pos_ <= size_ is an invariant.
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  Result<T> ReadPod() {
    if (sizeof(T) > remaining()) {
      return Status::OutOfRange("BinaryReader: read past end of buffer");
    }
    T v;
    // The remaining() guard above makes this in-bounds, but when GCC
    // inlines a read of a wider T against a buffer whose size it knows
    // statically (e.g. ReadU64 on a 4-byte buffer in a truncation
    // test), its -Warray-bounds pass models the memcpy on the
    // already-rejected path. Scope the suppression to this one line.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
    std::memcpy(&v, data_ + pos_, sizeof(T));
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    pos_ += sizeof(T);
    return v;
  }

  std::vector<uint8_t> owned_;  // empty when borrowed
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  bool borrowed_ = false;
};

}  // namespace tabbin

#endif  // TABBIN_UTIL_SERIALIZE_H_
