#include "util/serialize.h"

#include <cstring>

namespace tabbin {

uint64_t Fnv1a64(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<uint8_t> BinaryReader::TakeBuffer() && {
  std::vector<uint8_t> out =
      borrowed_ ? std::vector<uint8_t>(data_, data_ + size_)
                : std::move(owned_);
  *this = BinaryReader(std::vector<uint8_t>{});
  return out;
}

Result<std::string> BinaryReader::ReadString() {
  TABBIN_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  // Compare against the remaining byte count instead of forming
  // pos_ + n, which wraps around for adversarial n near UINT64_MAX and
  // would pass a naive check.
  if (n > remaining()) {
    return Status::OutOfRange("BinaryReader: string past end of buffer");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return s;
}

Result<std::vector<float>> BinaryReader::ReadF32Vector() {
  TABBIN_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  // n * sizeof(float) overflows for n >= 2^62; divide instead.
  if (n > remaining() / sizeof(float)) {
    return Status::OutOfRange("BinaryReader: vector past end of buffer");
  }
  std::vector<float> v(static_cast<size_t>(n));
  if (n > 0) {
    std::memcpy(v.data(), data_ + pos_,
                static_cast<size_t>(n) * sizeof(float));
    pos_ += static_cast<size_t>(n) * sizeof(float);
  }
  return v;
}

Result<std::vector<uint8_t>> BinaryReader::ReadBytes(uint64_t n) {
  if (n > remaining()) {
    return Status::OutOfRange("BinaryReader: bytes past end of buffer");
  }
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += static_cast<size_t>(n);
  return out;
}

Status BinaryReader::ReadI32Into(int32_t* dst, uint64_t n) {
  if (n > remaining() / sizeof(int32_t)) {
    return Status::OutOfRange("BinaryReader: i32 block past end of buffer");
  }
  if (n > 0) std::memcpy(dst, data_ + pos_, n * sizeof(int32_t));
  pos_ += static_cast<size_t>(n) * sizeof(int32_t);
  return Status::OK();
}

}  // namespace tabbin
