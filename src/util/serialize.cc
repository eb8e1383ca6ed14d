#include "util/serialize.h"

#include <cstdio>

namespace tabbin {

uint64_t Fnv1a64(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

Status BinaryWriter::ToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::IoError("cannot open for write: " + path);
  size_t written = buf_.empty() ? 0 : std::fwrite(buf_.data(), 1, buf_.size(), f);
  std::fclose(f);
  if (written != buf_.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

Result<BinaryReader> BinaryReader::FromFile(const std::string& path,
                                            uint64_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::IoError("cannot open for read: " + path);
  // ftell can legitimately fail (pipes, directories, >2GiB on 32-bit
  // longs); a negative size cast to size_t would request an enormous
  // allocation, so every step is checked.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek to end of " + path);
  }
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IoError("cannot determine size of " + path);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot rewind " + path);
  }
  if (static_cast<uint64_t>(size) > max_bytes) {
    std::fclose(f);
    return Status::OutOfRange(
        "refusing to load " + path + ": " + std::to_string(size) +
        " bytes exceeds the " + std::to_string(max_bytes) + " byte cap");
  }
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  size_t got = size ? std::fread(buf.data(), 1, buf.size(), f) : 0;
  std::fclose(f);
  if (got != buf.size()) return Status::IoError("short read from " + path);
  return BinaryReader(std::move(buf));
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
