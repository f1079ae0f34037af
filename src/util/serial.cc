#include "src/util/serial.h"

namespace globe {

namespace {
// Appends the little-endian bytes of `v` in one insert, so an empty buffer
// grows once instead of once per byte.
template <typename T>
void AppendLittleEndian(T v, Bytes* buffer) {
  uint8_t bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  buffer->insert(buffer->end(), bytes, bytes + sizeof(T));
}
}  // namespace

void ByteWriter::WriteU8(uint8_t v) { buffer_.push_back(v); }

void ByteWriter::WriteU16(uint16_t v) { AppendLittleEndian(v, &buffer_); }

void ByteWriter::WriteU32(uint32_t v) { AppendLittleEndian(v, &buffer_); }

void ByteWriter::WriteU64(uint64_t v) { AppendLittleEndian(v, &buffer_); }

void ByteWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::WriteBytes(ByteSpan bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::WriteLengthPrefixed(ByteSpan bytes) {
  WriteVarint(bytes.size());
  WriteBytes(bytes);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) {
    return OutOfRange("ReadU8 past end");
  }
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  if (remaining() < 2) {
    return OutOfRange("ReadU16 past end");
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) {
    return OutOfRange("ReadU32 past end");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) {
    return OutOfRange("ReadU64 past end");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<uint64_t> ByteReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      return OutOfRange("ReadVarint past end");
    }
    if (shift >= 64) {
      return InvalidArgument("varint too long");
    }
    uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
}

Result<Bytes> ByteReader::ReadBytes(size_t n) {
  if (remaining() < n) {
    return OutOfRange("ReadBytes past end");
  }
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<Bytes> ByteReader::ReadLengthPrefixed() {
  ASSIGN_OR_RETURN(uint64_t len, ReadVarint());
  if (len > remaining()) {
    return OutOfRange("length prefix exceeds remaining data");
  }
  return ReadBytes(static_cast<size_t>(len));
}

Result<std::string> ByteReader::ReadString() {
  ASSIGN_OR_RETURN(Bytes bytes, ReadLengthPrefixed());
  return std::string(bytes.begin(), bytes.end());
}

Result<ByteSpan> ByteReader::ReadSpan(size_t n) {
  if (remaining() < n) {
    return OutOfRange("ReadSpan past end");
  }
  ByteSpan out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<ByteSpan> ByteReader::ReadLengthPrefixedView() {
  ASSIGN_OR_RETURN(uint64_t len, ReadVarint());
  if (len > remaining()) {
    return OutOfRange("length prefix exceeds remaining data");
  }
  return ReadSpan(static_cast<size_t>(len));
}

Result<std::string_view> ByteReader::ReadStringView() {
  ASSIGN_OR_RETURN(ByteSpan bytes, ReadLengthPrefixedView());
  return std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

Result<bool> ByteReader::ReadBool() {
  ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  if (v > 1) {
    return InvalidArgument("bool byte not 0/1");
  }
  return v == 1;
}

}  // namespace globe
