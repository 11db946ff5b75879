#include "common/archive.h"

#include <algorithm>

namespace silofuse {

namespace {
template <typename T>
void WriteRawImpl(std::ostream* out, T v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Reads a length-prefixed payload of `size` elements in chunks of at most
/// 1 MiB, growing `out` only as bytes actually arrive: a corrupt length
/// fails at the end of the stream, having allocated about as much as the
/// stream held instead of what the length claimed.
template <typename Container>
Status ReadChunked(std::istream* in, uint64_t size, const char* what,
                   Container* out) {
  using T = typename Container::value_type;
  if (size > kMaxArchiveVectorLength) {
    return Status::IOError(std::string("corrupt ") + what +
                           " length in archive");
  }
  constexpr uint64_t kChunkElements = (uint64_t{1} << 20) / sizeof(T);
  for (uint64_t done = 0; done < size;) {
    const uint64_t n = std::min(kChunkElements, size - done);
    out->resize(done + n);
    if (!in->read(reinterpret_cast<char*>(out->data() + done),
                  static_cast<std::streamsize>(n * sizeof(T)))) {
      return Status::IOError(std::string("unexpected end of archive in ") +
                             what);
    }
    done += n;
  }
  return Status::OK();
}
}  // namespace

void BinaryWriter::WriteU32(uint32_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteU64(uint64_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteI32(int32_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteI64(int64_t v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteF32(float v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteF64(double v) { WriteRawImpl(out_, v); }
void BinaryWriter::WriteBool(bool v) {
  WriteRawImpl(out_, static_cast<uint8_t>(v ? 1 : 0));
}

void BinaryWriter::WriteString(const std::string& v) {
  WriteU64(v.size());
  out_->write(v.data(), static_cast<std::streamsize>(v.size()));
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteU64(v.size());
  out_->write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  out_->write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
}

template <typename T>
Result<T> BinaryReader::ReadRaw() {
  T v{};
  if (in_ == nullptr ||
      !in_->read(reinterpret_cast<char*>(&v), sizeof(T))) {
    return Status::IOError("unexpected end of archive");
  }
  return v;
}

Result<uint32_t> BinaryReader::ReadU32() { return ReadRaw<uint32_t>(); }
Result<uint64_t> BinaryReader::ReadU64() { return ReadRaw<uint64_t>(); }
Result<int32_t> BinaryReader::ReadI32() { return ReadRaw<int32_t>(); }
Result<int64_t> BinaryReader::ReadI64() { return ReadRaw<int64_t>(); }
Result<float> BinaryReader::ReadF32() { return ReadRaw<float>(); }
Result<double> BinaryReader::ReadF64() { return ReadRaw<double>(); }

Result<bool> BinaryReader::ReadBool() {
  SF_ASSIGN_OR_RETURN(uint8_t v, ReadRaw<uint8_t>());
  if (v > 1) return Status::IOError("corrupt bool in archive");
  return v == 1;
}

Result<std::string> BinaryReader::ReadString() {
  SF_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  std::string v;
  SF_RETURN_NOT_OK(ReadChunked(in_, size, "string", &v));
  return v;
}

Result<std::vector<float>> BinaryReader::ReadFloatVector() {
  SF_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  std::vector<float> v;
  SF_RETURN_NOT_OK(ReadChunked(in_, size, "float vector", &v));
  return v;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVector() {
  SF_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  std::vector<double> v;
  SF_RETURN_NOT_OK(ReadChunked(in_, size, "double vector", &v));
  return v;
}

Status BinaryReader::ExpectTag(const std::string& tag) {
  SF_ASSIGN_OR_RETURN(std::string got, ReadString());
  if (got != tag) {
    return Status::IOError("archive tag mismatch: expected '" + tag +
                           "', found '" + got + "'");
  }
  return Status::OK();
}

}  // namespace silofuse
