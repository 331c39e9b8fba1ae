#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace mlperf::checkpoint {

/// Every load-side failure — bad magic, version drift, CRC mismatch,
/// truncation, missing sections, name/shape drift — throws this. Checkpoints
/// are either loaded exactly or rejected loudly; nothing is papered over.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// File layout (all integers little-endian, which is asserted at build time
/// for the platforms this project targets):
///
///   u32 magic   "MLCK" (0x4B434C4D on disk)
///   u32 format version (kFormatVersion; a mismatch is an error, never a
///                       best-effort parse)
///   u64 section count
///   u32 CRC32C of the 16 bytes above
///   per section:
///     u64 name length, name bytes
///     u64 payload length
///     u32 CRC32C of the name length, name, payload length and payload
///     payload bytes
///
/// Every byte of the file is under a CRC, so any flipped byte is caught.
/// Sections are independent byte blobs ("meta", "curve", "timer", "log",
/// "model", "optimizer", "rng", ...); each carries its own CRC so corruption
/// is localized in error messages. Files are written atomically
/// (core::atomic_write_file), so a crash mid-save never clobbers the previous
/// checkpoint.
inline constexpr std::uint32_t kMagic = 0x4B434C4DU;  // "MLCK" little-endian
inline constexpr std::uint32_t kFormatVersion = 2;

/// CRC32C (Castagnoli), the checksum used per section. Software table
/// implementation; `seed` chains incremental updates.
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Typed little-endian append-only buffer: the payload builder for one
/// section.
class ByteWriter {
 public:
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }
  void put_bool(bool v) { put_u32(v ? 1 : 0); }
  void put_string(const std::string& s) {
    put_u64(s.size());
    put_raw(s.data(), s.size());
  }
  /// Shape (rank + extents) followed by the raw float32 payload.
  void put_tensor(const tensor::Tensor& t);
  void put_raw(const void* data, std::size_t size);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over one section's payload. Any read past the end
/// throws CheckpointError("...truncated..."), so a short or corrupted
/// payload can never be silently consumed.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::string section)
      : data_(data), size_(size), section_(std::move(section)) {}

  std::uint32_t get_u32() { return get_pod<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_pod<std::uint64_t>(); }
  std::int64_t get_i64() { return get_pod<std::int64_t>(); }
  double get_f64() { return get_pod<double>(); }
  bool get_bool() { return get_u32() != 0; }
  std::string get_string();
  /// Reads shape + data written by put_tensor.
  tensor::Tensor get_tensor();
  void get_raw(void* out, std::size_t size);
  /// Moves past `size` bytes without copying them (bounds-checked like a read).
  void skip(std::size_t size);

  std::size_t remaining() const { return size_ - offset_; }
  bool done() const { return offset_ == size_; }
  /// Throws unless every byte of the section was read.
  void expect_done() const;

 private:
  template <typename T>
  T get_pod() {
    T v;
    get_raw(&v, sizeof(v));
    return v;
  }
  /// Throws unless `size` more bytes remain.
  void require(std::size_t size) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::string section_;
};

/// Assembles a checkpoint: named sections, written in insertion order, each
/// CRC32C-protected, the whole file landed atomically.
class CheckpointWriter {
 public:
  /// Create (or retrieve, to keep appending) the section's payload builder.
  /// Returned references stay valid across later section() calls, so callers
  /// may hold several builders and interleave writes.
  ByteWriter& section(const std::string& name);

  /// Serialize to memory (header + CRC'd sections).
  std::vector<std::uint8_t> serialize() const;
  /// Serialize and write atomically (temp file + rename); returns the bytes
  /// written.
  std::size_t write_file(const std::string& path) const;

 private:
  // deque: section() hands out references that must survive later insertions.
  std::deque<std::pair<std::string, ByteWriter>> sections_;
};

/// Parses and fully validates a checkpoint: magic, format version, the header
/// CRC and every section CRC are checked up front, so by the time any state
/// is restored the file is known to be intact. All failures throw CheckpointError.
class CheckpointReader {
 public:
  struct SectionInfo {
    std::string name;
    std::uint64_t size = 0;
    std::uint32_t stored_crc = 0;
    std::uint32_t computed_crc = 0;  ///< over the table entry and the payload
    std::size_t offset = 0;  ///< payload offset in the file
    bool crc_ok() const { return stored_crc == computed_crc; }
  };

  static CheckpointReader parse(std::vector<std::uint8_t> bytes, const std::string& origin);
  static CheckpointReader read_file(const std::string& path);

  std::uint32_t version() const { return version_; }
  const std::vector<SectionInfo>& sections() const { return infos_; }
  bool has_section(const std::string& name) const;
  /// Bounds-checked reader over the named section; throws if absent.
  ByteReader section(const std::string& name) const;

 private:
  CheckpointReader() = default;

  std::vector<std::uint8_t> bytes_;
  std::uint32_t version_ = 0;
  std::vector<SectionInfo> infos_;
};

/// Lenient header walk for `tools/ckpt_inspect`: never throws on CRC,
/// version or trailing-byte problems — it reports them, so a damaged
/// checkpoint can still be examined. It stops before the section table when
/// the magic or version is not this build's. Structural damage that prevents
/// walking the table (an implausible count or length, a payload cut short)
/// still throws CheckpointError.
struct InspectReport {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  bool magic_ok = false;
  bool version_ok = false;
  bool header_crc_ok = false;
  std::uint64_t file_bytes = 0;
  std::uint64_t trailing_bytes = 0;  ///< bytes after the last section
  std::vector<CheckpointReader::SectionInfo> sections;
  /// True iff nothing is damaged.
  bool ok() const;
};
InspectReport inspect_file(const std::string& path);

}  // namespace mlperf::checkpoint
