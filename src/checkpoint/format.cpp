#include "checkpoint/format.h"

#include <array>
#include <bit>
#include <cstring>

#include "core/fileio.h"

static_assert(std::endian::native == std::endian::little,
              "checkpoint format assumes a little-endian target");

namespace mlperf::checkpoint {

namespace {

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k)
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78U : 0);  // reflected Castagnoli
    table[i] = crc;
  }
  return table;
}

constexpr std::uint64_t kMaxNameLen = 1 << 16;

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFF];
  return ~crc;
}

void ByteWriter::put_raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void ByteWriter::put_tensor(const tensor::Tensor& t) {
  const auto& shape = t.shape();
  put_u64(shape.size());
  for (auto d : shape) put_i64(d);
  put_raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

void ByteReader::require(std::size_t size) const {
  if (size > size_ - offset_)
    throw CheckpointError("checkpoint section '" + section_ + "' truncated: need " +
                          std::to_string(size) + " bytes at offset " +
                          std::to_string(offset_) + ", have " +
                          std::to_string(size_ - offset_));
}

void ByteReader::get_raw(void* out, std::size_t size) {
  require(size);
  if (size == 0) return;  // `out` may be null (an empty vector's data())
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
}

void ByteReader::skip(std::size_t size) {
  require(size);
  offset_ += size;
}

void ByteReader::expect_done() const {
  if (!done())
    throw CheckpointError("checkpoint section '" + section_ + "' has " +
                          std::to_string(remaining()) + " unread trailing bytes");
}

std::string ByteReader::get_string() {
  const std::uint64_t n = get_u64();
  if (n > kMaxNameLen)
    throw CheckpointError("checkpoint section '" + section_ +
                          "': implausible string length " + std::to_string(n));
  std::string s(static_cast<std::size_t>(n), '\0');
  get_raw(s.data(), s.size());
  return s;
}

tensor::Tensor ByteReader::get_tensor() {
  const std::uint64_t rank = get_u64();
  if (rank > 8)
    throw CheckpointError("checkpoint section '" + section_ + "': implausible rank " +
                          std::to_string(rank));
  tensor::Shape shape(static_cast<std::size_t>(rank));
  for (auto& d : shape) {
    d = get_i64();
    if (d < 0) throw CheckpointError("checkpoint section '" + section_ + "': negative extent");
  }
  // Overflow-safe element count: cap numel at what the payload could possibly
  // hold BEFORE each multiply, so corrupt extents can neither overflow the
  // accumulator nor wrap the size check into a huge allocation.
  const std::uint64_t max_numel = remaining() / sizeof(float);
  std::uint64_t numel = 1;
  for (auto d : shape) {
    const auto ud = static_cast<std::uint64_t>(d);
    if (ud != 0 && numel > max_numel / ud)
      throw CheckpointError("checkpoint section '" + section_ +
                            "' truncated inside tensor payload");
    numel *= ud;
  }
  if (numel > max_numel)
    throw CheckpointError("checkpoint section '" + section_ +
                          "' truncated inside tensor payload");
  tensor::Tensor t(std::move(shape));
  get_raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return t;
}

ByteWriter& CheckpointWriter::section(const std::string& name) {
  for (auto& [n, w] : sections_)
    if (n == name) return w;
  sections_.emplace_back(name, ByteWriter());
  return sections_.back().second;
}

std::vector<std::uint8_t> CheckpointWriter::serialize() const {
  ByteWriter out;
  out.put_u32(kMagic);
  out.put_u32(kFormatVersion);
  out.put_u64(sections_.size());
  out.put_u32(crc32c(out.bytes().data(), out.size()));
  for (const auto& [name, w] : sections_) {
    const std::size_t entry = out.size();
    out.put_string(name);
    out.put_u64(w.size());
    const std::uint32_t table_crc = crc32c(out.bytes().data() + entry, out.size() - entry);
    out.put_u32(crc32c(w.bytes().data(), w.size(), table_crc));
    out.put_raw(w.bytes().data(), w.size());
  }
  return out.bytes();
}

std::size_t CheckpointWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  core::atomic_write_file(path, bytes.data(), bytes.size());
  return bytes.size();
}

namespace {

// The header and section-table walk both readers share. Strict
// (CheckpointReader::parse) rejects a bad magic, a version mismatch, a CRC
// mismatch and trailing bytes. Lenient (inspect_file) reports them instead,
// and stops before the table on a bad magic or version. Either way an
// implausible section count or a payload cut short throws.
InspectReport walk_sections(const std::vector<std::uint8_t>& bytes, const std::string& origin,
                            bool strict) {
  InspectReport report;
  report.file_bytes = bytes.size();
  ByteReader header(bytes.data(), bytes.size(), "header:" + origin);
  auto offset = [&] { return bytes.size() - header.remaining(); };
  report.magic = header.get_u32();
  report.magic_ok = report.magic == kMagic;
  if (strict && !report.magic_ok)
    throw CheckpointError("not a checkpoint file (bad magic) in " + origin);
  report.version = header.get_u32();
  report.version_ok = report.version == kFormatVersion;
  if (strict && !report.version_ok)
    throw CheckpointError("checkpoint format version mismatch in " + origin + ": file has v" +
                          std::to_string(report.version) + ", this build reads v" +
                          std::to_string(kFormatVersion));
  if (!report.magic_ok || !report.version_ok) return report;  // not a layout we read
  const std::uint64_t count = header.get_u64();
  const std::uint32_t computed_header_crc = crc32c(bytes.data(), offset());
  report.header_crc_ok = header.get_u32() == computed_header_crc;
  if (strict && !report.header_crc_ok)
    throw CheckpointError("checkpoint corrupted in " + origin + ": header CRC32C mismatch");
  if (count > 1024)
    throw CheckpointError(strict ? "implausible section count " + std::to_string(count) +
                                       " in " + origin
                                 : "implausible section count in " + origin);
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointReader::SectionInfo info;
    const std::size_t entry = offset();
    info.name = header.get_string();
    info.size = header.get_u64();
    const std::uint32_t table_crc = crc32c(bytes.data() + entry, offset() - entry);
    info.stored_crc = header.get_u32();
    if (info.size > header.remaining())
      throw CheckpointError("checkpoint truncated in " + origin + ": section '" + info.name +
                            (strict ? "' claims " + std::to_string(info.size) + " bytes, " +
                                          std::to_string(header.remaining()) + " remain"
                                    : std::string("' payload cut short")));
    info.offset = offset();
    info.computed_crc =
        crc32c(bytes.data() + info.offset, static_cast<std::size_t>(info.size), table_crc);
    if (strict && !info.crc_ok())
      throw CheckpointError("checkpoint corrupted in " + origin + ": section '" + info.name +
                            "' CRC32C mismatch (stored " + std::to_string(info.stored_crc) +
                            ", computed " + std::to_string(info.computed_crc) + ")");
    header.skip(static_cast<std::size_t>(info.size));
    report.sections.push_back(std::move(info));
  }
  report.trailing_bytes = header.remaining();
  if (strict && report.trailing_bytes != 0)
    throw CheckpointError("checkpoint has " + std::to_string(report.trailing_bytes) +
                          " trailing bytes in " + origin);
  return report;
}

std::vector<std::uint8_t> read_checkpoint_bytes(const std::string& path) {
  try {
    return core::read_file_bytes(path);
  } catch (const std::runtime_error& e) {
    throw CheckpointError(std::string("cannot read checkpoint: ") + e.what());
  }
}

}  // namespace

CheckpointReader CheckpointReader::parse(std::vector<std::uint8_t> bytes,
                                         const std::string& origin) {
  InspectReport table = walk_sections(bytes, origin, /*strict=*/true);
  CheckpointReader r;
  r.bytes_ = std::move(bytes);
  r.version_ = table.version;
  r.infos_ = std::move(table.sections);
  return r;
}

CheckpointReader CheckpointReader::read_file(const std::string& path) {
  return parse(read_checkpoint_bytes(path), path);
}

bool CheckpointReader::has_section(const std::string& name) const {
  for (const auto& info : infos_)
    if (info.name == name) return true;
  return false;
}

ByteReader CheckpointReader::section(const std::string& name) const {
  for (std::size_t i = 0; i < infos_.size(); ++i)
    if (infos_[i].name == name)
      return ByteReader(bytes_.data() + infos_[i].offset,
                        static_cast<std::size_t>(infos_[i].size), name);
  throw CheckpointError("checkpoint is missing section '" + name + "'");
}

bool InspectReport::ok() const {
  if (!magic_ok || !version_ok || !header_crc_ok || trailing_bytes != 0) return false;
  for (const auto& s : sections)
    if (!s.crc_ok()) return false;
  return true;
}

InspectReport inspect_file(const std::string& path) {
  return walk_sections(read_checkpoint_bytes(path), path, /*strict=*/false);
}

}  // namespace mlperf::checkpoint
