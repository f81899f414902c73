#include "ncio/chunkstore.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/bytes.h"
#include "util/cache.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/trace.h"

namespace cesm::ncio {

namespace {

// "CNK1": staged-chunk spill file. Version 2 adds the header checksum and
// the per-chunk payload checksum table (see chunkstore.h); version-1 files
// are rejected — a reuse path must never trust an unchecksummed spill.
constexpr std::uint32_t kChunkStoreMagic = 0x314b4e43;
constexpr std::uint32_t kChunkStoreVersion = 2;
constexpr std::size_t kMaxRank = 8;
constexpr std::uint32_t kMaxMembers = 1u << 20;

void write_fully(int fd, const void* buf, std::size_t len, std::uint64_t offset,
                 const std::string& path) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ::ssize_t n = ::pwrite(fd, p, len, static_cast<::off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("chunkstore write failed: " + path + ": " + std::strerror(errno));
    }
    p += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

void read_fully(int fd, void* buf, std::size_t len, std::uint64_t offset,
                const std::string& path) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ::ssize_t n = ::pread(fd, p, len, static_cast<::off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("chunkstore read failed: " + path + ": " + std::strerror(errno));
    }
    if (n == 0) throw IoError("chunkstore truncated: " + path);
    p += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

/// Serialize the full header. The first 16 bytes are magic, version and
/// the header checksum; `header_checksum` covers everything after those 16
/// bytes (including the trailing table checksum), so any single-bit flip
/// anywhere in the header is detectable.
Bytes serialize_header(const std::string& variable, const comp::Shape& shape,
                       std::optional<float> fill, std::uint32_t member_count,
                       std::span<const std::size_t> offsets,
                       std::uint64_t header_checksum, std::uint64_t table_checksum) {
  Bytes header;
  ByteWriter w(header);
  w.u32(kChunkStoreMagic);
  w.u32(kChunkStoreVersion);
  w.u64(header_checksum);
  w.str(variable);
  w.u8(static_cast<std::uint8_t>(shape.rank()));
  for (const std::size_t d : shape.dims) w.u64(d);
  w.u8(fill ? 1 : 0);
  w.f32(fill ? *fill : 0.0f);
  w.u32(member_count);
  w.u32(static_cast<std::uint32_t>(offsets.size() - 1));
  for (const std::size_t off : offsets) w.u64(off);
  w.u64(table_checksum);
  return header;
}

/// Unique temp name: concurrent writers (including other processes
/// spilling into a shared directory) must never collide on the in-flight
/// file, or one writer's rename would publish another's half-written data.
std::string unique_tmp_name(const std::string& path) {
  static std::atomic<std::uint64_t> seq{0};
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

std::uint64_t checksum_of(std::span<const float> data) {
  return util::fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(data.data()), data.size() * sizeof(float)});
}

}  // namespace

ChunkStoreWriter::ChunkStoreWriter(std::string path, std::string variable,
                                   comp::Shape shape, std::optional<float> fill,
                                   std::uint32_t member_count,
                                   std::span<const std::size_t> chunk_offsets)
    : path_(std::move(path)),
      tmp_(unique_tmp_name(path_)),
      variable_(std::move(variable)),
      shape_(std::move(shape)),
      fill_(fill),
      offsets_(chunk_offsets.begin(), chunk_offsets.end()),
      member_count_(member_count) {
  CESM_REQUIRE(member_count_ >= 1 && member_count_ <= kMaxMembers);
  CESM_REQUIRE(shape_.rank() >= 1 && shape_.rank() <= kMaxRank);
  CESM_REQUIRE(offsets_.size() >= 2 && offsets_.front() == 0);
  total_elems_ = shape_.count();
  CESM_REQUIRE(offsets_.back() == total_elems_);
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
    CESM_REQUIRE(offsets_[c] < offsets_[c + 1]);
  }
  checksums_.assign(std::size_t{member_count_} * (offsets_.size() - 1), 0);

  const Bytes header =
      serialize_header(variable_, shape_, fill_, member_count_, offsets_, 0, 0);
  header_bytes_ = header.size();

  fd_ = ::open(tmp_.c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw IoError("chunkstore cannot create: " + tmp_ + ": " + std::strerror(errno));
  }
  CESM_FAILPOINT("ncio.write");
  write_fully(fd_, header.data(), header.size(), 0, tmp_);
  // Size the full file (header + checksum table + payload) up front so
  // concurrent writers never race the file length and a crash leaves an
  // obviously-short .tmp, not the store.
  const std::uint64_t total = header_bytes_ + std::uint64_t{8} * checksums_.size() +
                              std::uint64_t{4} * total_elems_ * member_count_;
  if (::ftruncate(fd_, static_cast<::off_t>(total)) != 0) {
    throw IoError("chunkstore cannot size: " + tmp_ + ": " + std::strerror(errno));
  }
}

ChunkStoreWriter::~ChunkStoreWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
    std::error_code ec;
    std::filesystem::remove(tmp_, ec);  // finish() was never called
  }
}

void ChunkStoreWriter::write_chunk(std::uint32_t member, std::size_t chunk,
                                   std::span<const float> data) {
  CESM_REQUIRE(fd_ >= 0);
  CESM_REQUIRE(member < member_count_ && chunk + 1 < offsets_.size());
  CESM_REQUIRE(data.size() == offsets_[chunk + 1] - offsets_[chunk]);
  const std::uint64_t offset =
      header_bytes_ + std::uint64_t{8} * checksums_.size() +
      std::uint64_t{4} * (std::uint64_t{member} * total_elems_ + offsets_[chunk]);
  write_fully(fd_, data.data(), data.size() * sizeof(float), offset, tmp_);
  checksums_[std::size_t{member} * (offsets_.size() - 1) + chunk] = checksum_of(data);
  trace::add(trace::Counter::kOocChunksWritten);
}

void ChunkStoreWriter::finish() {
  CESM_REQUIRE(fd_ >= 0);
  Bytes table;
  {
    ByteWriter w(table);
    for (const std::uint64_t sum : checksums_) w.u64(sum);
  }
  const std::uint64_t table_checksum = util::fnv1a64(table);
  // The header was written with placeholder checksums at construction;
  // re-serialize it now that the real ones are known and self-checksum
  // the result. The file is only renamed into existence after this, so
  // readers never see the placeholder version.
  Bytes header = serialize_header(variable_, shape_, fill_, member_count_,
                                  offsets_, 0, table_checksum);
  CESM_REQUIRE(header.size() == header_bytes_);
  const std::uint64_t header_checksum =
      util::fnv1a64(std::span<const std::uint8_t>(header).subspan(16));
  for (int i = 0; i < 8; ++i) {
    header[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(header_checksum >> (8 * i));
  }
  write_fully(fd_, header.data(), header.size(), 0, tmp_);
  write_fully(fd_, table.data(), table.size(), header_bytes_, tmp_);
  if (::fsync(fd_) != 0) {
    throw IoError("chunkstore fsync failed: " + tmp_ + ": " + std::strerror(errno));
  }
  ::close(fd_);
  fd_ = -1;
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    std::filesystem::remove(tmp_, ec);
    throw IoError("chunkstore cannot rename " + tmp_ + " to " + path_);
  }
}

ChunkStoreReader::ChunkStoreReader(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    throw IoError("chunkstore cannot open: " + path + ": " + std::strerror(errno));
  }
  // Headers are small; read a generous fixed prefix and parse from it.
  const std::uint64_t file_size = [&] {
    const ::off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) throw IoError("chunkstore cannot seek: " + path);
    return static_cast<std::uint64_t>(end);
  }();
  Bytes prefix(std::min<std::uint64_t>(file_size, 1 << 20));
  read_fully(fd_, prefix.data(), prefix.size(), 0, path_);
  try {
    ByteReader r(prefix);
    if (r.u32() != kChunkStoreMagic) throw FormatError("chunkstore: bad magic");
    if (r.u32() != kChunkStoreVersion) throw FormatError("chunkstore: bad version");
    const std::uint64_t header_checksum = r.u64();
    variable_ = r.str();
    const std::uint8_t rank = r.u8();
    if (rank < 1 || rank > kMaxRank) throw FormatError("chunkstore: bad rank");
    std::size_t count = 1;
    for (std::uint8_t d = 0; d < rank; ++d) {
      const std::uint64_t dim = r.u64();
      if (dim == 0 || dim > comp::wire::kMaxDecodeElements ||
          count > comp::wire::kMaxDecodeElements / dim) {
        throw FormatError("chunkstore: bad dimension");
      }
      shape_.dims.push_back(static_cast<std::size_t>(dim));
      count *= static_cast<std::size_t>(dim);
    }
    const bool has_fill = r.u8() != 0;
    const float fill = r.f32();
    if (has_fill) fill_ = fill;
    member_count_ = r.u32();
    if (member_count_ < 1 || member_count_ > kMaxMembers) {
      throw FormatError("chunkstore: bad member count");
    }
    const std::uint32_t chunks = r.u32();
    if (chunks == 0 || chunks > count) throw FormatError("chunkstore: bad chunk count");
    offsets_.resize(std::size_t{chunks} + 1);
    for (std::size_t c = 0; c <= chunks; ++c) {
      offsets_[c] = static_cast<std::size_t>(r.u64());
    }
    if (offsets_.front() != 0 || offsets_.back() != count) {
      throw FormatError("chunkstore: chunk offsets disagree with shape");
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      if (offsets_[c] >= offsets_[c + 1]) {
        throw FormatError("chunkstore: chunk offsets not increasing");
      }
    }
    const std::uint64_t table_checksum = r.u64();
    header_bytes_ = r.position();
    // The header attests to itself before any of its values are used to
    // size reads: a flipped bit that still parses cleanly dies here.
    if (util::fnv1a64(std::span<const std::uint8_t>(prefix).first(header_bytes_)
                          .subspan(16)) != header_checksum) {
      throw FormatError("chunkstore: header checksum mismatch");
    }
    const std::uint64_t table_bytes =
        std::uint64_t{8} * member_count_ * chunks;
    const std::uint64_t expected =
        header_bytes_ + table_bytes + std::uint64_t{4} * count * member_count_;
    if (file_size != expected) throw FormatError("chunkstore: payload size mismatch");
    Bytes table(static_cast<std::size_t>(table_bytes));
    read_fully(fd_, table.data(), table.size(), header_bytes_, path_);
    if (util::fnv1a64(table) != table_checksum) {
      throw FormatError("chunkstore: chunk table checksum mismatch");
    }
    checksums_.resize(std::size_t{member_count_} * chunks);
    ByteReader tr(table);
    for (std::uint64_t& sum : checksums_) sum = tr.u64();
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

ChunkStoreReader::~ChunkStoreReader() {
  if (fd_ >= 0) ::close(fd_);
}

void ChunkStoreReader::read_chunk(std::uint32_t member, std::size_t chunk,
                                  std::span<float> out) const {
  CESM_REQUIRE(member < member_count_ && chunk + 1 < offsets_.size());
  CESM_REQUIRE(out.size() == offsets_[chunk + 1] - offsets_[chunk]);
  CESM_FAILPOINT("ncio.read_chunk");
  const std::uint64_t offset =
      header_bytes_ + std::uint64_t{8} * checksums_.size() +
      std::uint64_t{4} * (std::uint64_t{member} * offsets_.back() + offsets_[chunk]);
  read_fully(fd_, out.data(), out.size() * sizeof(float), offset, path_);
  const std::uint64_t expected =
      checksums_[std::size_t{member} * chunk_count() + chunk];
  if (checksum_of(out) != expected) {
    throw FormatError("chunkstore: chunk checksum mismatch (member " +
                      std::to_string(member) + ", chunk " + std::to_string(chunk) +
                      "): " + path_);
  }
  trace::add(trace::Counter::kOocChunksRead);
}

}  // namespace cesm::ncio
