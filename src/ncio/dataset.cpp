#include "ncio/dataset.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "compress/deflate/deflate.h"
#include "compress/variants.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/trace.h"

namespace cesm::ncio {

namespace {

constexpr std::uint32_t kFileMagic = 0x31434e43;  // "CNC1"
constexpr std::uint16_t kVersion = 2;

void write_attr(ByteWriter& w, const std::string& name, const AttrValue& value) {
  w.str(name);
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    w.u8(0);
    w.i64(*i);
  } else if (const auto* d = std::get_if<double>(&value)) {
    w.u8(1);
    w.f64(*d);
  } else {
    w.u8(2);
    w.str(std::get<std::string>(value));
  }
}

std::pair<std::string, AttrValue> read_attr(ByteReader& r) {
  std::string name = r.str();
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case 0:
      return {std::move(name), AttrValue{r.i64()}};
    case 1:
      return {std::move(name), AttrValue{r.f64()}};
    case 2:
      return {std::move(name), AttrValue{r.str()}};
    default:
      throw FormatError("unknown attribute tag");
  }
}

void write_attrs(ByteWriter& w, const std::map<std::string, AttrValue>& attrs) {
  w.u32(static_cast<std::uint32_t>(attrs.size()));
  for (const auto& [name, value] : attrs) write_attr(w, name, value);
}

std::map<std::string, AttrValue> read_attrs(ByteReader& r) {
  std::map<std::string, AttrValue> attrs;
  const std::uint32_t n = r.u32();
  if (n > (1u << 20)) throw FormatError("implausible attribute count");
  for (std::uint32_t i = 0; i < n; ++i) attrs.insert(read_attr(r));
  return attrs;
}

comp::Shape payload_shape(const Variable& v, const std::vector<Dimension>& dims) {
  comp::Shape shape;
  for (std::uint32_t id : v.dim_ids) shape.dims.push_back(dims[id].length);
  if (shape.dims.empty()) shape.dims.push_back(v.element_count());
  return shape;
}

Bytes payload_bytes(const Variable& v, const std::vector<Dimension>& dims) {
  if (v.storage == Storage::kCodec) {
    CESM_REQUIRE(!v.codec_spec.empty());
    const std::optional<float> fill =
        v.fill_value ? std::optional<float>(static_cast<float>(*v.fill_value))
                     : std::nullopt;
    const comp::CodecPtr codec = comp::make_variant(v.codec_spec, fill);
    const comp::Shape shape = payload_shape(v, dims);
    if (v.dtype == DataType::kFloat32) {
      return codec->encode(v.f32, shape);
    }
    return codec->encode64(v.f64, shape);
  }
  Bytes raw;
  if (v.dtype == DataType::kFloat32) {
    raw.resize(v.f32.size() * sizeof(float));
    std::memcpy(raw.data(), v.f32.data(), raw.size());
  } else {
    raw.resize(v.f64.size() * sizeof(double));
    std::memcpy(raw.data(), v.f64.data(), raw.size());
  }
  if (v.storage == Storage::kDeflate) {
    const std::size_t elem = v.dtype == DataType::kFloat32 ? 4 : 8;
    return comp::deflate_compress(comp::shuffle_bytes(raw, elem));
  }
  return raw;
}

}  // namespace

std::uint32_t Dataset::add_dimension(const std::string& name, std::uint64_t length) {
  CESM_REQUIRE(!name.empty());
  CESM_REQUIRE(length > 0);
  CESM_REQUIRE(!find_dimension(name).has_value());
  dims_.push_back(Dimension{name, length});
  return static_cast<std::uint32_t>(dims_.size() - 1);
}

const Dimension& Dataset::dimension(std::uint32_t id) const {
  CESM_REQUIRE(id < dims_.size());
  return dims_[id];
}

std::optional<std::uint32_t> Dataset::find_dimension(const std::string& name) const {
  for (std::uint32_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].name == name) return i;
  }
  return std::nullopt;
}

Variable& Dataset::add_variable(Variable var) {
  CESM_REQUIRE(!var.name.empty());
  CESM_REQUIRE(find_variable(var.name) == nullptr);
  std::uint64_t expected = 1;
  for (std::uint32_t id : var.dim_ids) {
    CESM_REQUIRE(id < dims_.size());
    expected *= dims_[id].length;
  }
  CESM_REQUIRE(var.element_count() == expected);
  vars_.push_back(std::move(var));
  return vars_.back();
}

const Variable* Dataset::find_variable(const std::string& name) const {
  for (const Variable& v : vars_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

Variable* Dataset::find_variable(const std::string& name) {
  for (Variable& v : vars_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

Bytes Dataset::serialize() const {
  trace::Span span("ncio.write");
  CESM_FAILPOINT("ncio.write");
  Bytes out;
  ByteWriter w(out);
  w.u32(kFileMagic);
  w.u16(kVersion);
  write_attrs(w, attrs_);

  w.u32(static_cast<std::uint32_t>(dims_.size()));
  for (const Dimension& d : dims_) {
    w.str(d.name);
    w.u64(d.length);
  }

  w.u32(static_cast<std::uint32_t>(vars_.size()));
  for (const Variable& v : vars_) {
    w.str(v.name);
    w.u8(static_cast<std::uint8_t>(v.dtype));
    w.u8(static_cast<std::uint8_t>(v.storage));
    w.str(v.codec_spec);
    w.u8(v.fill_value ? 1 : 0);
    w.f64(v.fill_value.value_or(0.0));
    w.u32(static_cast<std::uint32_t>(v.dim_ids.size()));
    for (std::uint32_t id : v.dim_ids) w.u32(id);
    write_attrs(w, v.attrs);
    const Bytes payload = payload_bytes(v, dims_);
    w.u64(payload.size());
    w.raw(payload);
  }
  trace::add(trace::Counter::kNcioBytesWritten, out.size());
  return out;
}

Dataset Dataset::deserialize(std::span<const std::uint8_t> bytes) {
  trace::Span span("ncio.read");
  CESM_FAILPOINT("ncio.read");
  trace::add(trace::Counter::kNcioBytesRead, bytes.size());
  ByteReader r(bytes);
  if (r.u32() != kFileMagic) throw FormatError("not a CNC1 dataset");
  if (r.u16() != kVersion) throw FormatError("unsupported CNC1 version");

  Dataset ds;
  ds.attrs_ = read_attrs(r);

  const std::uint32_t ndims = r.u32();
  if (ndims > (1u << 16)) throw FormatError("implausible dimension count");
  for (std::uint32_t i = 0; i < ndims; ++i) {
    std::string name = r.str();
    const std::uint64_t length = r.u64();
    if (length == 0 || length > comp::wire::kMaxDecodeElements) {
      throw FormatError("bad dimension length");
    }
    ds.dims_.push_back(Dimension{std::move(name), length});
  }

  const std::uint32_t nvars = r.u32();
  if (nvars > (1u << 20)) throw FormatError("implausible variable count");
  for (std::uint32_t i = 0; i < nvars; ++i) {
    Variable v;
    v.name = r.str();
    const std::uint8_t dtype = r.u8();
    if (dtype > 1) throw FormatError("unknown dtype");
    v.dtype = static_cast<DataType>(dtype);
    const std::uint8_t storage = r.u8();
    if (storage > 2) throw FormatError("unknown storage");
    v.storage = static_cast<Storage>(storage);
    v.codec_spec = r.str();
    if (v.storage == Storage::kCodec && v.codec_spec.empty()) {
      throw FormatError("codec storage without codec spec");
    }
    const bool has_fill = r.u8() != 0;
    const double stored_fill = r.f64();
    if (has_fill) v.fill_value = stored_fill;

    const std::uint32_t rank = r.u32();
    if (rank > 8) throw FormatError("implausible rank");
    std::uint64_t expected = 1;
    for (std::uint32_t k = 0; k < rank; ++k) {
      const std::uint32_t id = r.u32();
      if (id >= ds.dims_.size()) throw FormatError("dimension id out of range");
      v.dim_ids.push_back(id);
      expected *= ds.dims_[id].length;
      if (expected > comp::wire::kMaxDecodeElements) {
        throw FormatError("implausible variable size");
      }
    }
    v.attrs = read_attrs(r);

    const std::uint64_t payload_size = r.u64();
    auto payload = r.raw(payload_size);
    if (v.storage == Storage::kCodec) {
      const std::optional<float> fill =
          v.fill_value ? std::optional<float>(static_cast<float>(*v.fill_value))
                       : std::nullopt;
      const comp::CodecPtr codec = comp::make_variant(v.codec_spec, fill);
      if (v.dtype == DataType::kFloat32) {
        v.f32 = codec->decode(payload);
        if (v.f32.size() != expected) throw FormatError("codec payload count mismatch");
      } else {
        v.f64 = codec->decode64(payload);
        if (v.f64.size() != expected) throw FormatError("codec payload count mismatch");
      }
    } else {
      std::vector<std::uint8_t> raw;
      if (v.storage == Storage::kDeflate) {
        const std::size_t elem = v.dtype == DataType::kFloat32 ? 4 : 8;
        raw = comp::unshuffle_bytes(comp::deflate_decompress(payload), elem);
      } else {
        raw.assign(payload.begin(), payload.end());
      }
      const std::size_t elem = v.dtype == DataType::kFloat32 ? 4 : 8;
      if (raw.size() != expected * elem) throw FormatError("variable payload size mismatch");
      if (v.dtype == DataType::kFloat32) {
        v.f32.resize(expected);
        std::memcpy(v.f32.data(), raw.data(), raw.size());
      } else {
        v.f64.resize(expected);
        std::memcpy(v.f64.data(), raw.data(), raw.size());
      }
    }
    ds.vars_.push_back(std::move(v));
  }
  return ds;
}

void Dataset::write_file(const std::string& path) const {
  CESM_FAILPOINT("ncio.write_file");
  const Bytes bytes = serialize();
  // Temp + rename: a writer killed mid-write (SIGTERM, crash, full disk)
  // must never leave a torn dataset at the destination path.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw IoError("cannot open for writing: " + tmp);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f) {
      f.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw IoError("write failed: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw IoError("cannot rename " + tmp + " to " + path);
  }
}

Dataset Dataset::read_file(const std::string& path) {
  CESM_FAILPOINT("ncio.read_file");
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw IoError("cannot open for reading: " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  Bytes bytes(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!f) throw IoError("read failed: " + path);
  return deserialize(bytes);
}

std::size_t Dataset::stored_payload_bytes(const std::string& var_name) const {
  const Variable* v = find_variable(var_name);
  CESM_REQUIRE(v != nullptr);
  return payload_bytes(*v, dims_).size();
}

}  // namespace cesm::ncio
