#include "vcps/archive.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/hashing.h"
#include "common/math_util.h"
#include "common/require.h"

namespace vlm::vcps {

namespace {

// Integers and digest words are little-endian on disk and are copied
// straight from and to memory.
static_assert(std::endian::native == std::endian::little,
              "the archive format is little-endian");

constexpr char kMagic[4] = {'V', 'L', 'M', 'A'};
constexpr std::uint32_t kVersion = 2;
// Bound against absurd inputs when reading untrusted files.
constexpr std::uint32_t kMaxReports = 1 << 20;
constexpr std::uint64_t kMaxArrayBits = std::uint64_t{1} << 34;

// Checksum. Fields under 32 bytes are chained byte by byte. Longer
// fields run four independent lanes over their little-endian words
// (word i feeds lane i % 4), fold the lanes into the chain in lane order,
// and chain any < 32-byte tail byte by byte. The lanes overlap in the
// CPU, so payloads digest at word speed. Every step is a bijection of
// the state it updates, so any single changed byte changes the result.
class Digest {
 public:
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    if (size >= kLanes * 8) {
      std::uint64_t lanes[kLanes] = {kLaneSeed, kLaneSeed, kLaneSeed,
                                     kLaneSeed};
      for (; size >= kLanes * 8; size -= kLanes * 8, bytes += kLanes * 8) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          std::uint64_t w;
          std::memcpy(&w, bytes + 8 * l, 8);
          lanes[l] = step(lanes[l], w);
        }
      }
      for (const std::uint64_t lane : lanes) state_ = step(state_, lane);
    }
    for (std::size_t i = 0; i < size; ++i) state_ = step(state_, bytes[i]);
  }
  std::uint64_t value() const { return state_; }

 private:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::uint64_t kLaneSeed = 0x3C6EF372FE94F82Bull;
  static std::uint64_t step(std::uint64_t state, std::uint64_t v) {
    return common::mix64(state ^ (v + 0x9E3779B97F4A7C15ull));
  }
  std::uint64_t state_ = 0xA5A5A5A55A5A5A5Aull;
};

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  void bytes(void* data, std::size_t size) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (static_cast<std::size_t>(in_.gcount()) != size) {
      throw std::runtime_error("archive truncated");
    }
    digest_.update(data, size);
  }
  template <typename T>
  T read() {
    T v;
    bytes(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::uint64_t digest() const { return digest_.value(); }

 private:
  std::istream& in_;
  Digest digest_;
};

}  // namespace

void write_archive(std::ostream& out, const PeriodArchive& archive) {
  VLM_REQUIRE(archive.reports.size() <= kMaxReports,
              "too many reports for one archive");
  Digest digest;
  auto put = [&](const void* data, std::size_t size) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    digest.update(data, size);
  };
  auto put_u32 = [&](std::uint32_t v) { put(&v, sizeof v); };
  auto put_u64 = [&](std::uint64_t v) { put(&v, sizeof v); };
  put(kMagic, 4);
  put_u32(kVersion);
  put_u64(archive.period);
  put_u32(static_cast<std::uint32_t>(archive.reports.size()));
  for (const RsuReport& report : archive.reports) {
    VLM_REQUIRE(report.period == archive.period,
                "report period does not match the archive period");
    VLM_REQUIRE(report.bits.size() == (report.array_size + 7) / 8,
                "report byte buffer does not match its array size");
    put_u64(report.rsu.value);
    put_u64(report.counter);
    put_u64(report.array_size);
    put_u32(static_cast<std::uint32_t>(report.bits.size()));
    if (!report.bits.empty()) put(report.bits.data(), report.bits.size());
  }
  put_u64(digest.value());  // the checksum covers everything before it
  if (!out) throw std::runtime_error("archive write failed");
}

PeriodArchive read_archive(std::istream& in) {
  Reader r(in);
  char magic[4];
  r.bytes(magic, 4);
  if (std::string(magic, 4) != std::string(kMagic, 4)) {
    throw std::runtime_error("not a VLM archive (bad magic)");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw std::runtime_error("unsupported archive version " +
                             std::to_string(version));
  }
  PeriodArchive archive;
  archive.period = r.u64();
  const std::uint32_t count = r.u32();
  if (count > kMaxReports) {
    throw std::runtime_error("implausible report count in archive");
  }
  archive.reports.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RsuReport report;
    report.period = archive.period;
    report.rsu = core::RsuId{r.u64()};
    report.counter = r.u64();
    const std::uint64_t array_size = r.u64();
    if (array_size < 2 || array_size > kMaxArrayBits ||
        !common::is_power_of_two(array_size)) {
      throw std::runtime_error("implausible array size in archive");
    }
    report.array_size = static_cast<std::size_t>(array_size);
    const std::uint32_t byte_count = r.u32();
    if (byte_count != (report.array_size + 7) / 8) {
      throw std::runtime_error("archive byte count does not match array size");
    }
    report.bits.resize(byte_count);
    r.bytes(report.bits.data(), byte_count);
    archive.reports.push_back(std::move(report));
  }
  const std::uint64_t expected = r.digest();
  if (r.u64() != expected) {
    throw std::runtime_error("archive checksum mismatch");
  }
  return archive;
}

void save_archive(const std::string& path, const PeriodArchive& archive) {
  // Write a sibling temp file and rename it over `path` only once it is
  // complete, so a failed save never leaves a torn or missing archive.
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open archive for writing: " + path);
    write_archive(out, archive);
    out.close();
    if (!out) throw std::runtime_error("archive write failed: " + path);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

PeriodArchive load_archive(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open archive: " + path);
  return read_archive(in);
}

}  // namespace vlm::vcps
