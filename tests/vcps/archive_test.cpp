#include "vcps/archive.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "common/bit_array.h"

namespace vlm::vcps {
namespace {

PeriodArchive sample_archive() {
  PeriodArchive archive;
  archive.period = 42;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    common::BitArray bits(1 << 10);
    bits.set(id * 7);
    bits.set(id * 13);
    RsuReport report;
    report.rsu = core::RsuId{id};
    report.period = 42;
    report.counter = id * 100;
    report.array_size = bits.size();
    report.bits = bits.to_bytes();
    archive.reports.push_back(std::move(report));
  }
  return archive;
}

void expect_same_archive(const PeriodArchive& actual,
                         const PeriodArchive& expected) {
  EXPECT_EQ(actual.period, expected.period);
  ASSERT_EQ(actual.reports.size(), expected.reports.size());
  for (std::size_t i = 0; i < expected.reports.size(); ++i) {
    EXPECT_EQ(actual.reports[i].rsu, expected.reports[i].rsu);
    EXPECT_EQ(actual.reports[i].period, expected.reports[i].period);
    EXPECT_EQ(actual.reports[i].counter, expected.reports[i].counter);
    EXPECT_EQ(actual.reports[i].array_size, expected.reports[i].array_size);
    EXPECT_EQ(actual.reports[i].bits, expected.reports[i].bits);
  }
}

std::string archive_bytes(const PeriodArchive& archive) {
  std::stringstream stream;
  write_archive(stream, archive);
  return stream.str();
}

TEST(Archive, RoundTripsThroughStream) {
  const PeriodArchive original = sample_archive();
  std::stringstream stream;
  write_archive(stream, original);
  const PeriodArchive restored = read_archive(stream);
  EXPECT_EQ(restored.period, 42u);
  ASSERT_EQ(restored.reports.size(), 3u);
  expect_same_archive(restored, original);
}

TEST(Archive, RoundTripsThroughFile) {
  const std::string path = testing::TempDir() + "/vlm_archive_test.bin";
  save_archive(path, sample_archive());
  const PeriodArchive restored = load_archive(path);
  EXPECT_EQ(restored.reports.size(), 3u);
}

TEST(Archive, EmptyPeriodIsValid) {
  PeriodArchive empty;
  empty.period = 7;
  std::stringstream stream;
  write_archive(stream, empty);
  const PeriodArchive restored = read_archive(stream);
  EXPECT_EQ(restored.period, 7u);
  EXPECT_TRUE(restored.reports.empty());
}

TEST(Archive, DetectsTruncation) {
  std::stringstream stream;
  write_archive(stream, sample_archive());
  std::string data = stream.str();
  data.resize(data.size() - 20);
  std::stringstream truncated(data);
  EXPECT_THROW((void)read_archive(truncated), std::runtime_error);
}

TEST(Archive, DetectsBitFlips) {
  std::stringstream stream;
  write_archive(stream, sample_archive());
  std::string data = stream.str();
  // Flip one payload byte somewhere in the middle.
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  std::stringstream corrupted(data);
  EXPECT_THROW((void)read_archive(corrupted), std::runtime_error);
}

TEST(Archive, RejectsForeignData) {
  std::stringstream junk("this is not an archive at all, sorry");
  EXPECT_THROW((void)read_archive(junk), std::runtime_error);
}

TEST(Archive, RejectsImplausibleArraySize) {
  // Handcraft a header with a non-power-of-two array size by corrupting
  // a valid archive at the size field and fixing nothing else: the size
  // check fires before the checksum.
  PeriodArchive archive = sample_archive();
  archive.reports.resize(1);
  std::stringstream stream;
  write_archive(stream, archive);
  std::string data = stream.str();
  // Layout: magic(4) version(4) period(8) count(4) rsu(8) counter(8)
  // -> array size at offset 36.
  data[36] = 0x03;
  std::stringstream corrupted(data);
  EXPECT_THROW((void)read_archive(corrupted), std::runtime_error);
}

TEST(Archive, WriteRejectsInconsistentReports) {
  PeriodArchive archive = sample_archive();
  archive.reports[0].period = 43;  // mismatched period
  std::stringstream stream;
  EXPECT_THROW(write_archive(stream, archive), std::invalid_argument);

  archive = sample_archive();
  archive.reports[0].bits.pop_back();  // byte count mismatch
  EXPECT_THROW(write_archive(stream, archive), std::invalid_argument);
}

TEST(Archive, ChecksumOfSampleArchiveIsPinned) {
  // Known answer for the version-2 lane digest: a change here breaks
  // every archive already on disk, so it must come with a version bump.
  const std::string data = archive_bytes(sample_archive());
  ASSERT_EQ(data.size(), 20u + 3 * (28u + 128u) + 8u);
  std::uint64_t checksum = 0;  // trailing u64, little-endian
  std::memcpy(&checksum, data.data() + data.size() - 8, sizeof checksum);
  EXPECT_EQ(checksum, 0x9AFE6F4DDFAF0724ull);
}

TEST(Archive, RejectsVersionOneArchives) {
  std::string data = archive_bytes(sample_archive());
  ASSERT_EQ(data[4], 2);  // u32 version at offset 4, little-endian
  data[4] = 1;
  std::stringstream stream(data);
  try {
    (void)read_archive(stream);
    FAIL() << "a version-1 archive was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unsupported archive version 1");
  }
}

TEST(Archive, FailedSaveLeavesPreviousArchiveIntact) {
  const std::string path = testing::TempDir() + "/vlm_archive_replace.bin";
  const PeriodArchive saved = sample_archive();
  save_archive(path, saved);

  PeriodArchive inconsistent = sample_archive();
  inconsistent.period = 43;  // reports still say period 42
  EXPECT_THROW(save_archive(path, inconsistent), std::invalid_argument);

  expect_same_archive(load_archive(path), saved);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Archive, MissingFilesThrow) {
  EXPECT_THROW((void)load_archive("/nonexistent/path.bin"),
               std::runtime_error);
  EXPECT_THROW(save_archive("/nonexistent-dir/x.bin", sample_archive()),
               std::runtime_error);
}

}  // namespace
}  // namespace vlm::vcps
