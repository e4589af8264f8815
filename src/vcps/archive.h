// Binary persistence for measurement periods.
//
// RSU reports are the system of record: a regulator re-running an
// estimate, or a study aggregating months of periods, needs them on
// disk. The format (version 2) is deliberately simple and self-checking:
//
//   [magic "VLMA"] [u32 version] [u64 period] [u32 report_count]
//   repeated: [u64 rsu_id] [u64 counter] [u64 array_size]
//             [u32 byte_count] [bytes...]
//   [u64 checksum over everything before it]
//
// All integers little-endian. The checksum chains mix64 over each field
// in write order: fields under 32 bytes byte by byte, longer payloads as
// four independent word lanes folded into the chain (archive.cpp). It
// guards against corruption and truncation, not tampering. Readers
// validate magic, version, counts, sizes, and the checksum, and reject
// anything inconsistent with a descriptive exception. save_archive
// writes `<path>.tmp` and renames it over `path`, so a failed save
// leaves the previous archive untouched.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "vcps/messages.h"

namespace vlm::vcps {

struct PeriodArchive {
  std::uint64_t period = 0;
  std::vector<RsuReport> reports;
};

// Stream interface (unit-testable without touching the filesystem).
void write_archive(std::ostream& out, const PeriodArchive& archive);
PeriodArchive read_archive(std::istream& in);

// File convenience wrappers. Throw std::runtime_error on I/O failure.
void save_archive(const std::string& path, const PeriodArchive& archive);
PeriodArchive load_archive(const std::string& path);

}  // namespace vlm::vcps
