// Where a saved database file keeps each fragment's shortcut relation,
// read straight from the file's bytes (docs/STORAGE.md), so that a test
// can damage one fragment's pages after a clean open.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fragment/fragmentation.h"
#include "storage/page.h"

namespace tcf {
namespace shortcut_extents {

/// One fragment's shortcut relation in a file saved with kMinPageSize.
struct Extent {
  FragmentId fragment = 0;
  uint64_t first_page = 0;
  uint64_t num_pages = 0;
};

inline std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

inline uint64_t ReadU64(const std::vector<char>& bytes, size_t at) {
  uint64_t value = 0;
  for (size_t i = 0; i < 8; ++i) {
    value |= uint64_t{static_cast<uint8_t>(bytes[at + i])} << (8 * i);
  }
  return value;
}

/// Every fragment's extent: the superblock's directory extent (payload
/// offset 112), then one {first_page, byte_len, tuple_count} entry per
/// fragment after the directory's count. Entries past the end of the
/// file are left out.
inline std::vector<Extent> ReadExtents(const std::vector<char>& file) {
  const size_t payload = kPageHeaderSize;
  const uint64_t directory = ReadU64(file, payload + 112) * kMinPageSize;
  const uint64_t count = ReadU64(file, directory + payload);
  std::vector<Extent> extents;
  for (FragmentId f = 0; f < count; ++f) {
    const size_t entry = directory + payload + 8 + 24 * f;
    if (entry + 24 > file.size()) break;
    const uint64_t pages =
        (ReadU64(file, entry + 8) + PagePayloadCapacity(kMinPageSize) - 1) /
        PagePayloadCapacity(kMinPageSize);
    extents.push_back(Extent{f, ReadU64(file, entry), pages});
  }
  return extents;
}

/// The first of the extents that span the most pages.
inline Extent Largest(const std::vector<Extent>& extents) {
  Extent largest;
  for (const Extent& e : extents) {
    if (e.num_pages > largest.num_pages) largest = e;
  }
  return largest;
}

/// Flips one payload byte in each page of `extent`; `file` holds the
/// bytes as they were. False when the write fails.
inline bool CorruptExtent(const std::string& path,
                          const std::vector<char>& file,
                          const Extent& extent) {
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  for (uint64_t p = extent.first_page;
       p < extent.first_page + extent.num_pages; ++p) {
    const auto at =
        static_cast<std::streamoff>(p * kMinPageSize + kPageHeaderSize);
    io.seekp(at);
    const char flipped = static_cast<char>(file[at] ^ 0x5A);
    io.write(&flipped, 1);
  }
  return io.good();
}

}  // namespace shortcut_extents
}  // namespace tcf
