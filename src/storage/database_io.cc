#include "storage/database_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "graph/builder.h"
#include "net/wire.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace tcf {

namespace {

// "TCFRAGDB" read as a little-endian u64 (docs/STORAGE.md "Superblock").
constexpr uint64_t kDbMagic = 0x4244474152464354ull;
constexpr uint32_t kFormatVersion = 1;
// Fixed size of the superblock payload; fits the smallest legal page.
constexpr uint32_t kSuperblockPayloadLen = 144;
static_assert(kSuperblockPayloadLen <= kMinPageSize - kPageHeaderSize);

// File offsets of the probe fields, derived from the page header size and
// the superblock payload layout (magic is payload offset 0, version 8,
// page_size 12).
constexpr size_t kProbeMagicOffset = kPageHeaderSize + 0;
constexpr size_t kProbeVersionOffset = kPageHeaderSize + 8;
constexpr size_t kProbePageSizeOffset = kPageHeaderSize + 12;
constexpr size_t kProbeBytes = kProbePageSizeOffset + 4;

// A run of pages holding one serialized blob: storage/paged_tuple_store.h's
// PageExtent — shared with the paged relations, which address fragment
// shortcut blobs by exactly these directory extents.
using Extent = PageExtent;

/// One fragment's entry in the fragment directory.
struct DirectoryEntry {
  Extent extent;
  uint64_t tuple_count = 0;
};

struct Superblock {
  uint64_t page_count = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t num_fragments = 0;
  uint64_t epoch = 0;
  bool has_coords = false;
  bool has_complementary = false;
  uint64_t comp_total_tuples = 0;
  uint64_t comp_searches = 0;
  Extent graph_extent;
  Extent assign_extent;
  Extent directory_extent;
  Extent witness_extent;
};

// ---------------------------------------------------------------------------
// Encoders (WireWriter — everything little-endian, fixed-width)

std::string EncodeGraphBlob(const Graph& g) {
  WireWriter w;
  w.PutU64(g.NumNodes());
  w.PutU64(g.NumEdges());
  w.PutU8(g.has_coordinates() ? 1 : 0);
  for (const Edge& e : g.edges()) {
    w.PutU32(e.src);
    w.PutU32(e.dst);
    w.PutF64(e.weight);
  }
  if (g.has_coordinates()) {
    for (const Point& p : g.coordinates()) {
      w.PutF64(p.x);
      w.PutF64(p.y);
    }
  }
  return w.TakeBuffer();
}

std::string EncodeAssignmentBlob(const Fragmentation& frag) {
  WireWriter w;
  w.PutU64(frag.fragment_of_edge().size());
  w.PutU64(frag.NumFragments());
  for (FragmentId owner : frag.fragment_of_edge()) w.PutU32(owner);
  return w.TakeBuffer();
}

Result<std::string> EncodeShortcutBlob(const Relation& shortcuts) {
  // Complementary precompute runs border-node searches on a pool, so tuple
  // arrival order is scheduling-dependent; sort a copy canonically so the
  // same database always produces the same bytes. The copy streams through
  // the cursor API, so re-saving a paged-open database works too — and a
  // paged scan that fails mid-way fails the save (a truncated blob must
  // never be written).
  std::vector<PathTuple> tuples;
  tuples.reserve(shortcuts.size());
  TCF_RETURN_NOT_OK(
      shortcuts.ForEach([&](const PathTuple& t) { tuples.push_back(t); }));
  std::sort(tuples.begin(), tuples.end(),
            [](const PathTuple& a, const PathTuple& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.cost < b.cost;
            });
  WireWriter w;
  w.PutU64(tuples.size());
  for (const PathTuple& t : tuples) {
    w.PutU32(t.src);
    w.PutU32(t.dst);
    w.PutF64(t.cost);
  }
  return w.TakeBuffer();
}

std::string EncodeWitnessBlob(const WitnessMap& witness) {
  size_t count = 0;
  for (const auto& [x, row] : witness) count += row->size();
  WireWriter w;
  w.PutU64(count);
  // Rows ascend by source and each row's targets ascend, so the keys come
  // out strictly increasing (deterministic bytes).
  for (const auto& [x, row] : witness) {
    for (size_t i = 0; i < row->size(); ++i) {
      const std::span<const NodeId> route = row->Route(i);
      w.PutU64(PairKey(x, row->targets[i]));
      w.PutU32(static_cast<uint32_t>(route.size()));
      for (NodeId n : route) w.PutU32(n);
    }
  }
  return w.TakeBuffer();
}

std::string EncodeDirectoryBlob(const std::vector<DirectoryEntry>& dir) {
  WireWriter w;
  w.PutU64(dir.size());
  for (const DirectoryEntry& e : dir) {
    w.PutU64(e.extent.first_page);
    w.PutU64(e.extent.byte_len);
    w.PutU64(e.tuple_count);
  }
  return w.TakeBuffer();
}

std::string EncodeSuperblockPayload(const Superblock& sb, size_t page_size) {
  WireWriter w;
  w.PutU64(kDbMagic);
  w.PutU32(kFormatVersion);
  w.PutU32(static_cast<uint32_t>(page_size));
  w.PutU64(sb.page_count);
  w.PutU64(sb.num_nodes);
  w.PutU64(sb.num_edges);
  w.PutU64(sb.num_fragments);
  w.PutU64(sb.epoch);
  w.PutU8(sb.has_coords ? 1 : 0);
  w.PutU8(sb.has_complementary ? 1 : 0);
  for (int i = 0; i < 6; ++i) w.PutU8(0);
  w.PutU64(sb.comp_total_tuples);
  w.PutU64(sb.comp_searches);
  for (const Extent* e : {&sb.graph_extent, &sb.assign_extent,
                          &sb.directory_extent, &sb.witness_extent}) {
    w.PutU64(e->first_page);
    w.PutU64(e->byte_len);
  }
  TCF_CHECK(w.size() == kSuperblockPayloadLen);
  return w.TakeBuffer();
}

/// Append `blob` to the end of `store` as sealed data pages; every page is
/// full except the last.
Status AppendBlob(PageStore& store, const std::string& blob,
                  Extent* extent) {
  const size_t page_size = store.page_size();
  const size_t capacity = PagePayloadCapacity(page_size);
  extent->first_page = store.page_count();
  extent->byte_len = blob.size();
  std::vector<uint8_t> page(page_size);
  size_t offset = 0;
  while (offset < blob.size()) {
    const size_t n = std::min(capacity, blob.size() - offset);
    std::memcpy(page.data() + kPageHeaderSize, blob.data() + offset, n);
    SealPage(page, PageType::kData, store.page_count(),
             static_cast<uint32_t>(n));
    TCF_RETURN_NOT_OK(store.WritePage(store.page_count(), page.data()));
    offset += n;
  }
  return Status::OK();
}

Status SaveDatabaseImpl(const DsaDatabase& db, uint64_t epoch,
                        const std::string& path, const SaveOptions& options) {
  if (!ValidPageSize(options.page_size)) {
    return Status::InvalidArgument(
        "SaveDatabase: page_size " + std::to_string(options.page_size) +
        " is not a power of two in [" + std::to_string(kMinPageSize) + ", " +
        std::to_string(kMaxPageSize) + "]");
  }
  const Fragmentation& frag = db.fragmentation();
  const Graph& g = frag.graph();

  const std::string tmp_path = path + ".tmp";
  auto store_result = FilePageStore::Create(tmp_path, options.page_size);
  if (!store_result.ok()) return store_result.status();
  std::unique_ptr<FilePageStore> store = std::move(store_result).value();

  // Page 0 is rewritten with the real superblock once the extents are
  // known; seal a placeholder so the file is never a valid database until
  // the final write (and the rename makes even that atomic).
  std::vector<uint8_t> page0(options.page_size);
  SealPage(page0, PageType::kSuperblock, 0, 0);
  TCF_RETURN_NOT_OK(store->WritePage(0, page0.data()));

  Superblock sb;
  sb.num_nodes = g.NumNodes();
  sb.num_edges = g.NumEdges();
  sb.num_fragments = frag.NumFragments();
  sb.epoch = epoch;
  sb.has_coords = g.has_coordinates();
  sb.has_complementary = db.options().use_complementary;
  sb.comp_total_tuples = db.complementary().total_tuples;
  sb.comp_searches = db.complementary().searches;

  TCF_RETURN_NOT_OK(AppendBlob(*store, EncodeGraphBlob(g), &sb.graph_extent));
  TCF_RETURN_NOT_OK(
      AppendBlob(*store, EncodeAssignmentBlob(frag), &sb.assign_extent));

  std::vector<DirectoryEntry> directory(frag.NumFragments());
  for (FragmentId f = 0; f < frag.NumFragments(); ++f) {
    const Relation& shortcuts = db.complementary().shortcuts[f];
    directory[f].tuple_count = shortcuts.size();
    Result<std::string> blob = EncodeShortcutBlob(shortcuts);
    if (!blob.ok()) return blob.status();
    TCF_RETURN_NOT_OK(AppendBlob(*store, std::move(blob).value(),
                                 &directory[f].extent));
  }
  TCF_RETURN_NOT_OK(AppendBlob(*store, EncodeDirectoryBlob(directory),
                               &sb.directory_extent));
  TCF_RETURN_NOT_OK(AppendBlob(*store,
                               EncodeWitnessBlob(db.complementary().witness),
                               &sb.witness_extent));

  sb.page_count = store->page_count();
  const std::string payload = EncodeSuperblockPayload(sb, options.page_size);
  std::memcpy(page0.data() + kPageHeaderSize, payload.data(), payload.size());
  SealPage(page0, PageType::kSuperblock, 0,
           static_cast<uint32_t>(payload.size()));
  TCF_RETURN_NOT_OK(store->WritePage(0, page0.data()));
  TCF_RETURN_NOT_OK(store->Sync());
  store.reset();  // close before rename

  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp_path + " -> " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Readers

/// Uniform page access for the two open paths. ReadPayload verifies the
/// page (checksum, header fields, index) and appends its payload bytes to
/// `out` (pass nullptr to verify only).
class PageSource {
 public:
  virtual ~PageSource() = default;
  virtual uint64_t page_count() const = 0;
  virtual size_t page_size() const = 0;
  virtual Status ReadPayload(uint64_t index, std::string* out) = 0;

 protected:
  static Status CheckAndAppend(std::span<const uint8_t> page, uint64_t index,
                               std::string* out) {
    Result<PageHeader> header = CheckPage(page, index);
    if (!header.ok()) return header.status();
    const PageType expected =
        index == 0 ? PageType::kSuperblock : PageType::kData;
    if (header.value().type != expected) {
      return Status::InvalidArgument(
          "page " + std::to_string(index) + ": unexpected page type " +
          std::to_string(static_cast<int>(header.value().type)));
    }
    if (out != nullptr) {
      out->append(reinterpret_cast<const char*>(page.data()) +
                      kPageHeaderSize,
                  header.value().payload_len);
    }
    return Status::OK();
  }
};

/// mmap fast path: pages are slices of one read-only mapping.
class MmapPageSource final : public PageSource {
 public:
  MmapPageSource(MmapFile file, size_t page_size)
      : file_(std::move(file)), page_size_(page_size) {}

  uint64_t page_count() const override {
    return file_.bytes().size() / page_size_;
  }
  size_t page_size() const override { return page_size_; }

  Status ReadPayload(uint64_t index, std::string* out) override {
    if (index >= page_count()) {
      return Status::OutOfRange("read of page " + std::to_string(index) +
                                " past end of file (" +
                                std::to_string(page_count()) + " pages)");
    }
    return CheckAndAppend(
        file_.bytes().subspan(index * page_size_, page_size_), index, out);
  }

 private:
  MmapFile file_;
  size_t page_size_;
};

/// Paged-open path: the same pool the paged relations will use afterwards,
/// so open-time verification warms the very frames queries read through.
class SharedPoolPageSource final : public PageSource {
 public:
  explicit SharedPoolPageSource(std::shared_ptr<PagedFile> file)
      : file_(std::move(file)) {}

  uint64_t page_count() const override { return file_->page_count(); }
  size_t page_size() const override { return file_->page_size(); }

  Status ReadPayload(uint64_t index, std::string* out) override {
    Result<BufferPool::PageRef> ref = file_->pool().Pin(index);
    if (!ref.ok()) return ref.status();
    return CheckAndAppend({ref.value().data(), page_size()}, index, out);
  }

 private:
  std::shared_ptr<PagedFile> file_;
};

/// Reassemble the blob stored in `extent`. Every page of the run must be
/// full except the last (strictness: a checksummed-valid file whose page
/// fill pattern disagrees with its extents is still rejected).
Result<std::string> ReadExtent(PageSource& source, const Extent& extent,
                               const char* what) {
  const size_t capacity = PagePayloadCapacity(source.page_size());
  const std::string context = std::string(what) + " extent";
  if (extent.byte_len == 0) return std::string();
  const uint64_t max_bytes = source.page_count() * capacity;
  if (extent.byte_len > max_bytes) {
    return Status::InvalidArgument(context + ": byte length " +
                                   std::to_string(extent.byte_len) +
                                   " exceeds file capacity");
  }
  const uint64_t num_pages = (extent.byte_len + capacity - 1) / capacity;
  if (extent.first_page == 0 ||
      extent.first_page + num_pages > source.page_count()) {
    return Status::InvalidArgument(
        context + ": pages [" + std::to_string(extent.first_page) + ", " +
        std::to_string(extent.first_page + num_pages) +
        ") out of bounds (file has " + std::to_string(source.page_count()) +
        " pages)");
  }
  std::string blob;
  blob.reserve(extent.byte_len);
  for (uint64_t i = 0; i < num_pages; ++i) {
    const size_t before = blob.size();
    TCF_RETURN_NOT_OK(source.ReadPayload(extent.first_page + i, &blob));
    const size_t got = blob.size() - before;
    const size_t expected = (i + 1 < num_pages)
                                ? capacity
                                : extent.byte_len - i * capacity;
    if (got != expected) {
      return Status::InvalidArgument(
          context + ": page " + std::to_string(extent.first_page + i) +
          " holds " + std::to_string(got) + " payload bytes, expected " +
          std::to_string(expected));
    }
  }
  return blob;
}

// ---------------------------------------------------------------------------
// Decoders

/// Guard a count declared in a blob against the bytes that could possibly
/// back it, BEFORE reserving memory for it.
Status CheckDeclaredCount(uint64_t count, size_t min_bytes_per_item,
                          const WireReader& reader, const char* what) {
  if (min_bytes_per_item != 0 &&
      count > reader.remaining() / min_bytes_per_item) {
    return Status::InvalidArgument(
        std::string(what) + ": declared count " + std::to_string(count) +
        " cannot fit in " + std::to_string(reader.remaining()) +
        " remaining bytes");
  }
  return Status::OK();
}

Result<Superblock> DecodeSuperblock(const std::string& payload,
                                    size_t page_size, uint64_t page_count) {
  if (payload.size() != kSuperblockPayloadLen) {
    return Status::InvalidArgument(
        "superblock: payload is " + std::to_string(payload.size()) +
        " bytes, expected " + std::to_string(kSuperblockPayloadLen));
  }
  WireReader r(payload);
  Superblock sb;
  uint64_t magic = 0;
  uint32_t version = 0, stored_page_size = 0;
  uint8_t has_coords = 0, has_complementary = 0;
  bool ok = r.ReadU64(&magic) && r.ReadU32(&version) &&
            r.ReadU32(&stored_page_size) && r.ReadU64(&sb.page_count) &&
            r.ReadU64(&sb.num_nodes) && r.ReadU64(&sb.num_edges) &&
            r.ReadU64(&sb.num_fragments) && r.ReadU64(&sb.epoch) &&
            r.ReadU8(&has_coords) && r.ReadU8(&has_complementary);
  uint8_t reserved_or = 0;
  for (int i = 0; ok && i < 6; ++i) {
    uint8_t b = 0;
    ok = r.ReadU8(&b);
    reserved_or |= b;
  }
  ok = ok && r.ReadU64(&sb.comp_total_tuples) && r.ReadU64(&sb.comp_searches);
  for (Extent* e : {&sb.graph_extent, &sb.assign_extent, &sb.directory_extent,
                    &sb.witness_extent}) {
    ok = ok && r.ReadU64(&e->first_page) && r.ReadU64(&e->byte_len);
  }
  TCF_CHECK(ok && r.exhausted());  // length was checked above
  // Magic / version / page_size were already probed; mismatches here would
  // mean the probe read different bytes than the verified page — internal.
  TCF_CHECK(magic == kDbMagic && version == kFormatVersion &&
            stored_page_size == page_size);
  if (reserved_or != 0) {
    return Status::InvalidArgument(
        "superblock: reserved bytes are nonzero");
  }
  if (has_coords > 1 || has_complementary > 1) {
    return Status::InvalidArgument("superblock: flag bytes must be 0 or 1");
  }
  sb.has_coords = has_coords == 1;
  sb.has_complementary = has_complementary == 1;
  if (sb.page_count != page_count) {
    return Status::InvalidArgument(
        "superblock: declares " + std::to_string(sb.page_count) +
        " pages but the file holds " + std::to_string(page_count) +
        " (truncated or grown)");
  }
  if (sb.num_nodes >= kInvalidNode) {
    return Status::OutOfRange("superblock: node count " +
                              std::to_string(sb.num_nodes) +
                              " exceeds the 32-bit node id space");
  }
  if (sb.num_edges >= std::numeric_limits<EdgeId>::max()) {
    return Status::OutOfRange("superblock: edge count " +
                              std::to_string(sb.num_edges) +
                              " exceeds the 32-bit edge id space");
  }
  if (sb.num_fragments >= Fragmentation::kInvalidFragment) {
    return Status::OutOfRange("superblock: fragment count " +
                              std::to_string(sb.num_fragments) +
                              " exceeds the 32-bit fragment id space");
  }
  return sb;
}

Result<Graph> DecodeGraphBlob(const std::string& blob, const Superblock& sb) {
  WireReader r(blob);
  uint64_t num_nodes = 0, num_edges = 0;
  uint8_t has_coords = 0;
  if (!r.ReadU64(&num_nodes) || !r.ReadU64(&num_edges) ||
      !r.ReadU8(&has_coords)) {
    return Status::InvalidArgument("graph blob: truncated header");
  }
  if (num_nodes != sb.num_nodes || num_edges != sb.num_edges ||
      (has_coords == 1) != sb.has_coords || has_coords > 1) {
    return Status::InvalidArgument(
        "graph blob: header disagrees with the superblock");
  }
  TCF_RETURN_NOT_OK(CheckDeclaredCount(num_edges, 16, r, "graph blob edges"));
  GraphBuilder builder;
  if (has_coords == 1) {
    // Coordinates trail the edges; sizes are fixed, so pre-validate the
    // total before building.
    if (r.remaining() != num_edges * 16 + num_nodes * 16) {
      return Status::InvalidArgument(
          "graph blob: size does not match declared counts");
    }
  } else if (r.remaining() != num_edges * 16) {
    return Status::InvalidArgument(
        "graph blob: size does not match declared counts");
  }
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    uint32_t src = 0, dst = 0;
    double weight = 0.0;
    TCF_CHECK(r.ReadU32(&src) && r.ReadU32(&dst) && r.ReadF64(&weight));
    if (src >= num_nodes || dst >= num_nodes) {
      return Status::OutOfRange("graph blob: edge " + std::to_string(i) +
                                " endpoint out of range");
    }
    if (!std::isfinite(weight) || weight < 0.0) {
      return Status::InvalidArgument("graph blob: edge " + std::to_string(i) +
                                     " has a non-finite or negative weight");
    }
    edges.push_back(Edge{src, dst, weight});
  }
  if (has_coords == 1) {
    for (uint64_t i = 0; i < num_nodes; ++i) {
      double x = 0.0, y = 0.0;
      TCF_CHECK(r.ReadF64(&x) && r.ReadF64(&y));
      if (!std::isfinite(x) || !std::isfinite(y)) {
        return Status::InvalidArgument("graph blob: coordinate " +
                                       std::to_string(i) + " is not finite");
      }
      builder.AddNode(Point{x, y});
    }
  } else {
    builder.EnsureNodes(num_nodes);
  }
  TCF_CHECK(r.exhausted());
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return builder.Build();
}

Result<std::vector<FragmentId>> DecodeAssignmentBlob(const std::string& blob,
                                                     const Superblock& sb) {
  WireReader r(blob);
  uint64_t num_edges = 0, num_fragments = 0;
  if (!r.ReadU64(&num_edges) || !r.ReadU64(&num_fragments)) {
    return Status::InvalidArgument("assignment blob: truncated header");
  }
  if (num_edges != sb.num_edges || num_fragments != sb.num_fragments) {
    return Status::InvalidArgument(
        "assignment blob: header disagrees with the superblock");
  }
  if (r.remaining() != num_edges * 4) {
    return Status::InvalidArgument(
        "assignment blob: size does not match declared edge count");
  }
  std::vector<FragmentId> owners;
  owners.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    uint32_t owner = 0;
    TCF_CHECK(r.ReadU32(&owner));
    if (owner >= num_fragments) {
      return Status::OutOfRange("assignment blob: edge " + std::to_string(i) +
                                " assigned to nonexistent fragment " +
                                std::to_string(owner));
    }
    owners.push_back(owner);
  }
  TCF_CHECK(r.exhausted());
  return owners;
}

Result<std::vector<DirectoryEntry>> DecodeDirectoryBlob(
    const std::string& blob, const Superblock& sb) {
  WireReader r(blob);
  uint64_t num_fragments = 0;
  if (!r.ReadU64(&num_fragments)) {
    return Status::InvalidArgument("directory blob: truncated header");
  }
  if (num_fragments != sb.num_fragments) {
    return Status::InvalidArgument(
        "directory blob: fragment count disagrees with the superblock");
  }
  if (r.remaining() != num_fragments * 24) {
    return Status::InvalidArgument(
        "directory blob: size does not match declared fragment count");
  }
  std::vector<DirectoryEntry> directory(num_fragments);
  for (DirectoryEntry& entry : directory) {
    TCF_CHECK(r.ReadU64(&entry.extent.first_page) &&
              r.ReadU64(&entry.extent.byte_len) &&
              r.ReadU64(&entry.tuple_count));
  }
  TCF_CHECK(r.exhausted());
  return directory;
}

Result<Relation> DecodeShortcutBlob(const std::string& blob,
                                    const DirectoryEntry& entry,
                                    const Fragmentation& frag, FragmentId f) {
  const std::string context = "fragment " + std::to_string(f) + " shortcuts";
  WireReader r(blob);
  uint64_t count = 0;
  if (!r.ReadU64(&count)) {
    return Status::InvalidArgument(context + ": truncated header");
  }
  if (count != entry.tuple_count) {
    return Status::InvalidArgument(
        context + ": blob declares " + std::to_string(count) +
        " tuples, directory says " + std::to_string(entry.tuple_count));
  }
  if (r.remaining() != count * 16) {
    return Status::InvalidArgument(
        context + ": size does not match declared tuple count");
  }
  const std::vector<NodeId>& border = frag.BorderNodes(f);
  auto is_border = [&border](NodeId n) {
    return std::binary_search(border.begin(), border.end(), n);
  };
  std::vector<PathTuple> tuples;
  tuples.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t src = 0, dst = 0;
    double cost = 0.0;
    TCF_CHECK(r.ReadU32(&src) && r.ReadU32(&dst) && r.ReadF64(&cost));
    if (!is_border(src) || !is_border(dst)) {
      return Status::InvalidArgument(
          context + ": tuple " + std::to_string(i) + " (" +
          std::to_string(src) + " -> " + std::to_string(dst) +
          ") joins nodes that are not border nodes of this fragment");
    }
    if (!std::isfinite(cost) || cost < 0.0) {
      return Status::InvalidArgument(context + ": tuple " +
                                     std::to_string(i) +
                                     " has a non-finite or negative cost");
    }
    // Queries binary-search the stored rows by src, so a blob out of order
    // (or repeating a pair) would answer wrong; the writer sorts.
    if (!tuples.empty() && std::pair(src, dst) <= std::pair(tuples.back().src,
                                                            tuples.back().dst)) {
      return Status::InvalidArgument(
          context + ": tuple " + std::to_string(i) + " (" +
          std::to_string(src) + " -> " + std::to_string(dst) +
          ") does not follow its predecessor in (src, dst) order");
    }
    tuples.push_back(PathTuple{src, dst, cost});
  }
  TCF_CHECK(r.exhausted());
  return Relation(std::move(tuples));
}

Status DecodeWitnessBlob(const std::string& blob, uint64_t num_nodes,
                         WitnessMap* witness) {
  WireReader r(blob);
  uint64_t count = 0;
  if (!r.ReadU64(&count)) {
    return Status::InvalidArgument("witness blob: truncated header");
  }
  TCF_RETURN_NOT_OK(CheckDeclaredCount(count, 12, r, "witness blob"));
  auto entry = [](uint64_t i) {
    return "witness blob entry " + std::to_string(i);
  };
  // Keys strictly increase, so each source's routes are contiguous and
  // arrive in target order: one row is filled at a time.
  std::shared_ptr<WitnessRow> row;
  NodeId row_src = 0;
  uint64_t previous_key = 0;
  std::vector<NodeId> route;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    uint32_t length = 0;
    if (!r.ReadU64(&key) || !r.ReadU32(&length)) {
      return Status::InvalidArgument(entry(i) + ": truncated");
    }
    if (i > 0 && key <= previous_key) {
      return Status::InvalidArgument(
          entry(i) + (key == previous_key ? ": duplicate key"
                                          : ": key below the one before"));
    }
    previous_key = key;
    if (length < 2 || length > num_nodes) {
      return Status::InvalidArgument(
          entry(i) + ": route length " + std::to_string(length) +
          " outside [2, " + std::to_string(num_nodes) + "]");
    }
    if (length > r.remaining() / 4) {
      return Status::InvalidArgument(entry(i) + ": route overruns the blob");
    }
    route.clear();
    for (uint32_t j = 0; j < length; ++j) {
      uint32_t node = 0;
      TCF_CHECK(r.ReadU32(&node));
      if (node >= num_nodes) {
        return Status::OutOfRange(entry(i) + ": node " +
                                  std::to_string(node) + " out of range");
      }
      route.push_back(node);
    }
    // The key encodes the route's endpoints (PairKey(src, dst)).
    const NodeId key_src = static_cast<NodeId>(key >> 32);
    const NodeId key_dst = static_cast<NodeId>(key & 0xffffffffu);
    if (route.front() != key_src || route.back() != key_dst) {
      return Status::InvalidArgument(
          entry(i) + ": route endpoints do not match its key");
    }
    if (row == nullptr || key_src != row_src) {
      row = std::make_shared<WitnessRow>();
      row_src = key_src;
      witness->emplace_hint(witness->end(), key_src, row);
    }
    row->Append(route);
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("witness blob: trailing bytes");
  }
  return Status::OK();
}

/// Probe the fixed-offset fields of page 0 without trusting anything else,
/// so "is this a database at all / which version / which page size" can be
/// answered before page-level verification (whose geometry depends on the
/// answer). docs/STORAGE.md "Opening a file".
Result<size_t> ProbePageSize(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no database at " + path);
    }
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  uint8_t probe[kProbeBytes];
  size_t done = 0;
  while (done < sizeof(probe)) {
    const ssize_t n = ::read(fd, probe + done, sizeof(probe) - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::IOError("read " + path + ": " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done < sizeof(probe)) {
    return Status::InvalidArgument(path +
                                   ": too small to be a tcfrag database");
  }
  if (LoadU64(probe + kProbeMagicOffset) != kDbMagic) {
    return Status::InvalidArgument(path +
                                   ": bad magic (not a tcfrag database)");
  }
  const uint32_t version = LoadU32(probe + kProbeVersionOffset);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        path + ": format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        ")");
  }
  const uint32_t page_size = LoadU32(probe + kProbePageSizeOffset);
  if (!ValidPageSize(page_size)) {
    return Status::InvalidArgument(path + ": invalid page size " +
                                   std::to_string(page_size));
  }
  return static_cast<size_t>(page_size);
}

}  // namespace

Status SaveDatabase(const DsaDatabase& db, const std::string& path,
                    const SaveOptions& options) {
  return SaveDatabaseImpl(db, db.epoch(), path, options);
}

Status SaveDatabase(const MaintainedDatabase& mdb, const std::string& path,
                    const SaveOptions& options) {
  const DsaSnapshot snapshot = mdb.Snapshot();  // pin: immutable while saving
  return SaveDatabaseImpl(*snapshot.db, snapshot.epoch, path, options);
}

Result<StoredDatabase> OpenDatabase(const std::string& path,
                                    const OpenOptions& options) {
  Result<size_t> probed = ProbePageSize(path);
  if (!probed.ok()) return probed.status();
  const size_t page_size = probed.value();

  std::unique_ptr<PageSource> source;
  std::shared_ptr<PagedFile> paged_file;
  if (options.mode == OpenMode::kPaged) {
    // The pool needs at least 2 frames to make progress (one transient
    // scan pin plus one fault-in); rather than silently inflating an
    // impossible budget to that floor, reject it so the caller learns
    // their sizing never took effect.
    size_t frames = kDefaultPoolFrames;
    if (options.memory_budget_bytes > 0) {
      if (options.memory_budget_bytes < 2 * page_size) {
        return Status::InvalidArgument(
            path + ": memory_budget_bytes " +
            std::to_string(options.memory_budget_bytes) +
            " is below the 2-frame minimum (" +
            std::to_string(2 * page_size) + " bytes at page size " +
            std::to_string(page_size) + ")");
      }
      frames = options.memory_budget_bytes / page_size;
    }
    Result<std::shared_ptr<PagedFile>> file =
        PagedFile::Open(path, page_size, frames);
    if (!file.ok()) return file.status();
    paged_file = std::move(file).value();
    source = std::make_unique<SharedPoolPageSource>(paged_file);
  } else {
    Result<MmapFile> mapped = MmapFile::Map(path);
    if (!mapped.ok()) return mapped.status();
    if (mapped.value().bytes().size() % page_size != 0) {
      return Status::InvalidArgument(
          path + ": file size " +
          std::to_string(mapped.value().bytes().size()) +
          " is not a multiple of page size " + std::to_string(page_size) +
          " (truncated or not a tcfrag database)");
    }
    source = std::make_unique<MmapPageSource>(std::move(mapped).value(),
                                              page_size);
  }

  // The corruption-detection contract: any flipped bit anywhere in the
  // file fails here, before any byte is interpreted.
  for (uint64_t i = 0; i < source->page_count(); ++i) {
    TCF_RETURN_NOT_OK(source->ReadPayload(i, nullptr));
  }

  std::string superblock_payload;
  TCF_RETURN_NOT_OK(source->ReadPayload(0, &superblock_payload));
  Result<Superblock> sb_result =
      DecodeSuperblock(superblock_payload, page_size, source->page_count());
  if (!sb_result.ok()) return sb_result.status();
  const Superblock& sb = sb_result.value();

  if (!sb.has_complementary && options.dsa.use_complementary) {
    return Status::FailedPrecondition(
        path + ": saved without complementary information; open with "
        "DsaOptions::use_complementary = false");
  }

  Result<std::string> graph_blob =
      ReadExtent(*source, sb.graph_extent, "graph");
  if (!graph_blob.ok()) return graph_blob.status();
  Result<Graph> graph_result = DecodeGraphBlob(graph_blob.value(), sb);
  if (!graph_result.ok()) return graph_result.status();
  auto graph =
      std::make_shared<const Graph>(std::move(graph_result).value());

  Result<std::string> assign_blob =
      ReadExtent(*source, sb.assign_extent, "assignment");
  if (!assign_blob.ok()) return assign_blob.status();
  Result<std::vector<FragmentId>> owners_result =
      DecodeAssignmentBlob(assign_blob.value(), sb);
  if (!owners_result.ok()) return owners_result.status();
  std::vector<FragmentId> owners = std::move(owners_result).value();

  // Ownership chain mirrors DsaSnapshot: the fragmentation keeps its graph
  // alive, the database keeps its fragmentation alive.
  std::shared_ptr<const Fragmentation> frag(
      new Fragmentation(graph.get(), owners, sb.num_fragments),
      [graph](const Fragmentation* p) { delete p; });
  // Fragmentation compacts empty fragments away. A stored assignment that
  // compacts differently would silently desynchronize the fragment
  // directory, so require the stored form to already be compact.
  if (frag->NumFragments() != sb.num_fragments ||
      frag->fragment_of_edge() != owners) {
    return Status::FailedPrecondition(
        path + ": stored fragment assignment is not compact (contains "
        "empty fragments); refusing to renumber");
  }

  Result<std::string> dir_blob =
      ReadExtent(*source, sb.directory_extent, "directory");
  if (!dir_blob.ok()) return dir_blob.status();
  Result<std::vector<DirectoryEntry>> dir_result =
      DecodeDirectoryBlob(dir_blob.value(), sb);
  if (!dir_result.ok()) return dir_result.status();
  const std::vector<DirectoryEntry>& directory = dir_result.value();

  ComplementaryInfo complementary;
  complementary.shortcuts.reserve(directory.size());
  uint64_t total_tuples = 0;
  for (FragmentId f = 0; f < directory.size(); ++f) {
    Result<std::string> blob = ReadExtent(
        *source, directory[f].extent,
        ("fragment " + std::to_string(f) + " shortcuts").c_str());
    if (!blob.ok()) return blob.status();
    // Decode (and thereby validate — tuple counts, border membership,
    // finite costs) even when opening paged: the corruption contract is
    // identical in both modes, and the transient decode is bounded by one
    // fragment's blob at a time.
    Result<Relation> shortcuts =
        DecodeShortcutBlob(blob.value(), directory[f], *frag, f);
    if (!shortcuts.ok()) return shortcuts.status();
    total_tuples += shortcuts.value().size();
    if (options.mode == OpenMode::kPaged) {
      // Discard the decoded copy; queries re-read tuples lazily through
      // the shared pool, pinning only the extents their plans touch.
      complementary.shortcuts.push_back(
          Relation(std::make_shared<PagedTupleStore>(
              paged_file, directory[f].extent, directory[f].tuple_count)));
    } else {
      complementary.shortcuts.push_back(std::move(shortcuts).value());
    }
  }
  if (sb.has_complementary && total_tuples != sb.comp_total_tuples) {
    return Status::InvalidArgument(
        path + ": superblock declares " +
        std::to_string(sb.comp_total_tuples) +
        " complementary tuples, directory holds " +
        std::to_string(total_tuples));
  }
  complementary.total_tuples = sb.comp_total_tuples;
  complementary.searches = sb.comp_searches;

  Result<std::string> witness_blob =
      ReadExtent(*source, sb.witness_extent, "witness");
  if (!witness_blob.ok()) return witness_blob.status();
  TCF_RETURN_NOT_OK(DecodeWitnessBlob(witness_blob.value(), sb.num_nodes,
                                      &complementary.witness));

  EpochCarryover carry;
  carry.complementary = std::move(complementary);
  carry.epoch = sb.epoch;
  std::shared_ptr<const DsaDatabase> db(
      new DsaDatabase(frag.get(), options.dsa, std::move(carry)),
      [frag](const DsaDatabase* p) { delete p; });

  StoredDatabase stored;
  stored.epoch = sb.epoch;
  stored.graph = std::move(graph);
  stored.frag = std::move(frag);
  stored.db = std::move(db);
  stored.paged_file = std::move(paged_file);
  return stored;
}

Result<std::unique_ptr<MaintainedDatabase>> OpenMaintainedDatabase(
    const std::string& path, const OpenOptions& options,
    std::shared_ptr<PagedFile>* paged_file_out) {
  Result<StoredDatabase> stored = OpenDatabase(path, options);
  if (!stored.ok()) return stored.status();
  StoredDatabase sd = std::move(stored).value();
  if (paged_file_out != nullptr) *paged_file_out = sd.paged_file;
  DsaSnapshot snapshot;
  snapshot.epoch = sd.epoch;
  snapshot.graph = std::move(sd.graph);
  snapshot.frag = std::move(sd.frag);
  snapshot.db = std::move(sd.db);
  return std::make_unique<MaintainedDatabase>(std::move(snapshot),
                                              options.dsa);
}

}  // namespace tcf
