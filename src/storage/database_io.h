// Save / open a fragmented database as a single paged, checksummed file —
// the binary sibling of the legacy text format in fragment/fragmentation_io
// — so `tcfragd` restarts and benches can *open* a database (adopting the
// precomputed complementary information via the epoch-carryover
// constructor) instead of paying fragmentation + preprocessing again. The
// on-disk format is normative in docs/STORAGE.md; version/compat rules and
// the corruption-detection contract live there.
//
// Two read paths share one decoder, one per OpenMode:
//   - resident: the whole file is mapped read-only and blob bytes are
//     decoded straight out of the mapping — no page copies, no syscalls
//     per page. This is what makes open-vs-rebuild a >=5x win
//     (bench/storage_io gates it).
//   - paged: pages are faulted through the BufferPool the paged shortcut
//     relations keep reading through after the open.
// Both verify every page's CRC32C at open, so a single flipped bit
// anywhere in the file is a clean kIOError, never a crash.
#pragma once

#include <memory>
#include <string>

#include "dsa/maintenance.h"
#include "storage/page.h"
#include "storage/paged_tuple_store.h"
#include "util/status.h"

namespace tcf {

struct SaveOptions {
  /// Page size of the written file; power of two in
  /// [kMinPageSize, kMaxPageSize].
  size_t page_size = kDefaultPageSize;
};

/// How an opened database holds its fragment shortcut relations.
enum class OpenMode {
  /// Decode every blob eagerly into RAM out of one read-only mmap of the
  /// file: fastest to query, but resident memory scales with total
  /// relation bytes.
  kResident,
  /// Shortcut relations stay on disk as lazy paged relations; queries
  /// stream tuples through buffer-pool pinned pages of the fragments their
  /// chain plan names. Resident relation memory is bounded by the pool
  /// (`memory_budget_bytes`), so databases larger than RAM serve queries.
  kPaged,
};

struct OpenOptions {
  /// Options for the reconstructed DsaDatabase. `use_complementary` must be
  /// false if the file was saved without complementary info.
  DsaOptions dsa;
  /// Eager-resident or lazy-paged shortcut relations (see OpenMode).
  OpenMode mode = OpenMode::kResident;
  /// Under OpenMode::kPaged, the buffer pool holds
  /// memory_budget_bytes / page_size frames — the `--memory-budget-mb`
  /// knob of tcfragd; 0 means kDefaultPoolFrames. A nonzero budget below
  /// two frames' worth of bytes (the pool's progress floor) is rejected
  /// with InvalidArgument rather than silently rounded up. Ignored when
  /// resident.
  size_t memory_budget_bytes = 0;
};

/// Buffer-pool frames of a paged open without a memory budget.
inline constexpr size_t kDefaultPoolFrames = 256;

/// An opened database: the same ownership-chained triple a maintenance
/// snapshot carries (each shared_ptr keeps its dependency alive), so any
/// member stands alone.
struct StoredDatabase {
  uint64_t epoch = 0;
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const Fragmentation> frag;
  std::shared_ptr<const DsaDatabase> db;
  /// The open file + shared buffer pool behind paged relations (null when
  /// opened resident). Exposed for pool observability (hit/miss/eviction
  /// counters in tcfragd stats, bench/storage_io's paged cell); the paged
  /// relations themselves keep the file alive regardless.
  std::shared_ptr<PagedFile> paged_file;
};

/// Serialize `db` (graph, fragment assignment, complementary shortcuts +
/// witness routes, epoch) to `path`. Writes `path + ".tmp"` and renames, so
/// a crash mid-save never leaves a half-written file at `path`. The output
/// is byte-deterministic for a given database.
Status SaveDatabase(const DsaDatabase& db, const std::string& path,
                    const SaveOptions& options = {});

/// Save the current snapshot of a maintained database (epoch included).
Status SaveDatabase(const MaintainedDatabase& mdb, const std::string& path,
                    const SaveOptions& options = {});

/// Open a database file. Every structural property of the file is
/// validated before use — magic, version, page size, page checksums, blob
/// bounds, cross-references (edge endpoints, fragment owners, border-node
/// membership of shortcut tuples, witness-route endpoints) — and any
/// violation is a descriptive non-OK Status, never undefined behavior.
Result<StoredDatabase> OpenDatabase(const std::string& path,
                                    const OpenOptions& options = {});

/// Open as a MaintainedDatabase that resumes updates at stored_epoch + 1
/// (the snapshot-adopting constructor; no refragmentation, no recompute).
/// Under OpenMode::kPaged, `paged_file_out` (if non-null) receives the
/// shared file/pool handle for stats; epochs copy-on-write: a fragment
/// dirtied by an update is rebuilt memory-resident while clean fragments
/// keep reading from their immutable paged extents.
Result<std::unique_ptr<MaintainedDatabase>> OpenMaintainedDatabase(
    const std::string& path, const OpenOptions& options = {},
    std::shared_ptr<PagedFile>* paged_file_out = nullptr);

}  // namespace tcf
