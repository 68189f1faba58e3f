// Crash-safe on-disk snapshots of the exploration service's warm state.
//
// A restarted exploration daemon answers the workload table warm only if
// the expensive memoized state survives the process: the sharded eval
// cache (perf + cost per design point) and the candidate-matrix memo. This
// module provides the snapshot file format and the byte-level codec those
// caches serialize through; the service-level save/restore orchestration
// lives in ExplorationService::saveSnapshot / restoreSnapshot
// (driver/explore_service.*).
//
// File format (version 4, little-endian, see docs/PROTOCOL.md "Snapshot
// format"):
//
//   magic     8 bytes  "TLSNAP1\n"
//   version   u32      kSnapshotVersion
//   size      u64      payload byte count
//   checksum  u64      FNV-1a over the payload bytes
//   payload   size bytes (fingerprint string + cache sections)
//
// Robustness contract: snapshots are written atomically (tmp + fsync +
// rename), so a crash mid-write never clobbers the previous snapshot; a
// missing, truncated, corrupted, version-mismatched or
// fingerprint-mismatched snapshot must degrade to a clean cold start with
// a logged warning — restore NEVER throws past its boundary and NEVER
// half-populates a cache. The `snapshot_write` fault point
// (support/fault.*) can force write failure, payload corruption or
// truncation to rehearse exactly those paths.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cost/backend.hpp"
#include "linalg/matrix.hpp"
#include "sim/perf.hpp"

namespace tensorlib::driver::snapshot {

inline constexpr char kSnapshotMagic[8] = {'T', 'L', 'S', 'N',
                                           'A', 'P', '1', '\n'};
/// Version 2 dropped the enumeration-engine bit from the candidate-memo
/// flags; version 3 dropped the tile-mapping section; version 4 dropped the
/// bound-first bit from the candidate-memo flags. Older files cold-start
/// through the version check.
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Why a restore did not (fully) happen. `Restored` is the only warm
/// outcome; every other status means the service starts cold.
enum class RestoreStatus {
  Restored,         ///< snapshot loaded, caches warm
  Missing,          ///< no snapshot file (first boot) — cold, not an error
  Corrupt,          ///< bad magic / checksum / truncation / decode overrun
  VersionMismatch,  ///< written by a different snapshot format version
  ConfigMismatch,   ///< written under a different cache-schema fingerprint
  IoError,          ///< file exists but could not be read
};

/// Human-readable status name ("restored", "corrupt", ...).
std::string restoreStatusName(RestoreStatus status);

/// Outcome of ExplorationService::restoreSnapshot.
struct RestoreResult {
  RestoreStatus status = RestoreStatus::Missing;
  std::size_t evalEntries = 0;      ///< evaluations restored
  std::size_t candidateLists = 0;   ///< candidate-matrix lists restored
  std::string message;              ///< warning detail for cold statuses
  bool restored() const { return status == RestoreStatus::Restored; }
};

/// The compatibility fingerprint embedded in every snapshot: the name of
/// the cache-key schema. Evaluation keys are stored as the schema's string
/// rendering, and restore parses each one strictly back into the cache's
/// fixed-size form (a malformed key makes the file Corrupt), so a snapshot
/// is only trustworthy under the same key schema; anything else must
/// cold-start. Enumeration defaults are not part
/// of it: an evaluation key already names the algebra, array, backend,
/// selection and transform, so no default can make a restored entry wrong.
std::string cacheSchemaFingerprint();

// ---- byte-level codec ------------------------------------------------------

/// Append-only little-endian encoder for snapshot payloads.
class Writer {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);

  const std::string& buffer() const { return buffer_; }
  std::string takeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked decoder. Every read throws tensorlib::Error on overrun
/// (a truncated section can never read past the payload into garbage);
/// restore catches at its boundary and degrades to cold start.
class Reader {
 public:
  explicit Reader(const std::string& buffer) : buffer_(buffer) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  bool done() const { return pos_ == buffer_.size(); }
  std::size_t remaining() const { return buffer_.size() - pos_; }

 private:
  const std::string& buffer_;
  std::size_t pos_ = 0;
};

// ---- cached-value codecs ---------------------------------------------------

void writePerf(Writer& w, const sim::PerfResult& perf);
sim::PerfResult readPerf(Reader& r);

void writeCost(Writer& w, const cost::CostReport& cost);
cost::CostReport readCost(Reader& r);

void writeMatrix(Writer& w, const linalg::IntMatrix& m);
linalg::IntMatrix readMatrix(Reader& r);

// ---- file framing ----------------------------------------------------------

/// Frames `payload` (magic, version, size, FNV-1a checksum) and writes it
/// atomically: tmp file in the same directory, flushed, then renamed over
/// `path` so readers only ever see a complete snapshot. Returns false on
/// any I/O failure (and removes the tmp file). Honors the `snapshot_write`
/// fault point: `fail` reports failure without touching `path`; `corrupt`
/// flips one payload byte after checksumming; `truncate` drops the second
/// half of the framed file.
bool writeSnapshotFile(const std::string& path, const std::string& payload);

/// Reads and validates a framed snapshot. On success returns the payload
/// and sets `*status` to Restored; otherwise returns nullopt with the
/// failure status and a diagnostic in `*message`. Never throws.
std::optional<std::string> readSnapshotFile(const std::string& path,
                                            RestoreStatus* status,
                                            std::string* message);

/// FNV-1a 64-bit over a byte string (the snapshot payload checksum).
std::uint64_t fnv1a(const std::string& bytes);

}  // namespace tensorlib::driver::snapshot
