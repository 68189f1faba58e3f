#include "driver/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

extern "C" {
#include <fcntl.h>
#include <unistd.h>
}

#include "support/error.hpp"
#include "support/fault.hpp"

namespace tensorlib::driver::snapshot {

namespace {

/// Reading primitives share one overrun message so a truncated snapshot is
/// diagnosable as such, not as a random decode error.
[[noreturn]] void overrun() { fail("snapshot payload truncated"); }

}  // namespace

std::string restoreStatusName(RestoreStatus status) {
  switch (status) {
    case RestoreStatus::Restored: return "restored";
    case RestoreStatus::Missing: return "missing";
    case RestoreStatus::Corrupt: return "corrupt";
    case RestoreStatus::VersionMismatch: return "version-mismatch";
    case RestoreStatus::ConfigMismatch: return "config-mismatch";
    case RestoreStatus::IoError: return "io-error";
  }
  return "unknown";
}

std::string cacheSchemaFingerprint() {
  // Names the cache KEY schema (algebra/array/backend/spec key rendering in
  // explore_service.cpp); bump it whenever any key function changes so
  // stale snapshots cold-start instead of silently never hitting.
  return "keys-v2";
}

// ---- byte-level codec ------------------------------------------------------

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& s) {
  u64(s.size());
  buffer_.append(s);
}

std::uint8_t Reader::u8() {
  if (pos_ + 1 > buffer_.size()) overrun();
  return static_cast<std::uint8_t>(buffer_[pos_++]);
}

std::uint32_t Reader::u32() {
  if (pos_ + 4 > buffer_.size()) overrun();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[pos_++]))
         << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  if (pos_ + 8 > buffer_.size()) overrun();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buffer_[pos_++]))
         << (8 * i);
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const std::uint64_t size = u64();
  if (size > remaining()) overrun();
  std::string s = buffer_.substr(pos_, size);
  pos_ += size;
  return s;
}

// ---- cached-value codecs ---------------------------------------------------

namespace {

void writeInventory(Writer& w, const cost::StructureInventory& inv) {
  w.i64(inv.pes);
  w.i64(inv.multipliers);
  w.i64(inv.accumAdders);
  w.i64(inv.treeAdders);
  w.i64(inv.dataRegBits);
  w.i64(inv.muxes);
  w.i64(inv.busLines);
  w.i64(inv.busTaps);
  w.i64(inv.memPorts);
  w.i64(inv.stationaryPes);
  w.i64(inv.unicastPorts);
}

cost::StructureInventory readInventory(Reader& r) {
  cost::StructureInventory inv;
  inv.pes = r.i64();
  inv.multipliers = r.i64();
  inv.accumAdders = r.i64();
  inv.treeAdders = r.i64();
  inv.dataRegBits = r.i64();
  inv.muxes = r.i64();
  inv.busLines = r.i64();
  inv.busTaps = r.i64();
  inv.memPorts = r.i64();
  inv.stationaryPes = r.i64();
  inv.unicastPorts = r.i64();
  return inv;
}

}  // namespace

void writePerf(Writer& w, const sim::PerfResult& perf) {
  w.i64(perf.totalCycles);
  w.i64(perf.computeCycles);
  w.i64(perf.bandwidthCycles);
  w.i64(perf.macs);
  w.i64(perf.trafficWords);
  w.f64(perf.utilization);
  w.f64(perf.throughputGops);
  w.u8(perf.bandwidthBound ? 1 : 0);
}

sim::PerfResult readPerf(Reader& r) {
  sim::PerfResult perf;
  perf.totalCycles = r.i64();
  perf.computeCycles = r.i64();
  perf.bandwidthCycles = r.i64();
  perf.macs = r.i64();
  perf.trafficWords = r.i64();
  perf.utilization = r.f64();
  perf.throughputGops = r.f64();
  perf.bandwidthBound = r.u8() != 0;
  return perf;
}

void writeCost(Writer& w, const cost::CostReport& cost) {
  w.f64(cost.figures.powerMw);
  w.f64(cost.figures.area);
  w.f64(cost.asic.areaMm2);
  w.f64(cost.asic.powerMw);
  writeInventory(w, cost.asic.inventory);
  w.u8(cost.fpga.has_value() ? 1 : 0);
  if (cost.fpga) {
    const cost::FpgaReport& f = *cost.fpga;
    w.i64(f.luts);
    w.i64(f.dsps);
    w.i64(f.bram);
    w.f64(f.lutPct);
    w.f64(f.dspPct);
    w.f64(f.bramPct);
    w.f64(f.frequencyMHz);
    w.f64(f.gops);
    w.f64(f.powerMw);
    writeInventory(w, f.inventory);
  }
}

cost::CostReport readCost(Reader& r) {
  cost::CostReport cost;
  cost.figures.powerMw = r.f64();
  cost.figures.area = r.f64();
  cost.asic.areaMm2 = r.f64();
  cost.asic.powerMw = r.f64();
  cost.asic.inventory = readInventory(r);
  if (r.u8() != 0) {
    cost::FpgaReport f;
    f.luts = r.i64();
    f.dsps = r.i64();
    f.bram = r.i64();
    f.lutPct = r.f64();
    f.dspPct = r.f64();
    f.bramPct = r.f64();
    f.frequencyMHz = r.f64();
    f.gops = r.f64();
    f.powerMw = r.f64();
    f.inventory = readInventory(r);
    cost.fpga = std::move(f);
  }
  return cost;
}

void writeMatrix(Writer& w, const linalg::IntMatrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) w.i64(m.at(i, j));
}

linalg::IntMatrix readMatrix(Reader& r) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  // Division form: `rows * cols * 8` can wrap in uint64 for hostile counts.
  if (rows != 0 && cols > r.remaining() / 8 / rows) overrun();
  linalg::IntMatrix m(rows, cols);
  for (std::uint64_t i = 0; i < rows; ++i)
    for (std::uint64_t j = 0; j < cols; ++j) m.at(i, j) = r.i64();
  return m;
}

// ---- file framing ----------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool writeSnapshotFile(const std::string& path, const std::string& payload) {
  Writer header;
  header.u32(kSnapshotVersion);
  header.u64(payload.size());
  header.u64(fnv1a(payload));

  std::string framed(kSnapshotMagic, sizeof(kSnapshotMagic));
  framed += header.buffer();
  framed += payload;

  if (const auto fault = support::fireFault("snapshot_write")) {
    if (fault->action == "fail") return false;
    if (fault->action == "corrupt" && !payload.empty()) {
      // Flip one payload byte AFTER checksumming: the next restore must
      // detect the mismatch and cold-start.
      framed[framed.size() - 1 - payload.size() / 2] ^= 0x01;
    } else if (fault->action == "truncate") {
      framed.resize(framed.size() / 2);
    }
  }

  // Atomic + durable publish: fsync the tmp file before the rename so the
  // rename can never become durable while the data is not, then rename,
  // then fsync the containing directory so the rename itself survives a
  // power loss. A crash between any two steps leaves either the old
  // snapshot or none, never a half-written file under `path`.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* data = framed.data();
  std::size_t left = framed.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
  if (const int dirFd = ::open(dir.c_str(), O_RDONLY); dirFd >= 0) {
    ::fsync(dirFd);  // best-effort: the data itself is already durable
    ::close(dirFd);
  }
  return true;
}

std::optional<std::string> readSnapshotFile(const std::string& path,
                                            RestoreStatus* status,
                                            std::string* message) {
  auto cold = [&](RestoreStatus s, const std::string& m) {
    if (status) *status = s;
    if (message) *message = m;
    return std::nullopt;
  };

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return cold(RestoreStatus::Missing, "no snapshot at " + path);
  // One sized read: a snapshot is megabytes, and a per-character stream
  // iterator costs more than decoding it.
  const std::streamoff fileSize = in.tellg();
  if (fileSize < 0) return cold(RestoreStatus::IoError, "cannot read " + path);
  std::string framed(static_cast<std::size_t>(fileSize), '\0');
  in.seekg(0);
  if (!in.read(framed.data(), fileSize))
    return cold(RestoreStatus::IoError, "cannot read " + path);

  constexpr std::size_t kHeaderSize = sizeof(kSnapshotMagic) + 4 + 8 + 8;
  if (framed.size() < kHeaderSize)
    return cold(RestoreStatus::Corrupt, "snapshot shorter than its header");
  if (std::memcmp(framed.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    return cold(RestoreStatus::Corrupt, "bad snapshot magic");

  Reader header(framed);
  // Skip the magic by re-reading it through the bounds-checked reader.
  for (std::size_t i = 0; i < sizeof(kSnapshotMagic); ++i) header.u8();
  const std::uint32_t version = header.u32();
  const std::uint64_t size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (version != kSnapshotVersion)
    return cold(RestoreStatus::VersionMismatch,
                "snapshot version " + std::to_string(version) + " != " +
                    std::to_string(kSnapshotVersion));
  if (size != framed.size() - kHeaderSize)
    return cold(RestoreStatus::Corrupt, "snapshot payload truncated");
  std::string payload = framed.substr(kHeaderSize);
  if (fnv1a(payload) != checksum)
    return cold(RestoreStatus::Corrupt, "snapshot checksum mismatch");

  if (status) *status = RestoreStatus::Restored;
  if (message) message->clear();
  return payload;
}

}  // namespace tensorlib::driver::snapshot
