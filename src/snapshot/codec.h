// Binary snapshot codec: little-endian, versioned, CRC-guarded.
//
// Layout of a snapshot file:
//
//   magic   u32   'S''T''S''N' (0x4e535453, written little-endian)
//   version u32   kFormatVersion — bump on ANY layout change
//   length  u64   byte count of the body that follows
//   crc32   u32   CRC-32 (IEEE, reflected) of the body bytes
//   body    ...   sections written by the participants
//
// Writer accumulates the body in memory and writes the whole file at
// close; Reader validates magic, version, length, and CRC *before* any
// field is handed out, so a corrupt or truncated file fails cleanly with
// no state touched (restore-or-nothing; see DESIGN.md §11).
//
// Reader uses a sticky error model: every read is bounds-checked, the
// first failure latches an error message, and subsequent reads return
// zeros/empties. Loaders can read a whole section and check ok() once,
// but must still range-check semantic values (indices, counts) before
// applying them — the CRC proves integrity, not meaning.
//
// Header-only so low-level modules (sim, net, vod) can take Writer&/
// Reader& in their saveState/loadState without a dependency cycle on the
// snapshot orchestrator library.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_tag.h"
#include "util/rng.h"
#include "util/stats.h"

namespace st::snapshot {

inline constexpr std::uint32_t kMagic = 0x4e535453;  // "STSN"
// Version 4: sections store records only. FLOW drops the per-endpoint
// membership lists, XFER the flow-to-watch map and the per-user prefetch
// tallies, SESS the per-user online flag; loaders rebuild each from the
// records. Version 3 (the first processor-sharing FLOW section), version 2
// (per-flow byte ledgers and finish events) and version 1 (a separate
// unsharded queue section) are refused.
inline constexpr std::uint32_t kFormatVersion = 4;
inline constexpr std::uint64_t kMaxSnapshotBytes = 1ull << 32;

namespace detail {

inline constexpr std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrcTable = makeCrcTable();

}  // namespace detail

inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                           std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c = detail::kCrcTable[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

class Writer {
 public:
  void u8(std::uint8_t v) { body_.push_back(v); }
  void u16(std::uint16_t v) { writeLe(v); }
  void u32(std::uint32_t v) { writeLe(v); }
  void u64(std::uint64_t v) { writeLe(v); }
  void i64(std::int64_t v) { writeLe(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    writeLe(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    body_.insert(body_.end(), s.begin(), s.end());
  }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    body_.insert(body_.end(), p, p + size);
  }

  // Section framing: a tag marks the start of each participant's state so
  // a reader landing off-by-one fails loudly instead of misparsing.
  void section(std::uint32_t tag) { u32(tag); }

  [[nodiscard]] const std::vector<std::uint8_t>& body() const { return body_; }

  // Assembles header + body and writes the file; false (with *error set)
  // on I/O failure.
  bool writeFile(const std::string& path, std::string* error) const;

 private:
  template <typename T>
  void writeLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      body_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> body_;
};

class Reader {
 public:
  // Parses and validates a whole snapshot file image (magic, version,
  // length, CRC). On failure ok() is false and nothing can be read.
  explicit Reader(std::vector<std::uint8_t> file) : file_(std::move(file)) {
    validateHeader();
  }

  static bool readFile(const std::string& path,
                       std::vector<std::uint8_t>* out, std::string* error);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] bool atEnd() const { return pos_ == end_; }

  std::uint8_t u8() { return readLe<std::uint8_t>(); }
  std::uint16_t u16() { return readLe<std::uint16_t>(); }
  std::uint32_t u32() { return readLe<std::uint32_t>(); }
  std::uint64_t u64() { return readLe<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t size = u64();
    if (!checkAvail(size, "string")) return {};
    std::string s(reinterpret_cast<const char*>(file_.data() + pos_),
                  static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return s;
  }
  void bytes(void* out, std::size_t size) {
    if (!checkAvail(size, "bytes")) {
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, file_.data() + pos_, size);
    pos_ += size;
  }

  // Reads a u32 id that indexes a table of `limit` entries; the invalid
  // (all-ones) id passes too when `noneOk`. Any other value fails naming
  // `field`: the CRC proves integrity, not that an id is in range.
  std::uint32_t id(std::uint64_t limit, std::string_view field,
                   bool noneOk = false) {
    const std::uint32_t v = u32();
    if (ok() && v >= limit && !(noneOk && v == ~std::uint32_t{0})) {
      fail(std::string(field) + " out of range");
    }
    return v;
  }

  // Reads a section tag and latches an error if it is not `expected`.
  void section(std::uint32_t expected, const char* name) {
    const std::uint32_t got = u32();
    if (ok() && got != expected) {
      fail(std::string("section mismatch: expected ") + name);
    }
  }

  // Bounds-checked element count for a container about to be filled: a
  // count that could not possibly fit in the remaining bytes (at
  // `minBytesPer` each) is corrupt even if the CRC passed.
  std::size_t count(std::size_t minBytesPer = 1) {
    const std::uint64_t n = u64();
    if (!ok()) return 0;
    const std::size_t avail = end_ - pos_;
    if (minBytesPer == 0) minBytesPer = 1;
    if (n > avail / minBytesPer) {
      fail("implausible element count");
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
    pos_ = end_;  // stop all further reads
  }

 private:
  void validateHeader();

  template <typename T>
  T readLe() {
    if (!checkAvail(sizeof(T), "integer")) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<std::uint64_t>(file_[pos_ + i])
                              << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  bool checkAvail(std::uint64_t size, const char* what) {
    if (!ok()) return false;
    if (size > end_ - pos_) {
      fail(std::string("truncated ") + what);
      return false;
    }
    return true;
  }

  std::vector<std::uint8_t> file_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::uint32_t version_ = 0;
  std::string error_ = "unvalidated";
};

inline void Reader::validateHeader() {
  error_.clear();
  pos_ = 0;
  end_ = file_.size();
  constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;
  if (file_.size() < kHeaderBytes) {
    fail("snapshot shorter than header");
    return;
  }
  if (readLe<std::uint32_t>() != kMagic) {
    fail("bad magic (not a snapshot file)");
    return;
  }
  version_ = readLe<std::uint32_t>();
  if (version_ != kFormatVersion) {
    fail("unsupported snapshot format version " + std::to_string(version_) +
         " (this build reads version " + std::to_string(kFormatVersion) +
         ")");
    return;
  }
  const std::uint64_t length = readLe<std::uint64_t>();
  const std::uint32_t expectedCrc = readLe<std::uint32_t>();
  if (length != file_.size() - kHeaderBytes) {
    fail("body length mismatch (truncated or padded file)");
    return;
  }
  const std::uint32_t actual =
      crc32(file_.data() + kHeaderBytes, static_cast<std::size_t>(length));
  if (actual != expectedCrc) {
    fail("CRC mismatch (corrupt snapshot)");
    return;
  }
  pos_ = kHeaderBytes;
}

inline bool Writer::writeFile(const std::string& path,
                              std::string* error) const {
  std::vector<std::uint8_t> header;
  const auto le32 = [&header](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto le64 = [&header](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      header.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  le32(kMagic);
  le32(kFormatVersion);
  le64(body_.size());
  le32(crc32(body_.data(), body_.size()));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  bool good = std::fwrite(header.data(), 1, header.size(), f) ==
              header.size();
  if (good && !body_.empty()) {
    good = std::fwrite(body_.data(), 1, body_.size(), f) == body_.size();
  }
  good = (std::fclose(f) == 0) && good;
  if (!good && error != nullptr) *error = "short write to " + path;
  return good;
}

inline bool Reader::readFile(const std::string& path,
                             std::vector<std::uint8_t>* out,
                             std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out->clear();
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
    if (out->size() > kMaxSnapshotBytes) {
      std::fclose(f);
      if (error != nullptr) *error = path + " is implausibly large";
      return false;
    }
  }
  const bool readError = std::ferror(f) != 0;
  std::fclose(f);
  if (readError) {
    if (error != nullptr) *error = "read error on " + path;
    return false;
  }
  return true;
}

// A RunningStats accumulator as five fields (count, mean, m2, min, max).
inline void saveRunningStats(Writer& w, const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  w.u64(s.count);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
}

inline RunningStats loadRunningStats(Reader& r) {
  RunningStats::State s;
  s.count = static_cast<std::size_t>(r.u64());
  s.mean = r.f64();
  s.m2 = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  RunningStats stats;
  stats.setState(s);
  return stats;
}

// An Rng stream position: the four state words, then the Box-Muller spare
// and its flag.
inline void saveRngState(Writer& w, const Rng::State& s) {
  for (const std::uint64_t word : s.s) w.u64(word);
  w.f64(s.spareNormal);
  w.boolean(s.hasSpareNormal);
}

inline Rng::State loadRngState(Reader& r) {
  Rng::State s;
  for (std::uint64_t& word : s.s) word = r.u64();
  s.spareNormal = r.f64();
  s.hasSpareNormal = r.boolean();
  return s;
}

// A 40-byte EventTag, field by field in member order.
inline void saveEventTag(Writer& w, const sim::EventTag& tag) {
  w.u8(tag.component);
  w.u8(tag.kind);
  w.u16(tag.stage);
  w.u32(tag.a32);
  w.u64(tag.a);
  w.u64(tag.b);
  w.u64(tag.c);
  w.u64(tag.d);
}

// Fails, naming the component and kind, when the component id is past the
// last one: no factory can hold such a tag.
inline sim::EventTag loadEventTag(Reader& r) {
  sim::EventTag tag;
  tag.component = r.u8();
  tag.kind = r.u8();
  tag.stage = r.u16();
  tag.a32 = r.u32();
  tag.a = r.u64();
  tag.b = r.u64();
  tag.c = r.u64();
  tag.d = r.u64();
  if (r.ok() && tag.component >= sim::kComponentCount) {
    r.fail("event tag (component " + std::to_string(tag.component) +
           ", kind " + std::to_string(tag.kind) + ") names no component");
  }
  return tag;
}

}  // namespace st::snapshot
