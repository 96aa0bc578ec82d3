#include "robust/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <set>
#include <utility>

#include "common/strings.h"
#include "core/incognito.h"
#include "core/quasi_identifier.h"
#include "relation/table.h"
#include "robust/safe_io.h"

namespace incognito {

namespace {

constexpr char kMagic[] = "incognito-checkpoint";
constexpr int kFormatVersion = 2;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Appends the decimal digits of `v`.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
  out->append(digits, end);
}

/// Appends `values` as decimal integers separated by `sep`.
void AppendIntList(std::string* out, const std::vector<int32_t>& values,
                   char sep) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(sep);
    AppendInt(out, values[i]);
  }
}

std::string FingerprintLine(const CheckpointFingerprint& fp) {
  std::string line = "fingerprint k=";
  AppendInt(&line, fp.k);
  line += " sup=";
  AppendInt(&line, fp.max_suppressed);
  line += " rows=";
  AppendInt(&line, fp.rows);
  line += " heights=";
  AppendIntList(&line, fp.heights, ',');
  line += " variant=";
  AppendInt(&line, fp.variant);
  line += fp.mark_transitively ? " transitive=1" : " transitive=0";
  line += fp.use_rollup ? " rollup=1\n" : " rollup=0\n";
  return line;
}

/// One "mask" record line, newline included.
std::string RecordLine(uint64_t mask, const std::vector<SubsetNode>& survivors,
                       const CheckpointCounters& c) {
  std::string line = "mask ";
  AppendInt(&line, mask);
  line += " survivors=";
  if (survivors.empty()) line.push_back('-');
  for (size_t i = 0; i < survivors.size(); ++i) {
    if (i > 0) line.push_back(';');
    AppendIntList(&line, survivors[i].dims, '.');
    line.push_back('@');
    AppendIntList(&line, survivors[i].levels, '.');
  }
  line += " counters=";
  for (int64_t v : {c.nodes_checked, c.nodes_marked, c.table_scans, c.rollups,
                    c.freq_groups_built, c.candidate_nodes}) {
    AppendInt(&line, v);
    line.push_back(',');
  }
  line.back() = '\n';
  return line;
}

/// The header "<magic> <version>\ncrc <8 hex digits>\n" has a fixed size,
/// so a writer starts from it with a placeholder CRC, appends the payload,
/// and then seals the CRC in place — no second copy of the payload.
std::string BeginCheckpoint() {
  return StringPrintf("%s %d\ncrc 00000000\n", kMagic, kFormatVersion);
}

void SealCheckpoint(std::string* content) {
  static const size_t header = BeginCheckpoint().size();
  uint32_t crc = Crc32(content->data() + header, content->size() - header);
  char* hex = content->data() + header - 9;  // the 8 digits before '\n'
  for (int i = 7; i >= 0; --i, crc >>= 4) {
    hex[i] = "0123456789abcdef"[crc & 0xFu];
  }
}

bool ParseIntList(std::string_view s, std::vector<int32_t>* out,
                  char sep = '.') {
  out->clear();
  if (s.empty()) return false;
  for (const std::string& field : Split(s, sep)) {
    int64_t v = 0;
    if (!ParseInt64(field, &v) || v < 0 || v > INT32_MAX) return false;
    out->push_back(static_cast<int32_t>(v));
  }
  return true;
}

bool ParseNodes(std::string_view s, std::vector<SubsetNode>* out) {
  out->clear();
  if (s == "-") return true;
  if (s.empty()) return false;
  for (const std::string& part : Split(s, ';')) {
    size_t at = part.find('@');
    if (at == std::string::npos) return false;
    SubsetNode node;
    if (!ParseIntList(std::string_view(part).substr(0, at), &node.dims) ||
        !ParseIntList(std::string_view(part).substr(at + 1), &node.levels)) {
      return false;
    }
    if (node.dims.size() != node.levels.size()) return false;
    // dims must be strictly ascending — the SubsetNode invariant.
    for (size_t i = 1; i < node.dims.size(); ++i) {
      if (node.dims[i] <= node.dims[i - 1]) return false;
    }
    out->push_back(std::move(node));
  }
  return true;
}

bool ParseCounters(std::string_view s, CheckpointCounters* out) {
  std::vector<std::string> fields = Split(s, ',');
  if (fields.size() != 6) return false;
  int64_t* slots[6] = {&out->nodes_checked,     &out->nodes_marked,
                       &out->table_scans,       &out->rollups,
                       &out->freq_groups_built, &out->candidate_nodes};
  for (size_t i = 0; i < 6; ++i) {
    if (!ParseInt64(fields[i], slots[i]) || *slots[i] < 0) return false;
  }
  return true;
}

// Parses "key=value" and returns the value, or nullopt-equivalent "".
bool TakeField(const std::vector<std::string>& fields, size_t index,
               std::string_view key, std::string_view* value) {
  if (index >= fields.size()) return false;
  std::string_view f = fields[index];
  if (f.size() <= key.size() + 1 || f.substr(0, key.size()) != key ||
      f[key.size()] != '=') {
    return false;
  }
  *value = f.substr(key.size() + 1);
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::FailedPrecondition("corrupt checkpoint: " + what);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  // Slicing-by-8: kTables[k][b] is the CRC step of byte b followed by k
  // zero bytes, so eight input bytes fold into the state with eight
  // independent lookups instead of eight dependent ones.
  static const auto* kTables = [] {
    static uint32_t tables[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  crc ^= 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    // Little-endian assembly by shifts: byte order independent of the host.
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    const uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 |
                        uint32_t{p[6]} << 16 | uint32_t{p[7]} << 24;
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

CheckpointCounters& CheckpointCounters::operator+=(
    const CheckpointCounters& o) {
  nodes_checked += o.nodes_checked;
  nodes_marked += o.nodes_marked;
  table_scans += o.table_scans;
  rollups += o.rollups;
  freq_groups_built += o.freq_groups_built;
  candidate_nodes += o.candidate_nodes;
  return *this;
}

CheckpointCounters& CheckpointCounters::operator-=(
    const CheckpointCounters& o) {
  nodes_checked -= o.nodes_checked;
  nodes_marked -= o.nodes_marked;
  table_scans -= o.table_scans;
  rollups -= o.rollups;
  freq_groups_built -= o.freq_groups_built;
  candidate_nodes -= o.candidate_nodes;
  return *this;
}

CheckpointFingerprint MakeCheckpointFingerprint(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const IncognitoOptions& options) {
  CheckpointFingerprint fp;
  fp.k = config.k;
  fp.max_suppressed = config.max_suppressed;
  fp.rows = table.num_rows();
  fp.heights = qid.MaxLevels();
  fp.variant = static_cast<int32_t>(options.variant);
  fp.mark_transitively = options.mark_transitively;
  fp.use_rollup = options.use_rollup;
  return fp;
}

std::string SerializeCheckpoint(const CheckpointSnapshot& snapshot) {
  std::string content = BeginCheckpoint();
  content += FingerprintLine(snapshot.fingerprint);
  for (const CheckpointRecord& record : snapshot.records) {
    content += RecordLine(record.mask, record.survivors, record.counters);
  }
  content += "end\n";
  SealCheckpoint(&content);
  return content;
}

Result<CheckpointSnapshot> ParseCheckpoint(const std::string& content) {
  // Header: "<magic> <version>\n".
  size_t eol = content.find('\n');
  if (eol == std::string::npos) return Corrupt("missing header line");
  {
    std::vector<std::string> head = Split(content.substr(0, eol), ' ');
    int64_t version = 0;
    if (head.size() != 2 || head[0] != kMagic ||
        !ParseInt64(head[1], &version)) {
      return Corrupt("bad magic line");
    }
    if (version != kFormatVersion) {
      return Status::FailedPrecondition(StringPrintf(
          "checkpoint format version %lld is not supported (expected %d)",
          static_cast<long long>(version), kFormatVersion));
    }
  }
  // "crc <hex>\n".
  size_t crc_start = eol + 1;
  size_t crc_eol = content.find('\n', crc_start);
  if (crc_eol == std::string::npos) return Corrupt("missing crc line");
  uint32_t expected_crc = 0;
  {
    std::string crc_line = content.substr(crc_start, crc_eol - crc_start);
    if (crc_line.size() != 12 || crc_line.compare(0, 4, "crc ") != 0) {
      return Corrupt("bad crc line");
    }
    for (size_t i = 4; i < 12; ++i) {
      char c = crc_line[i];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = 10 + (c - 'a');
      } else {
        return Corrupt("bad crc line");
      }
      expected_crc = (expected_crc << 4) | digit;
    }
  }
  const size_t payload_start = crc_eol + 1;
  uint32_t actual_crc = Crc32(content.data() + payload_start,
                              content.size() - payload_start);
  if (actual_crc != expected_crc) {
    return Corrupt(StringPrintf("crc mismatch (stored %08x, computed %08x)",
                                expected_crc, actual_crc));
  }

  CheckpointSnapshot snapshot;
  bool saw_fingerprint = false;
  bool saw_end = false;
  size_t pos = payload_start;
  std::set<uint64_t> seen_masks;
  while (pos < content.size()) {
    size_t line_eol = content.find('\n', pos);
    if (line_eol == std::string::npos) return Corrupt("unterminated line");
    std::string line = content.substr(pos, line_eol - pos);
    pos = line_eol + 1;
    if (saw_end) return Corrupt("data after end marker");
    if (line == "end") {
      saw_end = true;
      continue;
    }
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.empty()) return Corrupt("empty line");
    if (fields[0] == "fingerprint") {
      if (saw_fingerprint) return Corrupt("duplicate fingerprint");
      if (fields.size() != 8) return Corrupt("bad fingerprint line");
      CheckpointFingerprint& fp = snapshot.fingerprint;
      std::string_view v;
      int64_t iv = 0;
      if (!TakeField(fields, 1, "k", &v) || !ParseInt64(v, &fp.k)) {
        return Corrupt("bad fingerprint k");
      }
      if (!TakeField(fields, 2, "sup", &v) ||
          !ParseInt64(v, &fp.max_suppressed)) {
        return Corrupt("bad fingerprint sup");
      }
      if (!TakeField(fields, 3, "rows", &v) || !ParseInt64(v, &iv) || iv < 0) {
        return Corrupt("bad fingerprint rows");
      }
      fp.rows = static_cast<uint64_t>(iv);
      if (!TakeField(fields, 4, "heights", &v)) {
        return Corrupt("bad fingerprint heights");
      }
      std::vector<int32_t> heights;
      if (!ParseIntList(v, &heights, ',')) {
        return Corrupt("bad fingerprint heights");
      }
      fp.heights = std::move(heights);
      if (!TakeField(fields, 5, "variant", &v) || !ParseInt64(v, &iv) ||
          iv < 0 || iv > 2) {
        return Corrupt("bad fingerprint variant");
      }
      fp.variant = static_cast<int32_t>(iv);
      if (!TakeField(fields, 6, "transitive", &v) || !ParseInt64(v, &iv) ||
          (iv != 0 && iv != 1)) {
        return Corrupt("bad fingerprint transitive");
      }
      fp.mark_transitively = iv == 1;
      if (!TakeField(fields, 7, "rollup", &v) || !ParseInt64(v, &iv) ||
          (iv != 0 && iv != 1)) {
        return Corrupt("bad fingerprint rollup");
      }
      fp.use_rollup = iv == 1;
      saw_fingerprint = true;
      continue;
    }
    if (fields[0] == "mask") {
      if (!saw_fingerprint) return Corrupt("record before fingerprint");
      if (fields.size() != 4) return Corrupt("bad record line");
      CheckpointRecord record;
      const size_t n = snapshot.fingerprint.heights.size();
      int64_t mask = 0;
      if (!ParseInt64(fields[1], &mask) || n > kMaxQidAttributes ||
          mask < 1 || mask >= (int64_t{1} << n)) {
        return Corrupt("mask out of range");
      }
      record.mask = static_cast<uint64_t>(mask);
      if (!seen_masks.insert(record.mask).second) {
        return Corrupt("duplicate mask record");
      }
      std::string_view v;
      if (!TakeField(fields, 2, "survivors", &v) ||
          !ParseNodes(v, &record.survivors)) {
        return Corrupt("bad record survivors");
      }
      for (const SubsetNode& node : record.survivors) {
        // Every node must fit the record's subset and the fingerprint.
        uint64_t node_mask = 0;
        for (size_t i = 0; i < node.dims.size(); ++i) {
          const size_t d = static_cast<size_t>(node.dims[i]);
          if (d >= n) return Corrupt("survivor dimension out of range");
          node_mask |= uint64_t{1} << d;
          if (node.levels[i] > snapshot.fingerprint.heights[d]) {
            return Corrupt("survivor level above hierarchy height");
          }
        }
        if (node_mask != record.mask) {
          return Corrupt("survivor dims do not match mask");
        }
      }
      if (!std::is_sorted(record.survivors.begin(), record.survivors.end())) {
        return Corrupt("survivors not sorted");
      }
      if (!TakeField(fields, 3, "counters", &v) ||
          !ParseCounters(v, &record.counters)) {
        return Corrupt("bad record counters");
      }
      snapshot.records.push_back(std::move(record));
      continue;
    }
    return Corrupt("unknown record kind '" + fields[0] + "'");
  }
  if (!saw_fingerprint) return Corrupt("missing fingerprint");
  if (!saw_end) return Corrupt("missing end marker");
  return snapshot;
}

Status WriteCheckpoint(const std::string& path,
                       const CheckpointSnapshot& snapshot) {
  return WriteFileAtomic(path, SerializeCheckpoint(snapshot),
                         "checkpoint.write");
}

Result<CheckpointSnapshot> LoadCheckpoint(const std::string& path) {
  Result<std::string> content = ReadFileToString(path, "checkpoint.load");
  if (!content.ok()) return content.status();
  return ParseCheckpoint(content.value());
}

CheckpointManager::CheckpointManager(const CheckpointPolicy& policy,
                                     const CheckpointFingerprint& fingerprint)
    : policy_(policy), fingerprint_line_(FingerprintLine(fingerprint)) {}

void CheckpointManager::Seed(const CheckpointSnapshot& restored) {
  std::vector<std::pair<uint64_t, std::string>> lines;
  lines.reserve(restored.records.size());
  for (const CheckpointRecord& record : restored.records) {
    lines.emplace_back(record.mask, RecordLine(record.mask, record.survivors,
                                               record.counters));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [mask, line] : lines) lines_[mask] = std::move(line);
}

void CheckpointManager::AddMask(uint64_t mask,
                                const std::vector<SubsetNode>& survivors,
                                const CheckpointCounters& delta) {
  // A finished subset's record is final: format it once, outside the lock.
  std::string line = RecordLine(mask, survivors, delta);
  std::lock_guard<std::mutex> lock(mu_);
  lines_[mask] = std::move(line);
  dirty_ = true;
}

bool CheckpointManager::MaybeWrite() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!policy_.enabled() || !dirty_) return false;
  if (policy_.interval_ms > 0 && last_write_ns_ >= 0 &&
      NowNanos() - last_write_ns_ < policy_.interval_ms * 1000000) {
    return false;
  }
  return WriteLocked();
}

bool CheckpointManager::WriteNow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!policy_.enabled() || !dirty_) return false;
  return WriteLocked();
}

bool CheckpointManager::WriteLocked() {
  std::string content = BeginCheckpoint();
  content += fingerprint_line_;
  for (const auto& [mask, line] : lines_) content += line;
  content += "end\n";
  SealCheckpoint(&content);
  Status status = RetryWithBackoff(policy_.retry, [&] {
    return WriteFileAtomic(policy_.path, content, "checkpoint.write");
  });
  last_write_ns_ = NowNanos();
  if (!status.ok()) {
    // Stay dirty: the next boundary (interval permitting) retries.
    ++write_failures_;
    return false;
  }
  dirty_ = false;
  ++writes_;
  bytes_written_ += static_cast<int64_t>(content.size());
  return true;
}

int64_t CheckpointManager::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

int64_t CheckpointManager::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

int64_t CheckpointManager::write_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_failures_;
}

}  // namespace incognito
