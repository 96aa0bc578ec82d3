#include "robust/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <set>

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

std::string NodesToString(const std::vector<SubsetNode>& nodes) {
  if (nodes.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(nodes.size());
  for (const SubsetNode& node : nodes) {
    std::vector<std::string> dims, levels;
    for (int32_t d : node.dims) dims.push_back(StringPrintf("%d", d));
    for (int32_t l : node.levels) levels.push_back(StringPrintf("%d", l));
    parts.push_back(Join(dims, ".") + "@" + Join(levels, "."));
  }
  return Join(parts, ";");
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

std::string CountersToString(const CheckpointCounters& c) {
  return StringPrintf("%lld,%lld,%lld,%lld,%lld,%lld",
                      static_cast<long long>(c.nodes_checked),
                      static_cast<long long>(c.nodes_marked),
                      static_cast<long long>(c.table_scans),
                      static_cast<long long>(c.rollups),
                      static_cast<long long>(c.freq_groups_built),
                      static_cast<long long>(c.candidate_nodes));
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

uint32_t Crc32(const void* data, size_t len) {
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
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
  std::string payload;
  {
    std::vector<std::string> heights;
    for (int32_t h : snapshot.fingerprint.heights) {
      heights.push_back(StringPrintf("%d", h));
    }
    payload += StringPrintf(
        "fingerprint k=%lld sup=%lld rows=%llu heights=%s variant=%d "
        "transitive=%d rollup=%d\n",
        static_cast<long long>(snapshot.fingerprint.k),
        static_cast<long long>(snapshot.fingerprint.max_suppressed),
        static_cast<unsigned long long>(snapshot.fingerprint.rows),
        Join(heights, ",").c_str(), snapshot.fingerprint.variant,
        snapshot.fingerprint.mark_transitively ? 1 : 0,
        snapshot.fingerprint.use_rollup ? 1 : 0);
  }
  for (const CheckpointRecord& record : snapshot.records) {
    payload += StringPrintf(
        "mask %llu survivors=%s counters=%s\n",
        static_cast<unsigned long long>(record.mask),
        NodesToString(record.survivors).c_str(),
        CountersToString(record.counters).c_str());
  }
  payload += "end\n";

  uint32_t crc = Crc32(payload.data(), payload.size());
  return StringPrintf("%s %d\ncrc %08x\n", kMagic, kFormatVersion, crc) +
         payload;
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
                                     CheckpointFingerprint fingerprint)
    : policy_(policy), fingerprint_(std::move(fingerprint)) {}

void CheckpointManager::Seed(const CheckpointSnapshot& restored) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const CheckpointRecord& record : restored.records) {
    records_[record.mask] = record;
  }
}

void CheckpointManager::AddMask(uint64_t mask,
                                std::vector<SubsetNode> survivors,
                                const CheckpointCounters& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckpointRecord& record = records_[mask];
  record.mask = mask;
  record.survivors = std::move(survivors);
  record.counters = delta;
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
  CheckpointSnapshot snapshot;
  snapshot.fingerprint = fingerprint_;
  snapshot.records.reserve(records_.size());
  for (const auto& [key, record] : records_) snapshot.records.push_back(record);
  std::string content = SerializeCheckpoint(snapshot);
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
