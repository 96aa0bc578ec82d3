#ifndef INCOGNITO_ROBUST_CHECKPOINT_H_
#define INCOGNITO_ROBUST_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "lattice/node.h"
#include "robust/retry.h"

namespace incognito {

class QuasiIdentifier;
class Table;
struct AnonymizationConfig;
struct IncognitoOptions;

/// Crash-safe checkpoint/restore for the Incognito lattice search
/// (docs/ROBUSTNESS.md "Checkpoint format & recovery contract").
///
/// The search is monotone at subset granularity: once a subset's candidate
/// graph has been fully evaluated its surviving nodes are final, and the
/// Subset Property (paper §3.1) makes every larger subset depend only on
/// them. A checkpoint is therefore just the set of finished subsets — one
/// record per attribute-subset bitmask — plus the counter deltas each
/// contributed, so a resumed run reports totals bit-identical to an
/// uninterrupted one.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `len` bytes.
/// `crc` is the CRC of the bytes before these, so data can be fed in
/// pieces: Crc32(b, nb, Crc32(a, na)) is the CRC of a followed by b.
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

/// How `--resume` treats a missing/invalid checkpoint file.
enum class ResumeMode {
  kOff,      ///< ignore any existing checkpoint; start fresh
  kAuto,     ///< resume when a valid compatible checkpoint exists, else fresh
  kRequire,  ///< fail (I/O or precondition error) when resume is impossible
};

/// Checkpointing configuration, threaded through RunContext. The policy is
/// inert (`enabled() == false`) unless a path is set.
struct CheckpointPolicy {
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string path;
  /// Minimum milliseconds between periodic writes; 0 writes at every
  /// finished subset. A governor trip always spills immediately.
  int64_t interval_ms = 0;
  ResumeMode resume = ResumeMode::kOff;
  /// Retry policy for checkpoint *writes* issued by the manager; load and
  /// the direct Write/LoadCheckpoint calls never retry.
  RetryPolicy retry;

  bool enabled() const { return !path.empty(); }
};

/// Identifies the run a checkpoint belongs to. Everything that changes the
/// search outcome participates; the thread count does NOT (every count is
/// bit-identical, so checkpoints are portable across them).
struct CheckpointFingerprint {
  int64_t k = 0;
  int64_t max_suppressed = 0;
  uint64_t rows = 0;
  std::vector<int32_t> heights;  ///< per-attribute hierarchy heights
  int32_t variant = 0;           ///< IncognitoVariant as an integer
  bool mark_transitively = true;
  bool use_rollup = true;

  bool operator==(const CheckpointFingerprint& other) const {
    return k == other.k && max_suppressed == other.max_suppressed &&
           rows == other.rows && heights == other.heights &&
           variant == other.variant &&
           mark_transitively == other.mark_transitively &&
           use_rollup == other.use_rollup;
  }
  bool operator!=(const CheckpointFingerprint& other) const {
    return !(*this == other);
  }
};

/// Builds the fingerprint of the current run.
CheckpointFingerprint MakeCheckpointFingerprint(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const IncognitoOptions& options);

/// The deterministic solution counters a finished subset contributed —
/// exactly the AlgorithmStats fields covered by the bit-identity contract
/// (docs/PARALLELISM.md). Governor/timing fields are never checkpointed.
struct CheckpointCounters {
  int64_t nodes_checked = 0;
  int64_t nodes_marked = 0;
  int64_t table_scans = 0;
  int64_t rollups = 0;
  int64_t freq_groups_built = 0;
  int64_t candidate_nodes = 0;

  CheckpointCounters& operator+=(const CheckpointCounters& o);
  CheckpointCounters& operator-=(const CheckpointCounters& o);
};

/// One finished attribute subset of the search.
struct CheckpointRecord {
  /// Attribute-dimension bitmask of the subset (bit d = QID attribute d);
  /// the full mask is the apex (final) search.
  uint64_t mask = 0;
  std::vector<SubsetNode> survivors;  ///< sorted ascending (SubsetNode <)
  CheckpointCounters counters;
};

struct CheckpointSnapshot {
  CheckpointFingerprint fingerprint;
  std::vector<CheckpointRecord> records;
};

/// On-disk text format, versioned and CRC-checksummed:
///
///   incognito-checkpoint 2
///   crc <8 lowercase hex digits>
///   fingerprint k=... sup=... rows=... heights=h0,h1,... variant=...
///     transitive=0|1 rollup=0|1                     (one line)
///   mask <m> survivors=<nodes> counters=<6 ints>    (one per subset)
///   end
///
/// <nodes> is `;`-separated `dims@levels` with `.`-separated ints, or `-`
/// for an empty set. The CRC covers every byte after the crc line.
std::string SerializeCheckpoint(const CheckpointSnapshot& snapshot);

/// Strict bounds-checked parser. Corruption (bad magic, unsupported
/// version — a version-1 file included — CRC mismatch, truncation,
/// malformed records) comes back as FailedPrecondition — the CLI's
/// documented exit code 3.
Result<CheckpointSnapshot> ParseCheckpoint(const std::string& content);

/// Serializes and writes atomically via safe_io (temp + rename; fault
/// sites checkpoint.write.{open,io,rename}). No retry at this layer.
Status WriteCheckpoint(const std::string& path,
                       const CheckpointSnapshot& snapshot);

/// Reads (fault site checkpoint.load.open) and parses. A missing or
/// unreadable file is IOError (exit code 4); corruption is
/// FailedPrecondition (exit code 3). No retry at this layer.
Result<CheckpointSnapshot> LoadCheckpoint(const std::string& path);

/// Accumulates finished subsets and writes policy-gated snapshots.
/// Internally synchronized; safe to call from pipeline workers (call it
/// OUTSIDE the scheduler lock — writes do file I/O).
class CheckpointManager {
 public:
  CheckpointManager(const CheckpointPolicy& policy,
                    const CheckpointFingerprint& fingerprint);

  /// Seeds the record lines from a restored snapshot so the resumed run's
  /// checkpoints carry the full history.
  void Seed(const CheckpointSnapshot& restored);

  /// Records a finished subset. Its line is formatted here, before the
  /// lock is taken, and never again: a write only concatenates lines.
  void AddMask(uint64_t mask, const std::vector<SubsetNode>& survivors,
               const CheckpointCounters& delta);

  /// Policy-gated periodic write (interval_ms); returns true when a write
  /// was attempted. Failures are counted, never fatal.
  bool MaybeWrite();
  /// Writes pending records ignoring the interval — used to spill on a
  /// governor trip and to make the final subset durable at the end of a
  /// run.
  /// No-op (false) when nothing new has been recorded since the last
  /// successful write; true on a successful write.
  bool WriteNow();

  int64_t writes() const;
  int64_t bytes_written() const;
  int64_t write_failures() const;

 private:
  bool WriteLocked();

  const CheckpointPolicy policy_;
  const std::string fingerprint_line_;  ///< formatted once
  mutable std::mutex mu_;
  /// Formatted record line per finished subset, in mask order — the
  /// order SerializeCheckpoint writes records in.
  std::map<uint64_t, std::string> lines_;
  bool dirty_ = false;
  int64_t last_write_ns_ = -1;
  int64_t writes_ = 0;
  int64_t bytes_written_ = 0;
  int64_t write_failures_ = 0;
};

}  // namespace incognito

#endif  // INCOGNITO_ROBUST_CHECKPOINT_H_
