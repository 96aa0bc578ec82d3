// Tests for the crash-safe checkpoint subsystem (src/robust/checkpoint.*,
// src/core/checkpoint_resume.*): on-disk format round-trips, strict
// corruption rejection (the version-1 format included), the policy-gated
// manager, the bounded retry helper, and resume equivalence.
// Kill-at-any-point crash injection lives in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_resume.h"
#include "core/incognito.h"
#include "core/run_context.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/retry.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::NodeSet;
using testing_util::RandomDataset;

using testing_util::TempPath;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SubsetNode Node(std::vector<int32_t> dims, std::vector<int32_t> levels) {
  SubsetNode node;
  node.dims = std::move(dims);
  node.levels = std::move(levels);
  return node;
}

CheckpointSnapshot SampleSnapshot() {
  CheckpointSnapshot snap;
  snap.fingerprint.k = 2;
  snap.fingerprint.max_suppressed = 1;
  snap.fingerprint.rows = 60;
  snap.fingerprint.heights = {1, 2, 3};
  snap.fingerprint.variant = 1;
  snap.fingerprint.mark_transitively = true;
  snap.fingerprint.use_rollup = false;

  CheckpointRecord single;
  single.mask = 0b001;
  single.survivors = {Node({0}, {0}), Node({0}, {1})};
  single.counters.nodes_checked = 5;
  single.counters.candidate_nodes = 8;
  snap.records.push_back(single);

  CheckpointRecord pair;
  pair.mask = 0b011;
  pair.survivors = {Node({0, 1}, {0, 2})};
  pair.counters.table_scans = 2;
  snap.records.push_back(pair);

  CheckpointRecord empty;  // a subset can legitimately have no survivors
  empty.mask = 0b101;
  snap.records.push_back(empty);
  return snap;
}

// ---------------------------------------------------------------------------
// Format round-trip and strict parsing
// ---------------------------------------------------------------------------

TEST(CheckpointFormatTest, SerializeParseRoundTrips) {
  CheckpointSnapshot snap = SampleSnapshot();
  std::string content = SerializeCheckpoint(snap);
  Result<CheckpointSnapshot> parsed = ParseCheckpoint(content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->fingerprint == snap.fingerprint);
  ASSERT_EQ(parsed->records.size(), snap.records.size());
  for (size_t i = 0; i < snap.records.size(); ++i) {
    EXPECT_EQ(parsed->records[i].mask, snap.records[i].mask);
    EXPECT_EQ(NodeSet(parsed->records[i].survivors),
              NodeSet(snap.records[i].survivors));
    EXPECT_EQ(parsed->records[i].counters.nodes_checked,
              snap.records[i].counters.nodes_checked);
    EXPECT_EQ(parsed->records[i].counters.table_scans,
              snap.records[i].counters.table_scans);
  }
}

TEST(CheckpointFormatTest, SerializationIsDeterministic) {
  EXPECT_EQ(SerializeCheckpoint(SampleSnapshot()),
            SerializeCheckpoint(SampleSnapshot()));
}

TEST(CheckpointFormatTest, WriteLoadRoundTripsThroughDisk) {
  std::string path = TempPath("ckpt_roundtrip.txt");
  CheckpointSnapshot snap = SampleSnapshot();
  ASSERT_TRUE(WriteCheckpoint(path, snap).ok());
  Result<CheckpointSnapshot> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fingerprint == snap.fingerprint);
  EXPECT_EQ(loaded->records.size(), snap.records.size());
  std::remove(path.c_str());
}

TEST(CheckpointFormatTest, MissingFileIsIOError) {
  Result<CheckpointSnapshot> loaded =
      LoadCheckpoint(TempPath("no_such_checkpoint.txt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CheckpointFormatTest, EveryCorruptionIsRejectedAsFailedPrecondition) {
  const std::string valid = SerializeCheckpoint(SampleSnapshot());
  std::vector<std::string> corrupt;
  // Truncations at every prefix length (never valid: the end marker and
  // trailing newline are both mandatory).
  for (size_t len : {size_t{0}, size_t{5}, valid.size() / 2,
                     valid.size() - 1}) {
    corrupt.push_back(valid.substr(0, len));
  }
  // A flipped payload byte breaks the CRC.
  std::string flipped = valid;
  flipped[flipped.size() - 3] ^= 1;
  corrupt.push_back(flipped);
  // Garbage appended after the end marker.
  corrupt.push_back(valid + "extra\n");
  for (const std::string& content : corrupt) {
    Result<CheckpointSnapshot> parsed = ParseCheckpoint(content);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition)
        << parsed.status().ToString();
  }
}

TEST(CheckpointFormatTest, MalformedFixturesAreRejected) {
  for (const char* name :
       {"malformed_checkpoint_truncated.txt", "malformed_checkpoint_bitflip.txt",
        "malformed_checkpoint_version.txt", "malformed_checkpoint_magic.txt",
        "malformed_checkpoint_noend.txt"}) {
    std::string path = std::string(INCOGNITO_TEST_DATA_DIR) + "/" + name;
    ASSERT_TRUE(std::ifstream(path).good()) << "missing fixture " << path;
    Result<CheckpointSnapshot> loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
        << name << ": " << loaded.status().ToString();
  }
}

TEST(CheckpointFormatTest, ValidFixtureStaysLoadable) {
  // The committed fixture pins the v2 format: if serialization changes,
  // this fails until the format version is bumped and handled.
  std::string path =
      std::string(INCOGNITO_TEST_DATA_DIR) + "/valid_checkpoint.txt";
  Result<CheckpointSnapshot> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint.k, 2);
  EXPECT_EQ(loaded->records.size(), 7u);  // every subset of 3 attributes
  EXPECT_EQ(SerializeCheckpoint(loaded.value()), ReadAll(path));
}

TEST(CheckpointFormatTest, VersionOneFileIsRefused) {
  // A genuine version-1 file (per-iteration records) is refused as
  // FailedPrecondition, the CLI's exit code 3.
  std::string path = std::string(INCOGNITO_TEST_DATA_DIR) + "/v1_checkpoint.txt";
  Result<CheckpointSnapshot> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointFormatTest, Crc32MatchesTheStandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320), the definition the table
/// implementation must reproduce.
uint32_t BitwiseCrc32(const unsigned char* p, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(CheckpointFormatTest, Crc32EqualsBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-64 cover the 8-byte blocks and every tail length; offsets
  // 0-7 cover every alignment of the block loads.
  unsigned char bytes[8 + 64];
  uint32_t state = 12345;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(bytes + offset, len), BitwiseCrc32(bytes + offset, len))
          << "offset " << offset << " length " << len;
      // Fed in two pieces, seeded with the first piece's CRC.
      for (size_t cut = 0; cut <= len; cut += 7) {
        EXPECT_EQ(Crc32(bytes + offset + cut, len - cut,
                        Crc32(bytes + offset, cut)),
                  BitwiseCrc32(bytes + offset, len))
            << "offset " << offset << " length " << len << " cut " << cut;
      }
    }
  }
}

TEST(CheckpointFormatTest, SemanticValidationRejectsInconsistentRecords) {
  // Each mutation is re-serialized so the CRC is valid and only the
  // semantic check can reject it.
  auto reject = [](CheckpointSnapshot snap, const char* what) {
    Result<CheckpointSnapshot> parsed =
        ParseCheckpoint(SerializeCheckpoint(snap));
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition)
        << what;
  };
  {
    CheckpointSnapshot snap = SampleSnapshot();
    snap.records[0].mask = 0;  // the empty subset is not a unit of work
    reject(snap, "zero mask");
  }
  {
    CheckpointSnapshot snap = SampleSnapshot();
    snap.records[1].mask = 0b1000;  // mask beyond 2^n - 1
    reject(snap, "mask out of range");
  }
  {
    CheckpointSnapshot snap = SampleSnapshot();
    snap.records.push_back(snap.records[0]);  // duplicate mask
    reject(snap, "duplicate record");
  }
  {
    CheckpointSnapshot snap = SampleSnapshot();
    snap.records[0].survivors = {Node({0}, {7})};  // level > height
    reject(snap, "level above hierarchy height");
  }
  {
    CheckpointSnapshot snap = SampleSnapshot();
    snap.records[1].survivors = {Node({0, 2}, {0, 0})};  // dims != mask
    reject(snap, "mask record with mismatched dims");
  }
}

// ---------------------------------------------------------------------------
// Bounded retry (robust/retry.h)
// ---------------------------------------------------------------------------

TEST(RetryTest, NonePolicyNeverRetries) {
  int calls = 0;
  Status out = RetryWithBackoff(RetryPolicy::None(), [&] {
    ++calls;
    return Status::IOError("transient");
  });
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, RetriesTransientIOErrorUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_ms = 0;
  int calls = 0;
  Status out = RetryWithBackoff(policy, [&]() -> Status {
    return ++calls < 3 ? Status::IOError("transient") : Status::OK();
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonTransientErrorsAreNotRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_ms = 0;
  int calls = 0;
  Status out = RetryWithBackoff(policy, [&] {
    ++calls;
    return Status::FailedPrecondition("permanent");
  });
  EXPECT_EQ(out.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, WorksOnResultValues) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_ms = 0;
  int calls = 0;
  Result<int> out = RetryWithBackoff(policy, [&]() -> Result<int> {
    if (++calls < 2) return Status::IOError("transient");
    return 42;
  });
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), 42);
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------------------
// CheckpointManager (policy gating, durability counters)
// ---------------------------------------------------------------------------

CheckpointFingerprint SmallFingerprint() {
  CheckpointFingerprint fp;
  fp.k = 2;
  fp.rows = 10;
  fp.heights = {1, 1};
  return fp;
}

TEST(CheckpointManagerTest, DisabledPolicyNeverWrites) {
  CheckpointPolicy policy;  // no path
  CheckpointManager manager(policy, SmallFingerprint());
  manager.AddMask(0b01, {Node({0}, {0})}, {});
  EXPECT_FALSE(manager.MaybeWrite());
  EXPECT_FALSE(manager.WriteNow());
  EXPECT_EQ(manager.writes(), 0);
}

TEST(CheckpointManagerTest, IntervalZeroWritesAtEveryBoundary) {
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_manager.txt");
  CheckpointManager manager(policy, SmallFingerprint());
  manager.AddMask(0b01, {Node({0}, {0})}, {});
  EXPECT_TRUE(manager.MaybeWrite());
  manager.AddMask(0b11, {Node({0, 1}, {0, 0})}, {});
  EXPECT_TRUE(manager.MaybeWrite());
  EXPECT_EQ(manager.writes(), 2);
  EXPECT_GT(manager.bytes_written(), 0);
  // Nothing new: WriteNow is a no-op, the file is already durable.
  EXPECT_FALSE(manager.WriteNow());
  Result<CheckpointSnapshot> loaded = LoadCheckpoint(policy.path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->records.size(), 2u);
  std::remove(policy.path.c_str());
}

TEST(CheckpointManagerTest, LargeIntervalGatesPeriodicWritesButNotWriteNow) {
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_gated.txt");
  policy.interval_ms = 1000 * 3600;
  CheckpointManager manager(policy, SmallFingerprint());
  manager.AddMask(0b01, {Node({0}, {0})}, {});
  EXPECT_TRUE(manager.MaybeWrite());  // first boundary always writes
  manager.AddMask(0b11, {Node({0, 1}, {0, 0})}, {});
  EXPECT_FALSE(manager.MaybeWrite());  // interval not elapsed
  EXPECT_TRUE(manager.WriteNow());     // spill ignores the interval
  EXPECT_EQ(manager.writes(), 2);
  std::remove(policy.path.c_str());
}

TEST(CheckpointManagerTest, SeedCarriesRestoredHistoryForward) {
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_seeded.txt");
  CheckpointManager manager(policy, SmallFingerprint());
  CheckpointSnapshot restored;
  restored.fingerprint = SmallFingerprint();
  CheckpointRecord rec;
  rec.mask = 0b01;
  rec.survivors = {Node({0}, {0})};
  restored.records.push_back(rec);
  manager.Seed(restored);
  manager.AddMask(0b11, {Node({0, 1}, {0, 0})}, {});
  ASSERT_TRUE(manager.WriteNow());
  Result<CheckpointSnapshot> loaded = LoadCheckpoint(policy.path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->records.size(), 2u);  // seeded record + new one
  std::remove(policy.path.c_str());
}

/// A finished-subset record over the attributes in `mask`, every survivor
/// level `level`, with counters derived from the mask.
CheckpointRecord MaskRecord(uint64_t mask, int32_t level) {
  CheckpointRecord record;
  record.mask = mask;
  SubsetNode node;
  for (int32_t d = 0; d < 64; ++d) {
    if ((mask >> d) & 1) {
      node.dims.push_back(d);
      node.levels.push_back(level);
    }
  }
  record.survivors = {node};
  record.counters.nodes_checked = static_cast<int64_t>(mask);
  record.counters.table_scans = static_cast<int64_t>(mask % 3);
  record.counters.candidate_nodes = static_cast<int64_t>(2 * mask + level);
  return record;
}

/// SerializeCheckpoint of `records`, which a std::map keeps in mask order.
std::string Expected(const CheckpointFingerprint& fp,
                     const std::map<uint64_t, CheckpointRecord>& records) {
  CheckpointSnapshot snap;
  snap.fingerprint = fp;
  for (const auto& [mask, record] : records) snap.records.push_back(record);
  return SerializeCheckpoint(snap);
}

TEST(CheckpointManagerTest, WrittenFileEqualsSerializeCheckpoint) {
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_equals_serialize.txt");
  CheckpointFingerprint fp;
  fp.k = 3;
  fp.max_suppressed = 4;
  fp.rows = 1000;
  fp.heights = {2, 1, 3};
  fp.variant = 2;
  fp.use_rollup = false;
  CheckpointManager manager(policy, fp);
  std::map<uint64_t, CheckpointRecord> expected;

  CheckpointSnapshot restored;
  restored.fingerprint = fp;
  for (uint64_t mask : {0b010u, 0b001u}) {
    restored.records.push_back(MaskRecord(mask, 1));
    expected[mask] = restored.records.back();
  }
  manager.Seed(restored);

  // Out of mask order, with 0b011 and the seeded 0b010 written twice.
  const std::pair<uint64_t, int32_t> adds[] = {
      {0b110, 0}, {0b011, 0}, {0b100, 2}, {0b011, 1}, {0b010, 0}, {0b111, 1}};
  for (const auto& [mask, level] : adds) {
    CheckpointRecord record = MaskRecord(mask, level);
    manager.AddMask(mask, record.survivors, record.counters);
    expected[mask] = record;
    ASSERT_TRUE(manager.MaybeWrite());
    EXPECT_EQ(ReadAll(policy.path), Expected(fp, expected)) << "mask " << mask;
  }
  EXPECT_EQ(manager.writes(), 6);
  Result<CheckpointSnapshot> loaded = LoadCheckpoint(policy.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), expected.size());
  std::remove(policy.path.c_str());
}

TEST(CheckpointManagerTest, ConcurrentWorkersLoseNoMask) {
  // Pipeline workers call AddMask + MaybeWrite with no lock of their own;
  // AddMask formats its line before taking the manager's lock.
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_concurrent.txt");
  CheckpointFingerprint fp;
  fp.k = 2;
  fp.rows = 50;
  fp.heights = {1, 1, 1, 1, 1, 1};
  CheckpointManager manager(policy, fp);
  constexpr uint64_t kMasks = 63;  // every non-empty subset of 6 attributes
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&manager, t] {
      for (uint64_t mask = 1 + t; mask <= kMasks; mask += kThreads) {
        CheckpointRecord record = MaskRecord(mask, 1);
        manager.AddMask(mask, record.survivors, record.counters);
        manager.MaybeWrite();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(manager.write_failures(), 0);
  // Writes hold the lock, so the last one already carries every mask.
  EXPECT_FALSE(manager.WriteNow());
  std::map<uint64_t, CheckpointRecord> expected;
  for (uint64_t mask = 1; mask <= kMasks; ++mask) {
    expected[mask] = MaskRecord(mask, 1);
  }
  Result<CheckpointSnapshot> loaded = LoadCheckpoint(policy.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), kMasks);
  EXPECT_EQ(ReadAll(policy.path), Expected(fp, expected));
  std::remove(policy.path.c_str());
}

#ifdef INCOGNITO_FAULTS

TEST(CheckpointManagerTest, WriteFailureIsCountedAndRetriedNextBoundary) {
  FaultInjector::Global().Reset();
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_faulted.txt");
  policy.retry = RetryPolicy::None();  // surface the fault, don't absorb it
  CheckpointManager manager(policy, SmallFingerprint());
  FaultInjector::Global().ScriptFailNthHit("checkpoint.write.open", 1);
  manager.AddMask(0b01, {Node({0}, {0})}, {});
  EXPECT_FALSE(manager.MaybeWrite());
  EXPECT_EQ(manager.write_failures(), 1);
  EXPECT_EQ(manager.writes(), 0);
  // The records stayed dirty: the next boundary lands them.
  EXPECT_TRUE(manager.WriteNow());
  EXPECT_TRUE(LoadCheckpoint(policy.path).ok());
  FaultInjector::Global().Reset();
  std::remove(policy.path.c_str());
}

TEST(CheckpointManagerTest, RetryPolicyAbsorbsTransientWriteFault) {
  FaultInjector::Global().Reset();
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_retry.txt");
  policy.retry.max_attempts = 2;
  policy.retry.backoff_ms = 0;
  CheckpointManager manager(policy, SmallFingerprint());
  FaultInjector::Global().ScriptFailNthHit("checkpoint.write.io", 1);
  manager.AddMask(0b01, {Node({0}, {0})}, {});
  EXPECT_TRUE(manager.MaybeWrite());  // first attempt faults, retry lands
  EXPECT_EQ(manager.write_failures(), 0);
  EXPECT_EQ(manager.writes(), 1);
  FaultInjector::Global().Reset();
  std::remove(policy.path.c_str());
}

#endif  // INCOGNITO_FAULTS

// ---------------------------------------------------------------------------
// Resume decisions and resume equivalence
// ---------------------------------------------------------------------------

RandomDataset SmallDataset(uint64_t seed = 7) {
  Rng rng(seed);
  return MakeRandomDataset(rng);
}

TEST(CheckpointResumeTest, RequireModeFailsOnMissingOrMismatched) {
  RandomDataset data = SmallDataset();
  AnonymizationConfig config;
  config.k = 2;
  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_require.txt");
  policy.resume = ResumeMode::kRequire;
  std::remove(policy.path.c_str());

  RunContext ctx;
  ctx.checkpoint = &policy;
  PartialResult<IncognitoResult> missing =
      RunIncognito(data.table, data.qid, config, {}, ctx);
  ASSERT_TRUE(missing.hard_error());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);

  // A checkpoint from a different configuration (k=3) is incompatible.
  {
    CheckpointPolicy writer;
    writer.path = policy.path;
    RunContext write_ctx;
    write_ctx.checkpoint = &writer;
    AnonymizationConfig other = config;
    other.k = 3;
    ASSERT_TRUE(
        RunIncognito(data.table, data.qid, other, {}, write_ctx).ok());
  }
  PartialResult<IncognitoResult> mismatched =
      RunIncognito(data.table, data.qid, config, {}, ctx);
  ASSERT_TRUE(mismatched.hard_error());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
  std::remove(policy.path.c_str());
}

TEST(CheckpointResumeTest, AutoModeFallsBackToFreshRun) {
  RandomDataset data = SmallDataset();
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> fresh =
      RunIncognito(data.table, data.qid, config);
  ASSERT_TRUE(fresh.ok());

  CheckpointPolicy policy;
  policy.path = TempPath("ckpt_auto.txt");
  policy.resume = ResumeMode::kAuto;
  std::remove(policy.path.c_str());
  RunContext ctx;
  ctx.checkpoint = &policy;
  // Missing file: auto starts fresh and succeeds.
  PartialResult<IncognitoResult> missing =
      RunIncognito(data.table, data.qid, config, {}, ctx);
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(NodeSet(missing->anonymous_nodes),
            NodeSet(fresh->anonymous_nodes));
  // Corrupt file: auto starts fresh too.
  {
    std::ofstream out(policy.path);
    out << "garbage\n";
  }
  PartialResult<IncognitoResult> corrupt =
      RunIncognito(data.table, data.qid, config, {}, ctx);
  ASSERT_TRUE(corrupt.ok()) << corrupt.status().ToString();
  EXPECT_EQ(NodeSet(corrupt->anonymous_nodes),
            NodeSet(fresh->anonymous_nodes));
  std::remove(policy.path.c_str());
}

// Truncates a full checkpoint to its first `keep` records and verifies a
// resumed run is bit-identical to the uninterrupted one — the library-level
// analogue of kill-and-resume, exercised at every possible cut point.
// Records are in ascending mask order and a subset's sub-subsets have
// smaller masks, so every prefix restores completely.
TEST(CheckpointResumeTest, ResumeFromEveryPrefixIsBitIdentical) {
  RandomDataset data = SmallDataset(13);
  AnonymizationConfig config;
  config.k = 2;
  std::string path = TempPath("ckpt_prefix.txt");

  CheckpointPolicy writer;
  writer.path = path;
  RunContext write_ctx;
  write_ctx.checkpoint = &writer;
  PartialResult<IncognitoResult> full =
      RunIncognito(data.table, data.qid, config, {}, write_ctx);
  ASSERT_TRUE(full.ok());
  Result<CheckpointSnapshot> complete = LoadCheckpoint(path);
  ASSERT_TRUE(complete.ok());

  for (size_t keep = 0; keep <= complete->records.size(); ++keep) {
    CheckpointSnapshot cut = complete.value();
    cut.records.resize(keep);
    ASSERT_TRUE(WriteCheckpoint(path, cut).ok());

    CheckpointPolicy resume;
    resume.path = path;
    resume.resume = ResumeMode::kRequire;
    RunContext resume_ctx;
    resume_ctx.checkpoint = &resume;
    PartialResult<IncognitoResult> resumed =
        RunIncognito(data.table, data.qid, config, {}, resume_ctx);
    ASSERT_TRUE(resumed.ok()) << "keep=" << keep;
    EXPECT_EQ(NodeSet(resumed->anonymous_nodes),
              NodeSet(full->anonymous_nodes))
        << "keep=" << keep;
    ASSERT_EQ(resumed->per_iteration_survivors.size(),
              full->per_iteration_survivors.size())
        << "keep=" << keep;
    for (size_t i = 0; i < full->per_iteration_survivors.size(); ++i) {
      EXPECT_EQ(NodeSet(resumed->per_iteration_survivors[i]),
                NodeSet(full->per_iteration_survivors[i]))
          << "keep=" << keep << " iteration=" << i + 1;
    }
    EXPECT_EQ(resumed->stats.nodes_checked, full->stats.nodes_checked)
        << "keep=" << keep;
    EXPECT_EQ(resumed->stats.nodes_marked, full->stats.nodes_marked)
        << "keep=" << keep;
    EXPECT_EQ(resumed->stats.table_scans, full->stats.table_scans)
        << "keep=" << keep;
    EXPECT_EQ(resumed->stats.freq_groups_built, full->stats.freq_groups_built)
        << "keep=" << keep;
    EXPECT_EQ(resumed->stats.rollups, full->stats.rollups) << "keep=" << keep;
    EXPECT_EQ(resumed->stats.candidate_nodes, full->stats.candidate_nodes)
        << "keep=" << keep;
    EXPECT_EQ(resumed->stats.restored_subsets, static_cast<int64_t>(keep));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace incognito
