// libFuzzer harness for the checkpoint parser: any byte sequence must
// either parse into a snapshot or come back as a clean
// FailedPrecondition — never crash, leak, or trip a sanitizer. Seed the
// corpus from the checked-in fixtures (the format-2 files, plus the one
// version-1 file the parser must refuse):
//
//   mkdir -p corpus && cp tests/data/valid_checkpoint.txt \
//     tests/data/malformed_checkpoint_* tests/data/v1_checkpoint.txt corpus/
//   ./build-fuzz/tests/fuzz/checkpoint_fuzz corpus -max_total_time=30
//
// Build with -DINCOGNITO_FUZZERS=ON (see tests/fuzz/CMakeLists.txt).

#include <cstddef>
#include <cstdint>
#include <string>

#include "robust/checkpoint.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string content(reinterpret_cast<const char*>(data), size);

  incognito::Result<incognito::CheckpointSnapshot> snap =
      incognito::ParseCheckpoint(content);
  if (snap.ok()) {
    // An accepted snapshot must round-trip: re-serializing and re-parsing
    // it (fresh CRC included) has to succeed and be byte-stable.
    std::string again = incognito::SerializeCheckpoint(snap.value());
    incognito::Result<incognito::CheckpointSnapshot> reparsed =
        incognito::ParseCheckpoint(again);
    if (!reparsed.ok() ||
        incognito::SerializeCheckpoint(reparsed.value()) != again) {
      __builtin_trap();
    }
  }
  return 0;
}
