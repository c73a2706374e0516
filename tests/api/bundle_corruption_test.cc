/// Corruption / truncation fuzz harness for engine bundles: every
/// single-byte flip and every truncation length of a saved bundle must
/// fail Engine::Open with InvalidArgument — never a crash, hang, huge
/// allocation, or silently wrong results. The bundle's trailing whole-file
/// checksum makes this exact (any flipped byte participates in the digest
/// or IS the digest), with the index stream's own checksum and the
/// bounds-checked section parsing as defense in depth behind it. Runs in
/// the ASan/UBSan CI job, where an out-of-bounds read inside the parse
/// would abort the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/genie.h"
#include "common/rng.h"
#include "data/documents.h"
#include "data/points.h"
#include "data/sequences.h"
#include "lsh/murmur3.h"
#include "test_util.h"

namespace genie {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
}

/// A tiny documents engine: cheap to save and to (fail to) reopen tens of
/// thousands of times.
struct DocumentsFixture {
  std::vector<std::vector<uint32_t>> corpus;

  DocumentsFixture() {
    data::DocumentDatasetOptions options;
    options.num_documents = 25;
    options.vocabulary = 60;
    options.seed = 131;
    corpus = data::MakeDocuments(options);
  }

  EngineConfig Config() const {
    return EngineConfig().Documents(&corpus).K(3).Device(
        test::SharedTestDevice(2));
  }
};

/// A tiny sequences engine, exercising the string-vocabulary meta parsing.
struct SequencesFixture {
  std::vector<std::string> sequences;

  SequencesFixture() {
    data::SequenceDatasetOptions options;
    options.num_sequences = 20;
    options.min_length = 8;
    options.max_length = 12;
    options.seed = 132;
    sequences = data::MakeSequences(options);
  }

  EngineConfig Config() const {
    return EngineConfig().Sequences(&sequences).K(2).CandidateK(8).Device(
        test::SharedTestDevice(2));
  }
};

/// A tiny points engine, whose mutation section carries appended rows.
struct PointsFixture {
  data::PointMatrix points;

  PointsFixture() {
    data::ClusteredPointsOptions options;
    options.num_points = 30;
    options.dim = 4;
    options.num_clusters = 3;
    options.seed = 133;
    points = data::MakeClusteredPoints(options).points;
  }

  EngineConfig Config() const {
    return EngineConfig().Points(&points).K(2).HashFunctions(8).Device(
        test::SharedTestDevice(2));
  }
};

/// A tiny sets engine, whose mutation section carries appended sets.
struct SetsFixture {
  std::vector<std::vector<uint32_t>> sets;

  SetsFixture() {
    Rng rng(134);
    sets.resize(30);
    for (auto& set : sets) {
      for (int i = 0; i < 6; ++i) {
        set.push_back(static_cast<uint32_t>(rng.UniformU64(500)));
      }
    }
  }

  EngineConfig Config() const {
    return EngineConfig().Sets(&sets).K(2).HashFunctions(8).Device(
        test::SharedTestDevice(2));
  }
};

template <typename Fixture>
std::string SaveTinyBundle(const Fixture& fixture, bool compressed,
                           const std::string& path) {
  auto engine = Engine::Create(fixture.Config());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  BundleSaveOptions options;
  options.compress_postings = compressed;
  EXPECT_TRUE((*engine)->Save(path, options).ok());
  return ReadFile(path);
}

/// Flips every byte of the bundle (two patterns per byte: low bit and high
/// bit) and requires Open to fail with InvalidArgument each time.
template <typename Fixture>
void SweepByteFlips(const Fixture& fixture, bool compressed,
                    const std::string& name) {
  const std::string path = TempPath("genie_corrupt_" + name + ".gnb");
  const std::string pristine = SaveTinyBundle(fixture, compressed, path);
  ASSERT_FALSE(pristine.empty());

  for (size_t i = 0; i < pristine.size(); ++i) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string corrupted = pristine;
      corrupted[i] = static_cast<char>(corrupted[i] ^ mask);
      WriteFile(path, corrupted);
      auto opened = Engine::Open(path, fixture.Config());
      ASSERT_FALSE(opened.ok())
          << name << ": flip of byte " << i << " (mask "
          << static_cast<int>(mask) << ") was accepted";
      EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
          << name << ": flip of byte " << i << " -> "
          << opened.status().ToString();
    }
  }
  std::remove(path.c_str());
}

/// Truncates the bundle at every length in [0, size) and requires Open to
/// fail with InvalidArgument each time.
template <typename Fixture>
void SweepTruncations(const Fixture& fixture, bool compressed,
                      const std::string& name) {
  const std::string path = TempPath("genie_trunc_" + name + ".gnb");
  const std::string pristine = SaveTinyBundle(fixture, compressed, path);
  ASSERT_FALSE(pristine.empty());

  for (size_t cut = 0; cut < pristine.size(); ++cut) {
    WriteFile(path, pristine.substr(0, cut));
    auto opened = Engine::Open(path, fixture.Config());
    ASSERT_FALSE(opened.ok())
        << name << ": truncation at " << cut << " was accepted";
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
        << name << ": truncation at " << cut << " -> "
        << opened.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(BundleCorruptionTest, EveryByteFlipRejectedDocumentsRaw) {
  SweepByteFlips(DocumentsFixture(), /*compressed=*/false, "docs_raw");
}

TEST(BundleCorruptionTest, EveryByteFlipRejectedDocumentsCompressed) {
  SweepByteFlips(DocumentsFixture(), /*compressed=*/true, "docs_packed");
}

TEST(BundleCorruptionTest, EveryByteFlipRejectedSequencesCompressed) {
  SweepByteFlips(SequencesFixture(), /*compressed=*/true, "seq_packed");
}

TEST(BundleCorruptionTest, EveryTruncationRejectedDocumentsRaw) {
  SweepTruncations(DocumentsFixture(), /*compressed=*/false, "docs_raw");
}

TEST(BundleCorruptionTest, EveryTruncationRejectedDocumentsCompressed) {
  SweepTruncations(DocumentsFixture(), /*compressed=*/true, "docs_packed");
}

TEST(BundleCorruptionTest, EveryTruncationRejectedSequencesCompressed) {
  SweepTruncations(SequencesFixture(), /*compressed=*/true, "seq_packed");
}

/// Appended trailing garbage must be rejected too (the index section is
/// length-checked against the file end).
/// The bundle's trailing checksum over `bytes` (everything before it): a
/// murmur3 chain over 64 KiB blocks, finished with the byte count. Not a
/// MAC — anyone who edits a bundle can recompute it.
uint64_t BundleChecksum(const std::string& bytes) {
  constexpr size_t kBlock = 64 * 1024;
  uint64_t digest = 0x474E4942444C3156ULL;
  for (size_t pos = 0; pos < bytes.size(); pos += kBlock) {
    digest = lsh::Murmur3_64(bytes.data() + pos,
                             std::min(kBlock, bytes.size() - pos), digest);
  }
  const uint64_t total = bytes.size();
  return lsh::Murmur3_64(&total, sizeof(total), digest);
}

/// Start and length of a saved bundle's mutation section:
/// magic | u32 version | u32 modality | u64 meta_bytes | meta
/// | u64 mutation_bytes | mutation ...
size_t MutationSection(const std::string& bytes, uint64_t* length) {
  uint64_t meta_bytes = 0;
  std::memcpy(&meta_bytes, bytes.data() + 16, sizeof(meta_bytes));
  const size_t at = 24 + meta_bytes;
  std::memcpy(length, bytes.data() + at, sizeof(*length));
  return at + sizeof(*length);
}

/// Overwrites the u32 at `at` (which must hold `expected`) with
/// 0xFFFFFFFF and re-seals the checksum, the way a forger would.
void ForgeU32(std::string* bytes, size_t at, uint32_t expected) {
  uint32_t value = 0;
  std::memcpy(&value, bytes->data() + at, sizeof(value));
  ASSERT_EQ(value, expected);
  const uint32_t forged = 0xFFFFFFFFu;
  std::memcpy(bytes->data() + at, &forged, sizeof(forged));
  const size_t body = bytes->size() - sizeof(uint64_t);
  const uint64_t checksum = BundleChecksum(bytes->substr(0, body));
  std::memcpy(bytes->data() + body, &checksum, sizeof(checksum));
}

/// Saves `engine`, lets `forge` edit the bundle, and requires Open to
/// reject it with InvalidArgument (no allocation sized by a forged count,
/// no engine that aborts later).
template <typename Forge>
void ExpectForgeryRejected(Engine* engine, const EngineConfig& open_config,
                           const std::string& name, const Forge& forge) {
  const std::string path = TempPath("genie_forged_" + name + ".gnb");
  ASSERT_TRUE(engine->Save(path).ok());
  std::string bytes = ReadFile(path);
  uint64_t length = 0;
  const size_t section = MutationSection(bytes, &length);
  forge(&bytes, section, length);
  WriteFile(path, bytes);
  auto opened = Engine::Open(path, open_config);
  std::remove(path.c_str());
  ASSERT_FALSE(opened.ok()) << name << ": forged bundle was accepted";
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << name << ": " << opened.status().ToString();
}

/// An engine whose only mutation is a removal saves a mutation section
/// that starts with a delta segment count of 0 and, for modalities with
/// side data, ends in a side-data count of 0.
template <typename Fixture>
void ExpectForgedCountRejected(const Fixture& fixture, const std::string& name,
                               bool forge_segments) {
  auto engine = Engine::Create(fixture.Config());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->Remove(std::vector<ObjectId>{0}).ok());
  ExpectForgeryRejected(
      engine->get(), fixture.Config(), name,
      [&](std::string* bytes, size_t section, uint64_t length) {
        ASSERT_GE(length, sizeof(uint32_t));
        ForgeU32(bytes, forge_segments ? section
                                       : section + length - sizeof(uint32_t),
                 0);
      });
}

TEST(BundleCorruptionTest, ForgedSideDataCountRejectedPoints) {
  ExpectForgedCountRejected(PointsFixture(), "points", false);
}

TEST(BundleCorruptionTest, ForgedSideDataCountRejectedSets) {
  ExpectForgedCountRejected(SetsFixture(), "sets", false);
}

TEST(BundleCorruptionTest, ForgedSideDataCountRejectedSequences) {
  ExpectForgedCountRejected(SequencesFixture(), "sequences", false);
}

TEST(BundleCorruptionTest, ForgedDeltaSegmentCountRejected) {
  ExpectForgedCountRejected(DocumentsFixture(), "segments", true);
}

/// A delta keyword of 0xFFFFFFFF would size the compacted vocabulary as
/// 0xFFFFFFFF + 1, which wraps to 0 and aborts the next compaction.
TEST(BundleCorruptionTest, ForgedDeltaKeywordRejected) {
  auto workload = test::MakeRandomWorkload(20, 10, 3, 1, 2, 135);
  const EngineConfig open_config =
      EngineConfig().K(2).Device(test::SharedTestDevice(2));
  auto engine = Engine::Create(EngineConfig(open_config).Index(&workload.index));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<std::vector<Keyword>> objects{{5}};
  ASSERT_TRUE((*engine)->Insert(InsertRequest::Objects(objects)).ok());
  // One sealed segment: u32 count | u64 n + u32 id | u64 n + 2 x u32
  // offsets | u64 n + u32 keyword.
  ExpectForgeryRejected(engine->get(), open_config, "keyword",
                        [](std::string* bytes, size_t section, uint64_t) {
                          ForgeU32(bytes, section + 4 + 12 + 16 + 8, 5);
                        });
}

TEST(BundleCorruptionTest, TrailingGarbageRejected) {
  DocumentsFixture fixture;
  const std::string path = TempPath("genie_corrupt_trailing.gnb");
  const std::string pristine =
      SaveTinyBundle(fixture, /*compressed=*/false, path);
  WriteFile(path, pristine + std::string(16, '\0'));
  auto opened = Engine::Open(path, fixture.Config());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genie
