// atlas::ckpt container contract (ckpt/checkpoint.h):
//
//   1. every typed primitive round-trips exactly;
//   2. a checkpoint that is corrupted, truncated, version-bumped, or
//      layout-shifted fails loudly at open/read time — never with a
//      wrong-but-plausible restore;
//   3. WriteCheckpointFile commits atomically: a failed save leaves the
//      previous checkpoint untouched;
//   4. sections framed by stream-less Writers, on any threads, and appended
//      in order produce the bytes one Writer writing them inline does.
#include "ckpt/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/par.h"

namespace atlas::ckpt {
namespace {

std::string SampleCheckpoint() {
  std::ostringstream out;
  Writer w(out);
  w.BeginSection("alpha", 3);
  w.WriteU8(7);
  w.WriteU16(65535);
  w.WriteU32(123456789);
  w.WriteU64(0xdeadbeefcafebabeULL);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("hello ckpt");
  const unsigned char blob[] = {1, 2, 3, 4, 5};
  w.WriteBytes(blob, sizeof(blob));
  w.WriteVecU64({10, 20, 30});
  w.WriteVecDouble({0.5, -1.5});
  w.EndSection();
  w.BeginSection("beta", 1);
  w.WriteU64(99);
  w.EndSection();
  w.Finish();
  return out.str();
}

TEST(CkptRoundTripTest, EveryPrimitiveSurvives) {
  std::istringstream in(SampleCheckpoint());
  Reader r(in);
  EXPECT_EQ(r.section_count(), 2u);
  EXPECT_TRUE(r.HasSection("alpha"));
  EXPECT_TRUE(r.HasSection("beta"));
  EXPECT_FALSE(r.HasSection("gamma"));

  EXPECT_EQ(r.BeginSection("alpha"), 3u);
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU16(), 65535);
  EXPECT_EQ(r.ReadU32(), 123456789u);
  EXPECT_EQ(r.ReadU64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadDouble(), 3.25);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadString(), "hello ckpt");
  EXPECT_EQ(r.ReadBytes(), (std::vector<unsigned char>{1, 2, 3, 4, 5}));
  EXPECT_EQ(r.ReadVecU64(), (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(r.ReadVecDouble(), (std::vector<double>{0.5, -1.5}));
  r.EndSection();

  r.BeginSection("beta", 1);
  EXPECT_EQ(r.ReadU64(), 99u);
  r.EndSection();
}

TEST(CkptRoundTripTest, EmptyCheckpointIsValid) {
  std::ostringstream out;
  Writer w(out);
  w.Finish();
  std::istringstream in(out.str());
  Reader r(in);
  EXPECT_EQ(r.section_count(), 0u);
}

TEST(CkptFailClearTest, MissingSectionThrows) {
  std::istringstream in(SampleCheckpoint());
  Reader r(in);
  EXPECT_THROW(r.BeginSection("gamma"), std::runtime_error);
}

TEST(CkptFailClearTest, SectionVersionMismatchThrows) {
  std::istringstream in(SampleCheckpoint());
  Reader r(in);
  EXPECT_THROW(r.BeginSection("beta", 2), std::runtime_error);
}

TEST(CkptFailClearTest, ExpectVersionMismatchNamesTheObject) {
  std::ostringstream out;
  Writer w(out);
  w.BeginSection("s", 1);
  w.WriteVersion(7);
  w.EndSection();
  w.Finish();
  std::istringstream in(out.str());
  Reader r(in);
  r.BeginSection("s", 1);
  try {
    r.ExpectVersion("widget accumulator", 8);
    FAIL() << "version mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("widget accumulator"),
              std::string::npos)
        << e.what();
  }
}

TEST(CkptFailClearTest, CorruptedPayloadByteFailsAtOpen) {
  std::string data = SampleCheckpoint();
  // Flip one payload byte near the middle; the section CRC must catch it
  // during the Reader's up-front scan.
  data[data.size() / 2] ^= 0x01;
  std::istringstream in(data);
  EXPECT_THROW(Reader r(in), std::runtime_error);
}

TEST(CkptFailClearTest, TruncationFailsAtOpen) {
  const std::string data = SampleCheckpoint();
  for (const std::size_t keep :
       {data.size() - 1, data.size() / 2, std::size_t{6}, std::size_t{2}}) {
    std::istringstream in(data.substr(0, keep));
    EXPECT_THROW(Reader r(in), std::runtime_error) << "keep=" << keep;
  }
}

TEST(CkptFailClearTest, BadMagicThrows) {
  std::istringstream in("NOTACKPT");
  EXPECT_THROW(Reader r(in), std::runtime_error);
}

TEST(CkptFailClearTest, BumpedFormatVersionThrows) {
  std::string data = SampleCheckpoint();
  data[4] = static_cast<char>(kFormatVersion + 1);  // u32 LE low byte
  std::istringstream in(data);
  try {
    Reader r(in);
    FAIL() << "bumped format version not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format version"), std::string::npos)
        << e.what();
  }
}

TEST(CkptFailClearTest, DuplicateSectionRejected) {
  std::ostringstream out;
  Writer w(out);
  w.BeginSection("dup", 1);
  w.WriteU8(1);
  w.EndSection();
  w.BeginSection("dup", 1);
  w.WriteU8(2);
  w.EndSection();
  w.Finish();
  std::istringstream in(out.str());
  EXPECT_THROW(Reader r(in), std::runtime_error);
}

TEST(CkptFailClearTest, UnreadBytesAtEndSectionThrow) {
  // A restore that consumes less than the blob holds is reading a different
  // layout than was saved; EndSection must refuse to paper over it.
  std::istringstream in(SampleCheckpoint());
  Reader r(in);
  r.BeginSection("alpha");
  r.ReadU8();
  EXPECT_THROW(r.EndSection(), std::runtime_error);
}

TEST(CkptFailClearTest, ReadPastSectionEndThrows) {
  std::istringstream in(SampleCheckpoint());
  Reader r(in);
  r.BeginSection("beta");
  r.ReadU64();
  EXPECT_THROW(r.ReadU64(), std::runtime_error);
}

TEST(CkptFailClearTest, CorruptVectorLengthFailsBeforeAllocating) {
  std::ostringstream out;
  Writer w(out);
  w.BeginSection("v", 1);
  w.WriteU64(~0ULL);  // an absurd element count with no elements behind it
  w.EndSection();
  w.Finish();
  std::istringstream in(out.str());
  Reader r(in);
  r.BeginSection("v");
  EXPECT_THROW(r.ReadVecU64(), std::runtime_error);
}

TEST(CkptFailClearTest, CraftedCountsThatWrapFailAsCkptErrors) {
  // count * 8 wraps to a small number for these, so a multiplying bound
  // check passes them on to an allocation that throws std::length_error.
  for (const std::uint64_t count : {(1ULL << 61) + 1, (1ULL << 63) + 1}) {
    for (const bool doubles : {false, true}) {
      std::ostringstream out;
      Writer w(out);
      w.BeginSection("v", 1);
      w.WriteU64(count);
      w.WriteU64(0);  // one element's worth of bytes behind the count
      w.EndSection();
      w.Finish();
      std::istringstream in(out.str());
      Reader r(in);
      r.BeginSection("v");
      try {
        if (doubles) {
          r.ReadVecDouble();
        } else {
          r.ReadVecU64();
        }
        FAIL() << "count " << count << " accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind("ckpt: ", 0), 0u) << e.what();
      }
    }
  }
}

TEST(CkptFailClearTest, ReadCountBoundsByItemSize) {
  std::ostringstream out;
  Writer w(out);
  w.BeginSection("c", 1);
  w.WriteU64(2);
  w.WriteU64(0);
  w.WriteU64(0);
  w.EndSection();
  w.Finish();
  {
    std::istringstream in(out.str());
    Reader r(in);
    r.BeginSection("c");
    EXPECT_EQ(r.ReadCount(8), 2u);  // 16 bytes left: two 8-byte items fit
  }
  std::istringstream in(out.str());
  Reader r(in);
  r.BeginSection("c");
  EXPECT_THROW(r.ReadCount(9), std::runtime_error);  // two 9-byte items do not
}

TEST(CkptFailClearTest, WriterMisuseThrows) {
  std::ostringstream out;
  Writer w(out);
  EXPECT_THROW(w.WriteU8(1), std::runtime_error);  // no open section
  w.BeginSection("s", 1);
  EXPECT_THROW(w.BeginSection("t", 1), std::runtime_error);  // nested
  EXPECT_THROW(w.Finish(), std::runtime_error);  // inside open section
  w.EndSection();
  EXPECT_THROW(w.EndSection(), std::runtime_error);  // not open
  w.Finish();
  EXPECT_THROW(w.BeginSection("u", 1), std::runtime_error);  // after Finish
}

// One section of the parallel-encode tests: its size and bytes depend only
// on `i`, and every fourth one is large enough for a mapped buffer.
void FillSection(Writer& w, std::size_t i) {
  w.BeginSection("part." + std::to_string(i), static_cast<std::uint32_t>(i));
  const std::size_t n = i % 4 == 3 ? 40000 + i : 10 * i;
  w.WriteU64(n);
  for (std::size_t k = 0; k < n; ++k) {
    w.WriteU32(static_cast<std::uint32_t>(k * 2654435761u + i));
    w.WriteDouble(static_cast<double>(k) / static_cast<double>(i + 1));
  }
  w.WriteString("end of part " + std::to_string(i));
  w.EndSection();
}

TEST(CkptAppendTest, SectionsEncodedOnWorkersMatchInlineBytes) {
  constexpr std::size_t kSections = 24;
  std::ostringstream inline_out;
  {
    Writer w(inline_out);
    w.BeginSection("head", 1);
    w.WriteU64(kSections);
    w.EndSection();
    for (std::size_t i = 0; i < kSections; ++i) FillSection(w, i);
    w.Finish();
  }
  for (const int threads : {1, 2, 8}) {
    std::vector<Writer> parts(kSections);
    util::ParallelFor(
        kSections, [&](std::size_t i) { FillSection(parts[i], i); }, threads);
    std::ostringstream out;
    Writer w(out);
    w.BeginSection("head", 1);
    w.WriteU64(kSections);
    w.EndSection();
    for (const Writer& part : parts) w.Append(part);
    w.Finish();
    EXPECT_EQ(out.str(), inline_out.str()) << "threads=" << threads;
  }
  std::istringstream in(inline_out.str());
  Reader r(in);
  EXPECT_EQ(r.section_count(), kSections + 1);
}

TEST(CkptAppendTest, AppendMisuseThrows) {
  Writer part;
  part.BeginSection("p", 1);
  part.WriteU8(1);
  std::ostringstream out;
  Writer w(out);
  EXPECT_THROW(w.Append(part), std::runtime_error);  // its section is open
  part.EndSection();
  w.BeginSection("s", 1);
  EXPECT_THROW(w.Append(part), std::runtime_error);  // this section is open
  w.EndSection();
  std::ostringstream other;
  Writer stream(other);
  EXPECT_THROW(w.Append(stream), std::runtime_error);  // not stream-less
  Writer gather;
  EXPECT_THROW(gather.Append(part), std::runtime_error);  // no stream
  w.Append(part);
  w.Finish();
  EXPECT_THROW(w.Append(part), std::runtime_error);  // after Finish
  EXPECT_THROW(part.Finish(), std::runtime_error);   // no stream to finish
  std::istringstream in(out.str());
  Reader r(in);
  EXPECT_EQ(r.section_count(), 2u);
}

TEST(CkptFileTest, AtomicCommitPreservesPreviousCheckpointOnFailure) {
  const std::string path = ::testing::TempDir() + "/atlas_ckpt_atomic.ckpt";
  WriteCheckpointFile(path, [](Writer& w) {
    w.BeginSection("state", 1);
    w.WriteU64(1);
    w.EndSection();
  });
  // A save that dies mid-fill must leave the previous file intact and no
  // temp file behind.
  EXPECT_THROW(WriteCheckpointFile(path,
                                   [](Writer& w) {
                                     w.BeginSection("state", 1);
                                     w.WriteU64(2);
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "temp file left behind";
  }
  Reader r = ReadCheckpointFile(path);
  r.BeginSection("state", 1);
  EXPECT_EQ(r.ReadU64(), 1u);
  r.EndSection();
  std::remove(path.c_str());
}

TEST(CkptFileTest, MissingFileThrows) {
  EXPECT_THROW(ReadCheckpointFile(::testing::TempDir() + "/atlas_ckpt_nope"),
               std::runtime_error);
}

}  // namespace
}  // namespace atlas::ckpt
