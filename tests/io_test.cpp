// Unit tests for the io substrate: typed writer/reader round-trips, buffer
// boundary behaviour, varints, CRC-32 vectors, and file sinks.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <random>

#include "io/byte_sink.hpp"
#include "io/crc32.hpp"
#include "io/data_reader.hpp"
#include "io/data_writer.hpp"
#include "io/file_io.hpp"

namespace ickpt::io {
namespace {

TEST(DataWriter, ScalarRoundTrip) {
  VectorSink sink;
  {
    DataWriter w(sink);
    w.write_u8(0xAB);
    w.write_bool(true);
    w.write_bool(false);
    w.write_u16(0xBEEF);
    w.write_u32(0xDEADBEEF);
    w.write_u64(0x0123456789ABCDEFull);
    w.write_i32(-42);
    w.write_i64(-1234567890123LL);
    w.write_f32(3.5F);
    w.write_f64(-2.25);
    w.flush();
  }
  DataReader r(sink.bytes());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_u16(), 0xBEEF);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_i64(), -1234567890123LL);
  EXPECT_EQ(r.read_f32(), 3.5F);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_TRUE(r.at_end());
}

TEST(DataWriter, BigEndianLayout) {
  VectorSink sink;
  {
    DataWriter w(sink);
    w.write_u32(0x01020304);
    w.flush();
  }
  ASSERT_EQ(sink.bytes().size(), 4u);
  EXPECT_EQ(sink.bytes()[0], 0x01);
  EXPECT_EQ(sink.bytes()[1], 0x02);
  EXPECT_EQ(sink.bytes()[2], 0x03);
  EXPECT_EQ(sink.bytes()[3], 0x04);
}

TEST(DataWriter, StringRoundTrip) {
  VectorSink sink;
  {
    DataWriter w(sink);
    w.write_string("");
    w.write_string("hello");
    w.write_string(std::string(1000, 'x'));
    w.flush();
  }
  DataReader r(sink.bytes());
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), std::string(1000, 'x'));
  EXPECT_TRUE(r.at_end());
}

TEST(DataWriter, BufferBoundarySpill) {
  // Tiny buffer: every write crosses the boundary at some point.
  VectorSink sink;
  {
    DataWriter w(sink, 16);
    for (std::uint32_t i = 0; i < 1000; ++i) w.write_u32(i);
    w.flush();
  }
  DataReader r(sink.bytes());
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(r.read_u32(), i);
  EXPECT_TRUE(r.at_end());
}

TEST(DataWriter, LargeBlockBypassesBuffer) {
  VectorSink sink;
  std::vector<std::uint8_t> block(200000, 0x5A);
  {
    DataWriter w(sink, 1024);
    w.write_u8(1);
    w.write_bytes(block.data(), block.size());
    w.write_u8(2);
    w.flush();
  }
  ASSERT_EQ(sink.bytes().size(), block.size() + 2);
  EXPECT_EQ(sink.bytes().front(), 1);
  EXPECT_EQ(sink.bytes()[1], 0x5A);
  EXPECT_EQ(sink.bytes().back(), 2);
}

TEST(DataWriter, BytesWrittenCountsBuffered) {
  VectorSink sink;
  DataWriter w(sink);
  EXPECT_EQ(w.bytes_written(), 0u);
  w.write_u32(7);
  EXPECT_EQ(w.bytes_written(), 4u);  // still buffered
  w.flush();
  EXPECT_EQ(w.bytes_written(), 4u);
}

TEST(Varint, RoundTripEdgeValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  VectorSink sink;
  {
    DataWriter w(sink);
    for (std::uint64_t v : cases) w.write_varint(v);
    w.flush();
  }
  DataReader r(sink.bytes());
  for (std::uint64_t v : cases) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Varint, SignedZigzagRoundTrip) {
  const std::int64_t cases[] = {0,
                                -1,
                                1,
                                -64,
                                64,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  VectorSink sink;
  {
    DataWriter w(sink);
    for (std::int64_t v : cases) w.write_varint_i64(v);
    w.flush();
  }
  DataReader r(sink.bytes());
  for (std::int64_t v : cases) EXPECT_EQ(r.read_varint_i64(), v);
}

TEST(Varint, SmallValuesAreOneByte) {
  VectorSink sink;
  DataWriter w(sink);
  w.write_varint(127);
  w.flush();
  EXPECT_EQ(sink.size(), 1u);
}

TEST(DataReader, UnderflowThrows) {
  std::vector<std::uint8_t> three{1, 2, 3};
  DataReader r(three);
  EXPECT_THROW(r.read_u32(), CorruptionError);
}

TEST(DataReader, TruncatedVarintThrows) {
  std::vector<std::uint8_t> bytes{0x80, 0x80};  // continuation, then EOF
  DataReader r(bytes);
  EXPECT_THROW(r.read_varint(), CorruptionError);
}

TEST(DataReader, OverlongVarintThrows) {
  std::vector<std::uint8_t> bytes(11, 0x80);
  DataReader r(bytes);
  EXPECT_THROW(r.read_varint(), CorruptionError);
}

TEST(DataReader, RemainingTracksConsumption) {
  std::vector<std::uint8_t> bytes{0, 0, 0, 0, 0, 0, 0, 0};
  DataReader r(bytes);
  EXPECT_EQ(r.remaining(), 8u);
  r.read_u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.read_u32();
  EXPECT_TRUE(r.at_end());
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const char* check = "123456789";
  EXPECT_EQ(Crc32::compute(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32::compute(nullptr, 0), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::mt19937 rng(7);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  Crc32 crc;
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min<std::size_t>(rng() % 257, data.size() - off);
    crc.update(data.data() + off, n);
    off += n;
  }
  EXPECT_EQ(crc.value(), Crc32::compute(data.data(), data.size()));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(128, 0x33);
  std::uint32_t original = Crc32::compute(data.data(), data.size());
  data[64] ^= 0x01;
  EXPECT_NE(Crc32::compute(data.data(), data.size()), original);
}

// Differential tests: the dispatched Crc32 (the folding kernel on a CPU with
// pclmul) against the bytewise reference loop.
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  return data;
}

std::uint32_t reference_crc(const std::uint8_t* data, std::size_t n) {
  return detail::crc32_bytewise(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndOffset) {
  const auto data = random_bytes(1024 + 16, 11);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint8_t* p = data.data() + offset;
      ASSERT_EQ(Crc32::compute(p, len), reference_crc(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, SplitUpdatesMatchBytewise) {
  const auto data = random_bytes(4096, 13);
  const std::uint32_t expected = reference_crc(data.data(), data.size());
  auto split_crc = [&](std::size_t a, std::size_t b) {
    Crc32 crc;
    crc.update(data.data(), a);
    crc.update(data.data() + a, b - a);
    crc.update(data.data() + b, data.size() - b);
    return crc.value();
  };
  // Every first cut around the 16- and 64-byte fold thresholds (and their
  // multiples), each with a second cut on either side of a threshold.
  for (std::size_t a = 0; a <= 200; ++a) {
    for (std::size_t gap : {0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129}) {
      ASSERT_EQ(split_crc(a, a + gap), expected) << "cuts " << a << "+" << gap;
    }
  }
  std::mt19937 rng(17);
  for (int i = 0; i < 2000; ++i) {
    std::size_t a = rng() % (data.size() + 1);
    std::size_t b = a + rng() % (data.size() - a + 1);
    ASSERT_EQ(split_crc(a, b), expected) << "cuts " << a << ", " << b;
  }
}

TEST(Crc32, LargeBufferMatchesBytewise) {
  // The size of an all-dirty frame of the paper's section-5 graph.
  const auto data = random_bytes(26u << 20, 19);
  EXPECT_EQ(Crc32::compute(data.data(), data.size()),
            reference_crc(data.data(), data.size()));
}

TEST(Crc32, ClmulKernelMatchesBytewiseDirectly) {
  if (!detail::crc32_clmul_supported())
    GTEST_SKIP() << "CPU does not report pclmul and sse4.1";
  const auto data = random_bytes(8192 + 16, 23);
  std::mt19937 rng(29);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t offset = rng() % 16;
    const std::size_t len = rng() % 8193;
    const std::uint32_t state = static_cast<std::uint32_t>(rng());
    const std::uint8_t* p = data.data() + offset;
    ASSERT_EQ(detail::crc32_clmul(state, p, len),
              detail::crc32_bytewise(state, p, len))
        << "offset " << offset << " length " << len << " state " << state;
  }
}

TEST(CountingSink, CountsWithoutStoring) {
  CountingSink sink;
  DataWriter w(sink);
  for (int i = 0; i < 100; ++i) w.write_u64(static_cast<std::uint64_t>(i));
  w.flush();
  EXPECT_EQ(sink.count(), 800u);
}

TEST(FileIo, SinkRoundTrip) {
  std::string path = ::testing::TempDir() + "/ickpt_io_test.bin";
  {
    FileSink sink(path);
    DataWriter w(sink);
    w.write_u32(0xCAFEBABE);
    w.write_string("stable");
    w.flush();
  }
  auto bytes = read_file(path);
  DataReader r(bytes);
  EXPECT_EQ(r.read_u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.read_string(), "stable");
  std::remove(path.c_str());
}

TEST(FileIo, AppendMode) {
  std::string path = ::testing::TempDir() + "/ickpt_io_append.bin";
  std::remove(path.c_str());
  {
    FileSink sink(path, FileSink::Mode::kAppend);
    std::uint8_t a = 1;
    sink.write(&a, 1);
  }
  {
    FileSink sink(path, FileSink::Mode::kAppend);
    std::uint8_t b = 2;
    sink.write(&b, 1);
  }
  auto bytes = read_file(path);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[1], 2);
  std::remove(path.c_str());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/ickpt/nope.bin"), IoError);
}

}  // namespace
}  // namespace ickpt::io
