#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/numeric.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace uctr {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

// ---------------------------------------------------------------- Result

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  UCTR_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_TRUE(Quarter(8).ok());
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

// ------------------------------------------------------------ StringUtil

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpties) {
  auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_EQ(Capitalize("hello"), "Hello");
}

TEST(StringUtilTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("filter_eq", "filter_"));
  EXPECT_TRUE(EndsWith("filter_eq", "_eq"));
  EXPECT_TRUE(EqualsIgnoreCase("Total", "tOtAl"));
  EXPECT_TRUE(ContainsIgnoreCase("Gross Profit Margin", "profit"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abcd"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(StringUtilTest, WordTokensKeepsNumbersTogether) {
  auto toks = WordTokens("Revenue was $1,234.5 (up 12.5%) in 2019.");
  // "$1,234.5" and "12.5%" should each survive as single tokens.
  std::set<std::string> set(toks.begin(), toks.end());
  EXPECT_TRUE(set.count("$1,234.5"));
  EXPECT_TRUE(set.count("12.5%"));
  EXPECT_TRUE(set.count("revenue"));
  EXPECT_TRUE(set.count("2019"));
}

// --------------------------------------------------------------- Numeric

TEST(NumericTest, ParsesPlainNumbers) {
  EXPECT_DOUBLE_EQ(*ParseNumber("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("1e3"), 1000.0);
}

TEST(NumericTest, ParsesMessyFinancialText) {
  EXPECT_DOUBLE_EQ(*ParseNumber("$1,234.50"), 1234.50);
  EXPECT_DOUBLE_EQ(*ParseNumber("US$3"), 3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("12.5%"), 12.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("(1,234)"), -1234.0);
}

// Regression test: the sign used to be stripped by strtod AFTER the
// currency/percent strips, so signed currency and percent forms were
// rejected outright.
TEST(NumericTest, ParsesSignedCurrencyAndPercent) {
  EXPECT_DOUBLE_EQ(*ParseNumber("-$5"), -5.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-€1,200"), -1200.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("+3%"), 3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("- $7.25"), -7.25);
  EXPECT_DOUBLE_EQ(*ParseNumber("+US$40"), 40.0);
  // The sign composes with the accounting parentheses exactly as the
  // pre-fix strtod path did: "(-5)" is (-1) * (-5) = +5.
  EXPECT_DOUBLE_EQ(*ParseNumber("(-5)"), 5.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("($1,000)"), -1000.0);
}

TEST(NumericTest, RejectsNonNumbers) {
  EXPECT_FALSE(ParseNumber("hello").has_value());
  EXPECT_FALSE(ParseNumber("").has_value());
  EXPECT_FALSE(ParseNumber("12abc").has_value());
  EXPECT_FALSE(ParseNumber(",12").has_value());  // comma without digit before
  EXPECT_FALSE(ParseNumber("--5").has_value());  // at most one explicit sign
  EXPECT_FALSE(ParseNumber("+-5").has_value());
  EXPECT_FALSE(ParseNumber("-").has_value());
  EXPECT_FALSE(ParseNumber("-$").has_value());
}

// Regression test: ParseNumber used to hand its input to strtod whole, so
// the non-decimal forms strtod also reads became numbers: a cell "Nan"
// (a given name) became NaN and "Inf" became +infinity.
TEST(NumericTest, RejectsNonDecimalStrtodForms) {
  for (const char* text :
       {"Nan", "nan", "NAN", "-nan", "nan(1)", "Inf", "inf", "-inf", "+Inf",
        "infinity", "-Infinity", "$inf", "(inf)", "nan%", "0x10", "0X1F",
        "-0x10", "0x1p3", "$0x10", "1e", "1e+", "e5", ".", "-.", ".e3",
        "1.2.3", "1e999", "-1e999", "5 5", "$-+5", "$--5"}) {
    EXPECT_FALSE(ParseNumber(text).has_value()) << text;
  }
}

// The decimal forms strtod read before keep their values: optional sign,
// missing integer or fraction digits, exponents, and a sign after the
// currency prefix.
TEST(NumericTest, KeepsDecimalForms) {
  EXPECT_DOUBLE_EQ(*ParseNumber(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("5."), 5.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-.5"), -0.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("1E3"), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("2.5e-3"), 0.0025);
  EXPECT_DOUBLE_EQ(*ParseNumber("+1e+2"), 100.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("1,234e2"), 123400.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("$-5"), -5.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("USD +3"), 3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("007"), 7.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("1e308"), 1e308);
  EXPECT_TRUE(std::signbit(*ParseNumber("-0")));
}

TEST(NumericTest, FormatNumberCompact) {
  EXPECT_EQ(FormatNumber(42.0), "42");
  EXPECT_EQ(FormatNumber(3.14159, 2), "3.14");
  EXPECT_EQ(FormatNumber(-1200.5), "-1200.5");
}

TEST(NumericTest, NearlyEqual) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-9));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1));
  EXPECT_TRUE(NearlyEqual(1e12, 1e12 + 1.0));  // relative tolerance
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.03);
}

TEST(RngTest, SampleIndicesWithoutReplacement) {
  Rng rng(5);
  auto idx = rng.SampleIndices(10, 4);
  EXPECT_EQ(idx.size(), 4u);
  std::set<size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 4u);
  for (size_t i : idx) EXPECT_LT(i, 10u);
}

TEST(RngTest, SampleIndicesCappedAtN) {
  Rng rng(5);
  auto idx = rng.SampleIndices(3, 10);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(13);
  std::map<size_t, int> counts;
  for (int i = 0; i < 10000; ++i) {
    counts[rng.WeightedIndex({1.0, 0.0, 3.0})]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, GaussianRoughlyStandard) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}


// ------------------------------------------------------------------ JSON

TEST(JsonTest, ParsesScalarsObjectsAndArrays) {
  json::Value v =
      json::Parse(R"({"name":"t1","n":3.5,"rows":[1,2],"meta":{"k":"v"}})")
          .ValueOrDie();
  ASSERT_TRUE(v.is_object());
  const json::Value::Object& obj = v.as_object();
  EXPECT_EQ(json::GetStringOr(obj, "name", ""), "t1");
  EXPECT_DOUBLE_EQ(json::GetNumberOr(obj, "n", 0.0), 3.5);
  EXPECT_EQ(json::GetNumberOr(obj, "missing", -1.0), -1.0);
  auto rows = obj.find("rows");
  ASSERT_NE(rows, obj.end());
  ASSERT_TRUE(rows->second.is_array());
  EXPECT_EQ(rows->second.as_array().size(), 2u);
}

TEST(JsonTest, ParsesEscapesAndUnicode) {
  json::Value v =
      json::Parse(R"({"s":"a\"b\n\u0041"})").ValueOrDie();
  EXPECT_EQ(json::GetStringOr(v.as_object(), "s", ""), "a\"b\nA");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Parse("[1,2,]").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  // The wire format is a deliberate subset: strings, numbers, objects,
  // arrays. Bare literals are rejected rather than mis-parsed.
  EXPECT_FALSE(json::Parse("{\"a\":true}").ok());
  EXPECT_FALSE(json::Parse("null").ok());
  // Nesting beyond the depth limit is an error, not a stack overflow.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(JsonTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json::Quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json::Quote("line\nbreak"), "\"line\\nbreak\"");
  // Round trip: Quote then Parse restores the original string.
  json::Value v = json::Parse("{" + json::Quote("k") + ":" +
                              json::Quote("v\t\x01z") + "}")
                      .ValueOrDie();
  EXPECT_EQ(json::GetStringOr(v.as_object(), "k", ""), "v\t\x01z");
}

// ------------------------------------------------------------ Hash / bytes

TEST(HashTest, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a64("", kFnv1aOffsetBasis), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", kFnv1aOffsetBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar", kFnv1aOffsetBasis), 0x85944171f73967e8ull);
}

TEST(HashTest, Fnv1a64SeedChainingHashesTheConcatenation) {
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo", kContentHashSeed)),
            Fnv1a64("foobar", kContentHashSeed));
  EXPECT_NE(Fnv1a64("foobar", kContentHashSeed),
            Fnv1a64("foobar", kFnv1aOffsetBasis));
}

TEST(HashTest, Mix64IsTheSplitmix64Finalizer) {
  // First output of splitmix64 seeded with 0.
  EXPECT_EQ(Mix64(0x9E3779B97F4A7C15ull), 0xe220a8397b1dcdafull);
  EXPECT_EQ(Mix64(0), 0u);
}

TEST(BytesTest, WriterAndReaderRoundTripLittleEndian) {
  std::string out;
  ByteWriter w(&out);
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0102030405060708ull);
  w.I64(-2);
  w.F64(2.5);
  w.Str("xyz");
  EXPECT_EQ(out.substr(0, 7), std::string("\xab\x34\x12\xef\xbe\xad\xde"));

  ByteReader r(out);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string str;
  ASSERT_TRUE(r.U8(&u8) && r.U16(&u16) && r.U32(&u32) && r.U64(&u64) &&
              r.I64(&i64) && r.F64(&f64) && r.Str(&str));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(i64, -2);
  EXPECT_EQ(f64, 2.5);
  EXPECT_EQ(str, "xyz");
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.U8(&u8));
}

TEST(BytesTest, FailedReadsLeaveThePositionUnchanged) {
  std::string out;
  ByteWriter(&out).Str("abcdef");
  ByteReader r(std::string_view(out).substr(0, out.size() - 1));
  std::string str;
  EXPECT_FALSE(r.Str(&str));
  EXPECT_EQ(r.remaining(), out.size() - 1);
  std::string_view view;
  EXPECT_FALSE(r.Take(out.size(), &view));
  uint32_t len = 0;
  EXPECT_TRUE(r.U32(&len));
  EXPECT_EQ(len, 6u);
}

TEST(BytesTest, ReadFrameReportsWhichCheckFailed) {
  constexpr char kMagic[4] = {'T', 'E', 'S', 'T'};
  const std::string payload = "payload";
  std::string frame;
  AppendFrameHeader(&frame, kMagic, 3, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  frame += payload;

  const std::string log = frame + "next record";
  Frame ok = ReadFrame(log, kMagic, 3);
  EXPECT_EQ(ok.error, FrameError::kNone);
  EXPECT_EQ(ok.payload, payload);

  const std::string short_header = frame.substr(0, kFrameHeaderBytes - 1);
  EXPECT_EQ(ReadFrame(short_header, kMagic, 3).error, FrameError::kShort);
  EXPECT_EQ(ReadFrame(frame, kMagic, 3, frame.size() + 1).error,
            FrameError::kShort);
  std::string bad = frame;
  bad[0] = 'X';
  EXPECT_EQ(ReadFrame(bad, kMagic, 3).error, FrameError::kMagic);
  Frame skew = ReadFrame(frame, kMagic, 4);
  EXPECT_EQ(skew.error, FrameError::kVersion);
  EXPECT_EQ(skew.version, 3u);
  EXPECT_EQ(ReadFrame(frame.substr(0, frame.size() - 1), kMagic, 3).error,
            FrameError::kSize);
  EXPECT_EQ(ReadFrame(frame, kMagic, 3, kFrameHeaderBytes, 6).error,
            FrameError::kSize);
  bad = frame;
  bad.back() ^= 1;
  Frame rot = ReadFrame(bad, kMagic, 3);
  EXPECT_EQ(rot.error, FrameError::kChecksum);
  EXPECT_EQ(rot.payload.size(), payload.size());
}

// ---------------------------------------------------------- WriteFileAtomic

namespace fs = std::filesystem;

/// A fresh directory under the system temp root, removed on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "uctr_common_XXXXXX").string();
    EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

TEST(WriteFileAtomicTest, RoundTrips) {
  ScratchDir dir;
  const std::string path = dir.Sub("state.txt");
  const std::string bytes("line\n\0binary\xff", 13);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  EXPECT_EQ(ReadFileText(path).ValueOrDie(), bytes);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(WriteFileAtomicTest, OverwritesExistingContent) {
  ScratchDir dir;
  const std::string path = dir.Sub("state.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "a much longer first version").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  EXPECT_EQ(ReadFileText(path).ValueOrDie(), "v2");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(WriteFileAtomicTest, FailedWriteUnderMissingDirectoryLeavesNoTmp) {
  ScratchDir dir;
  const std::string path = dir.Sub("missing/state.txt");
  EXPECT_FALSE(WriteFileAtomic(path, "content").ok());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(WriteFileAtomicTest, FailedRenameLeavesTargetAndNoTmp) {
  // A non-empty directory at the target path makes the final rename fail
  // after the temp file was fully written.
  ScratchDir dir;
  const std::string path = dir.Sub("state");
  fs::create_directory(path);
  ASSERT_TRUE(WriteFileAtomic(path + "/keep.txt", "kept").ok());
  EXPECT_FALSE(WriteFileAtomic(path, "content").ok());
  EXPECT_TRUE(fs::is_directory(path));
  EXPECT_EQ(ReadFileText(path + "/keep.txt").ValueOrDie(), "kept");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(WriteFileAtomicTest, FailedWriteLeavesTargetUnchanged) {
  // A directory squatting on the temp path makes the write fail before
  // the target is touched.
  ScratchDir dir;
  const std::string path = dir.Sub("state.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  fs::create_directory(path + ".tmp");
  EXPECT_FALSE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(ReadFileText(path).ValueOrDie(), "old");
}

// ------------------------------------------------------------- CLI flags

// Parses a literal argv the way main() receives it.
Result<FlagMap> ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return ParseFlags(static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(FlagsTest, ParsesSpacedEqualsAndBareForms) {
  // The shapes the benchmark harness, scripts and CI pass today.
  auto flags = ParseArgs({"--listen", "127.0.0.1:0", "--backends=a:1,b:2",
                          "--put-replicas", "2", "--metrics", "--workers",
                          "4", "--threshold", "0.4", "--no-agreement"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->at("listen"), "127.0.0.1:0");
  EXPECT_EQ(flags->at("backends"), "a:1,b:2");
  EXPECT_EQ(flags->at("metrics"), "1");
  EXPECT_EQ(flags->at("no-agreement"), "1");
  FlagReader reader(*flags);
  EXPECT_EQ(reader.Unsigned("put-replicas", 1), 2u);
  EXPECT_EQ(reader.Unsigned("workers", 64, kMaxThreadsFlag), 4u);
  EXPECT_DOUBLE_EQ(reader.Double("threshold", 0.3), 0.4);
  EXPECT_EQ(reader.Int("probe-interval-ms", 100), 100);  // absent
  EXPECT_TRUE(reader.status().ok());
}

TEST(FlagsTest, RejectsPositionalArguments) {
  EXPECT_FALSE(ParseArgs({"stray"}).ok());
  EXPECT_FALSE(ParseArgs({"--workers", "4", "5"}).ok());
  EXPECT_FALSE(ParseArgs({"--"}).ok());
  EXPECT_TRUE(ParseArgs({}).ok());
}

TEST(FlagsTest, ParseUnsignedAcceptsDigitsUpToMax) {
  EXPECT_EQ(ParseUnsigned("0", 10).ValueOrDie(), 0u);
  EXPECT_EQ(ParseUnsigned("007", 10).ValueOrDie(), 7u);
  EXPECT_EQ(ParseUnsigned("1024", 1024).ValueOrDie(), 1024u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615", UINT64_MAX).ValueOrDie(),
            UINT64_MAX);
}

TEST(FlagsTest, ParseUnsignedRejectsSignsJunkAndOverflow) {
  for (const char* text :
       {"-1", "+1", "abc", "2x", "", " 1", "1 ", "1.5", "0x10",
        "18446744073709551616", "99999999999999999999999"}) {
    auto parsed = ParseUnsigned(text, UINT64_MAX);
    EXPECT_FALSE(parsed.ok()) << "'" << text << "'";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_FALSE(ParseUnsigned("1025", 1024).ok());
  EXPECT_FALSE(ParseUnsigned("2147483648", 2147483647).ok());
}

TEST(FlagsTest, ParseFiniteDoubleRejectsNonFiniteAndJunk) {
  EXPECT_DOUBLE_EQ(ParseFiniteDouble("0.5").ValueOrDie(), 0.5);
  EXPECT_DOUBLE_EQ(ParseFiniteDouble("2000").ValueOrDie(), 2000.0);
  EXPECT_DOUBLE_EQ(ParseFiniteDouble("1e3").ValueOrDie(), 1000.0);
  for (const char* text :
       {"nan", "NaN", "inf", "-inf", "infinity", "1e999", "", "abc", "0.5x",
        " 1", "1 "}) {
    EXPECT_FALSE(ParseFiniteDouble(text).ok()) << "'" << text << "'";
  }
}

TEST(FlagsTest, ReaderKeepsTheFirstErrorNamingTheFlag) {
  FlagMap flags = {{"workers", "abc"},
                   {"threads", "2x"},
                   {"timeout-ms", "2147483648"},
                   {"qps", "inf"},
                   {"connections", "-1"}};
  FlagReader reader(flags);
  // Each bad value falls back; none reaches a field.
  EXPECT_EQ(reader.Unsigned("workers", 4, kMaxThreadsFlag), 4u);
  EXPECT_EQ(reader.Unsigned("threads", 2, kMaxThreadsFlag), 2u);
  EXPECT_EQ(reader.Int("timeout-ms", 30000), 30000);
  EXPECT_DOUBLE_EQ(reader.Double("qps", 0.0), 0.0);
  EXPECT_EQ(reader.Unsigned("connections", 8, kMaxThreadsFlag), 8u);
  ASSERT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("--workers"), std::string::npos)
      << reader.status().ToString();
  EXPECT_NE(reader.status().message().find("abc"), std::string::npos);
}

TEST(FlagsTest, ReaderBoundsThreadCountsAndIntFields) {
  // Checked through the parser only: no pool is ever started here.
  FlagMap flags = {{"workers", "1025"}, {"timeout-ms", "2147483647"}};
  FlagReader reader(flags);
  EXPECT_EQ(reader.Int("timeout-ms", 0), 2147483647);
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.Unsigned("workers", 4, kMaxThreadsFlag), 4u);
  EXPECT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().message().find("--workers"), std::string::npos);
}

// Golden value: the xoshiro256** stream for seed 42, pinned so a change to
// the splitmix64 seeding (or to the generator) cannot slip through as
// "tests still pass". Every seeded experiment in the repo replays from it.
TEST(RngTest, GoldenStreamForSeed42) {
  Rng rng(42);
  EXPECT_EQ(rng.Next(), 0x15780b2e0c2ec716ull);
  EXPECT_EQ(rng.Next(), 0x6104d9866d113a7eull);
  EXPECT_EQ(rng.Next(), 0xae17533239e499a1ull);
  EXPECT_EQ(rng.Next(), 0xecb8ad4703b360a1ull);
}

}  // namespace
}  // namespace uctr
