// Tests of the table store: the versioned binary codec's golden bytes per
// column encoding, exact round-trip fidelity, corruption handling and
// content fingerprint stability, the content-addressed registry (dedup,
// LRU byte-budget eviction, borrow lifetimes, counters), and the
// put_table / table_ref wire protocol end to end through serve::Server.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "store/codec.h"
#include "store/registry.h"
#include "store/wal.h"
#include "tests/test_util.h"

namespace uctr::store {
namespace {

using serve::EngineConfig;
using serve::InferenceEngine;
using serve::Server;
using serve::ServerConfig;
using testing::MakeFinanceTable;
using testing::MakeNationsTable;
using testing::RandomTable;

// Cell-exact equality: type, numeric value, surface text, schema, and the
// rendered CSV all have to match for serving to be byte-identical.
void ExpectTablesIdentical(const Table& a, const Table& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
    EXPECT_EQ(a.schema().column(c).type, b.schema().column(c).type);
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Value& va = a.cell(r, c);
      const Value& vb = b.cell(r, c);
      ASSERT_EQ(va.type(), vb.type()) << "cell (" << r << "," << c << ")";
      EXPECT_EQ(va.text(), vb.text()) << "cell (" << r << "," << c << ")";
      if (va.is_number()) {
        EXPECT_EQ(va.number(), vb.number())
            << "cell (" << r << "," << c << ")";
      }
      if (va.is_bool()) {
        EXPECT_EQ(va.boolean(), vb.boolean())
            << "cell (" << r << "," << c << ")";
      }
    }
  }
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
}

// The table as Decode reconstructs it from Encode's bytes.
Result<Table> RoundTrip(const Table& table) {
  return Codec::Decode(Codec::Encode(table));
}

// ------------------------------------------------------- Column encodings

TEST(ColumnarTest, RoundTripIsCellExact) {
  for (const Table& t : {MakeNationsTable(), MakeFinanceTable()}) {
    Result<Table> back = RoundTrip(t);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectTablesIdentical(t, *back);
  }
}

TEST(ColumnarTest, RoundTripsRandomTables) {
  Rng rng(0xC01u);
  for (int i = 0; i < 20; ++i) {
    Table t = RandomTable(&rng);
    Result<Table> back = RoundTrip(t);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectTablesIdentical(t, *back);
  }
}

TEST(ColumnarTest, RoundTripsEmptyAndHeaderOnlyTables) {
  Table t = Table::FromCsv("a,b\n", "empty").ValueOrDie();
  Result<Table> back = RoundTrip(t);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->num_columns(), 2u);
  ExpectTablesIdentical(t, *back);
}

// ------------------------------------------------------------------ Codec

TEST(CodecTest, EncodeDecodeRoundTrips) {
  for (const Table& t : {MakeNationsTable(), MakeFinanceTable()}) {
    std::string bytes = Codec::Encode(t);
    Result<Table> back = Codec::Decode(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectTablesIdentical(t, *back);
  }
}

TEST(CodecTest, EncodingIsCanonical) {
  // Re-encoding a round-tripped table reproduces the exact bytes — the
  // property that makes content fingerprints stable across put/get/put.
  std::string bytes = Codec::Encode(MakeFinanceTable());
  Table back = Codec::Decode(bytes).ValueOrDie();
  std::string again = Codec::Encode(back);
  EXPECT_EQ(bytes, again);
  EXPECT_EQ(Codec::Fingerprint(bytes), Codec::Fingerprint(again));
}

TEST(CodecTest, FingerprintIsContentAddressed) {
  std::string a = Codec::Encode(MakeNationsTable());
  std::string b = Codec::Encode(MakeFinanceTable());
  EXPECT_EQ(Codec::Fingerprint(a).size(), 16u);
  EXPECT_NE(Codec::Fingerprint(a), Codec::Fingerprint(b));
  EXPECT_EQ(Codec::Fingerprint(a), Codec::Fingerprint(a));
}

TEST(CodecTest, EveryTruncationFailsCleanly) {
  std::string bytes = Codec::Encode(MakeFinanceTable());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<Table> decoded =
        Codec::Decode(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << len << " bytes";
  }
}

TEST(CodecTest, EverySingleBitFlipFailsCleanly) {
  // The header fields are individually validated and the payload is
  // checksummed with FNV-1a (each step is injective), so any single-bit
  // corruption must yield an error Status, never a bogus table.
  std::string bytes = Codec::Encode(MakeNationsTable());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
    Result<Table> decoded = Codec::Decode(corrupt);
    EXPECT_FALSE(decoded.ok()) << "bit flip at byte " << i;
  }
}

TEST(CodecTest, TrailingGarbageIsRejected) {
  std::string bytes = Codec::Encode(MakeNationsTable());
  EXPECT_FALSE(Codec::Decode(bytes + "x").ok());
  EXPECT_FALSE(Codec::Decode(bytes + std::string(64, '\0')).ok());
}

TEST(CodecTest, VersionSkewIsReportedAsSuch) {
  std::string bytes = Codec::Encode(MakeNationsTable());
  bytes[4] = 2;  // u32 version little-endian low byte
  Result<Table> decoded = Codec::Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("version skew"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(CodecTest, GarbageInputsNeverCrash) {
  Rng rng(0xBADu);
  for (int i = 0; i < 200; ++i) {
    size_t len = static_cast<size_t>(rng.UniformInt(0, 256));
    std::string garbage;
    garbage.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    Result<Table> decoded = Codec::Decode(garbage);
    if (decoded.ok()) {
      // Astronomically unlikely, but if it parses it must be usable.
      EXPECT_FALSE(Codec::Encode(*decoded).empty());
    }
  }
}

TEST(CodecTest, RejectsRowsWithoutColumns) {
  // A well-formed frame whose header claims 20M rows of zero columns:
  // no payload byte backs a row, so nothing but this check bounds them.
  const std::string bytes = testing::ZeroColumnFrame(20'000'000);
  EXPECT_EQ(bytes.size(), 45u);
  Result<Table> decoded = Codec::Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("rows without columns"),
            std::string::npos)
      << decoded.status().ToString();
  EXPECT_FALSE(TableRegistry().PutEncodedBytes(bytes).ok());
  // The same frame with zero rows is a valid (empty) table.
  EXPECT_TRUE(Codec::Decode(testing::ZeroColumnFrame(0)).ok());
}

// --------------------------------------------------------- TableRegistry

// Golden values for the README's put_table example table. The codec bytes,
// the WAL record that frames them and the content fingerprint are on-disk
// and on-the-wire contracts: a table_ref handed out by one build must name
// the same table in the next, and a WAL written by one build must replay
// in the next. Never edit these to make a refactor pass.
constexpr const char* kReadmeCsv = "nation,gold\nchina,8\n";
constexpr const char* kReadmeEncodedHex =
    "55435442010000004800000000000000841bdf3c9d08f8cf0200000001000000"
    "050000007461626c650300000000000000050000006368696e61010000003806"
    "0000006e6174696f6e0002000100000004000000676f6c640100000108000000"
    "0000000002000000";

// The canonical bytes of `table`, through the registry's encode entry
// point so these goldens pin the on-disk format, not one code path.
std::string EncodeBytes(const Table& table) {
  return TableRegistry::EncodeTable(table).bytes;
}

TEST(CodecGoldenTest, ReadmeTableFingerprint) {
  Table table = Table::FromCsv(kReadmeCsv).ValueOrDie();
  EXPECT_EQ(Codec::Fingerprint(EncodeBytes(table)), "93d25f9ff552e9ce");
}

TEST(CodecGoldenTest, ReadmeTableEncodeBytes) {
  Table table = Table::FromCsv(kReadmeCsv).ValueOrDie();
  EXPECT_EQ(Codec::ToHex(EncodeBytes(table)), kReadmeEncodedHex);
}

TEST(CodecGoldenTest, ReadmeTableWalRecordBytes) {
  Table table = Table::FromCsv(kReadmeCsv).ValueOrDie();
  const std::string payload = EncodeBytes(table);
  EXPECT_EQ(Codec::ToHex(Wal::EncodeRecord(payload)),
            std::string("5557414c010000006800000000000000cee952f59f5fd293") +
                kReadmeEncodedHex);
}

// Golden bytes for every column encoding, same contract as above: each
// table exercises one encoding decision (int64/double with and without
// surface text, string, bool, mixed, all-null, header-only), the null
// bitmap and string-pool interning order. Never edit these.
constexpr const char* kInt64TextHex =
    "55435442010000009600000000000000b3ce6a3a5a4eaf790200000003000000"
    "050000007461626c650600000000000000040000003230313904000000323032"
    "300400000032303231020000003132020000002d330400000079656172010000"
    "01e307000000000000e407000000000000e50700000000000001000000020000"
    "000300000005000000756e697473010002010c00000000000000000000000000"
    "0000fdffffffffffffff040000000000000005000000";
constexpr const char* kNumericNoTextHex =
    "554354420100000058000000000000000812532b0828b21f0200000003000000"
    "05000000706c61696e0100000000000000020000006964010004000100000000"
    "000000feffffffffffffff000000000000000005000000726174696f01010200"
    "000000000000e03f000000000000000000000000000002c0";
constexpr const char* kDoubleTextHex =
    "554354420100000073000000000000000dc7ee51810156860200000002000000"
    "050000007461626c65050000000000000007000000726576656e756504000000"
    "636f73740800000024312c3230302e35060000003430302e3235040000006974"
    "656d000200010000000200000006000000616d6f756e74010100010000000000"
    "c2924000000000000479400300000004000000";
constexpr const char* kStringBoolHex =
    "55435442010000005400000000000000b9aaa7413cd4480a0200000004000000"
    "0600000070656f706c65040000000000000005000000616c6963650300000062"
    "6f62050000006361726f6c040000006e616d6500020001000000020000000300"
    "0000010000000600000061637469766502030409";
constexpr const char* kMixedHex =
    "55435442010000008700000000000000546aede7190f0b4e0200000004000000"
    "050000007461626c650600000000000000020000006f6b010000006201000000"
    "6301000000640100000035050000006c6162656c000200010000000200000003"
    "0000000400000005000000677261646500040801020300000000000000000000"
    "00000000001440000000000000f03f0000000000000000010000000500000000"
    "00000000000000";
constexpr const char* kAllNullHex =
    "554354420100000041000000000000000b60df2746b6d1670200000002000000"
    "050000007461626c65030000000000000001000000780100000079040000006e"
    "616d650002000100000002000000040000006e6f746500020300000000000000"
    "00";
constexpr const char* kHeaderOnlyHex =
    "55435442010000001f00000000000000b3d88da2bde0e59c0200000000000000"
    "05000000656d70747901000000000000000100000061000201000000620002";

void ExpectGolden(const Table& table, const std::string& hex,
                  const std::string& fingerprint) {
  const std::string bytes = EncodeBytes(table);
  EXPECT_EQ(Codec::ToHex(bytes), hex);
  EXPECT_EQ(Codec::Fingerprint(bytes), fingerprint);
  // The golden bytes decode back to a cell-exact copy of the table.
  Result<std::string> raw = Codec::FromHex(hex);
  ASSERT_TRUE(raw.ok());
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  Result<PutResult> put = registry.PutEncodedBytes(*raw);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ(put->fingerprint, fingerprint);
  std::shared_ptr<const Table> back = registry.Get(fingerprint);
  ASSERT_NE(back, nullptr);
  ExpectTablesIdentical(table, *back);
}

TEST(CodecGoldenTest, Int64ColumnsWithSurfaceText) {
  // "-" is null: the int64 column keeps a null bit and a zero slot.
  ExpectGolden(
      Table::FromCsv("year,units\n2019,12\n2020,-\n2021,-3\n").ValueOrDie(),
      kInt64TextHex, "e3c427d5ff099f9e");
}

TEST(CodecGoldenTest, NumericColumnsWithoutSurfaceText) {
  // Values built from doubles carry no text: no text-id array is written.
  Table table("plain", Schema({{"id", ColumnType::kNumber},
                               {"ratio", ColumnType::kNumber}}));
  ASSERT_TRUE(table.AppendRow({Value::Number(1), Value::Number(0.5)}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Number(-2), Value::Null()}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Null(), Value::Number(-2.25)}).ok());
  ExpectGolden(table, kNumericNoTextHex, "cf6f49da38aabec9");
}

TEST(CodecGoldenTest, DoubleColumnWithSurfaceText) {
  ExpectGolden(Table::FromCsv("item,amount\nrevenue,\"$1,200.5\"\n"
                              "cost,400.25\n")
                   .ValueOrDie(),
               kDoubleTextHex, "78da549efcd25ac8");
}

TEST(CodecGoldenTest, StringAndBoolColumns) {
  ExpectGolden(Table::FromCsv("name,active\nalice,true\nbob,no\n"
                              "carol,-\nalice,yes\n",
                              "people")
                   .ValueOrDie(),
               kStringBoolHex, "a30805c53a9ee341");
}

TEST(CodecGoldenTest, MixedColumn) {
  // String, number-with-text, bool and null cells in one column; "ok"
  // repeats across columns, so the pool interns it once.
  ExpectGolden(Table::FromCsv("label,grade\nok,ok\nb,5\nc,yes\nd,-\n")
                   .ValueOrDie(),
               kMixedHex, "1045863677f0fe07");
}

TEST(CodecGoldenTest, AllNullColumn) {
  ExpectGolden(Table::FromCsv("name,note\nx,-\ny,n/a\n").ValueOrDie(),
               kAllNullHex, "750c010c282202d2");
}

TEST(CodecGoldenTest, HeaderOnlyTable) {
  ExpectGolden(Table::FromCsv("a,b\n", "empty").ValueOrDie(), kHeaderOnlyHex,
               "3c78af485b055ce9");
}

TEST(RegistryTest, PutThenGetReturnsWarmTable) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  Result<PutResult> put = registry.Put(MakeNationsTable());
  ASSERT_TRUE(put.ok());
  EXPECT_TRUE(put->inserted);
  EXPECT_EQ(put->fingerprint.size(), 16u);
  EXPECT_GT(put->bytes, 0u);

  std::shared_ptr<const Table> table = registry.Get(put->fingerprint);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->name(), "medals");
  EXPECT_EQ(table->num_rows(), 5u);
  EXPECT_EQ(registry.hits(), 1u);
  EXPECT_EQ(registry.table_count(), 1u);
  EXPECT_GE(registry.bytes(), put->bytes);
}

TEST(RegistryTest, IdenticalContentDedups) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  Result<PutResult> first = registry.Put(MakeNationsTable());
  Result<PutResult> second = registry.Put(MakeNationsTable());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fingerprint, second->fingerprint);
  EXPECT_TRUE(first->inserted);
  EXPECT_FALSE(second->inserted);
  EXPECT_EQ(registry.table_count(), 1u);
  EXPECT_EQ(registry.puts(), 2u);
}

TEST(RegistryTest, MissesAreCountedAndReturnNull) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  EXPECT_EQ(registry.Get("0123456789abcdef"), nullptr);
  EXPECT_EQ(registry.Get("not-even-hex"), nullptr);
  EXPECT_EQ(registry.misses(), 2u);
}

TEST(RegistryTest, ByteBudgetEvictsColdEntries) {
  Rng rng(0x11u);
  Table first = RandomTable(&rng, 40, 3);
  size_t one_table = TableRegistry::EncodeTable(first).approx_bytes;
  RegistryConfig config;
  config.num_shards = 1;
  config.capacity_bytes = one_table * 3;
  obs::MetricsRegistry metrics;
  TableRegistry registry(config, &metrics);

  std::string first_fp = registry.Put(std::move(first))->fingerprint;
  std::vector<std::string> fps;
  for (int i = 0; i < 8; ++i) {
    fps.push_back(registry.Put(RandomTable(&rng, 40, 3))->fingerprint);
  }
  EXPECT_GT(registry.evictions(), 0u);
  EXPECT_LE(registry.bytes(), config.capacity_bytes + one_table);
  EXPECT_EQ(registry.Get(first_fp), nullptr) << "cold entry must be gone";
  EXPECT_NE(registry.Get(fps.back()), nullptr) << "hot entry must survive";
}

TEST(RegistryTest, OversizedTableIsAdmittedAlone) {
  RegistryConfig config;
  config.num_shards = 1;
  config.capacity_bytes = 1;  // smaller than any table
  TableRegistry registry(config);
  Result<PutResult> put = registry.Put(MakeNationsTable());
  ASSERT_TRUE(put.ok());
  EXPECT_TRUE(put->inserted);
  EXPECT_NE(registry.Get(put->fingerprint), nullptr)
      << "the newest entry is never evicted by its own insertion";
}

TEST(RegistryTest, BorrowedTableSurvivesEviction) {
  Rng rng(0x22u);
  RegistryConfig config;
  config.num_shards = 1;
  config.capacity_bytes =
      TableRegistry::EncodeTable(MakeNationsTable()).approx_bytes + 1;
  TableRegistry registry(config);
  std::string fp = registry.Put(MakeNationsTable())->fingerprint;
  std::shared_ptr<const Table> borrowed = registry.Get(fp);
  ASSERT_NE(borrowed, nullptr);

  for (int i = 0; i < 4; ++i) registry.Put(RandomTable(&rng, 60, 3));
  EXPECT_EQ(registry.Get(fp), nullptr) << "entry evicted from the registry";
  // The in-flight borrow still reads the full table safely.
  EXPECT_EQ(borrowed->num_rows(), 5u);
  EXPECT_EQ(borrowed->cell(0, 0).text(), "united states");
}

TEST(RegistryTest, ConcurrentPutGetIsCoherent) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  std::string nations_fp =
      Codec::Fingerprint(Codec::Encode(MakeNationsTable()));
  std::vector<std::thread> threads;
  std::atomic<int> null_hits{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &null_hits, nations_fp, t] {
      for (int i = 0; i < 25; ++i) {
        if ((i + t) % 2 == 0) {
          ASSERT_TRUE(registry.Put(MakeNationsTable()).ok());
        } else if (auto table = registry.Get(nations_fp)) {
          ASSERT_EQ(table->num_rows(), 5u);
        } else {
          null_hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.table_count(), 1u);
  EXPECT_EQ(registry.puts(), 50u);
  EXPECT_NE(registry.Get(nations_fp), nullptr);
}

// ------------------------------------------------- Serving wire protocol

const char* kMedalsCsv =
    "nation,gold,silver,bronze,total\n"
    "united states,10,12,8,30\n"
    "china,8,6,10,24\n"
    "japan,5,9,4,18\n";

const char* kFinanceCsv =
    "item,2019,2018\n"
    "revenue,\"$2,350.4\",\"$2,014.9\"\n"
    "net income,\"$310.5\",\"$225.1\"\n";

std::string JsonEscapeNewlines(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string PutTableRequest(uint64_t id, const std::string& csv) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"put_table\",\"table\":\"" + JsonEscapeNewlines(csv) +
         "\"}";
}

std::string RefRequest(uint64_t id, const std::string& op,
                       const std::string& ref, const std::string& query) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"table_ref\":\"" + ref + "\",\"query\":\"" + query + "\"}";
}

std::string InlineRequest(uint64_t id, const std::string& op,
                          const std::string& csv, const std::string& query) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"table\":\"" + JsonEscapeNewlines(csv) + "\",\"query\":\"" +
         query + "\"}";
}

std::string ExtractFingerprint(const std::string& response) {
  size_t pos = response.find("\"fingerprint\":\"");
  if (pos == std::string::npos) return "";
  pos += 15;
  return response.substr(pos, 16);
}

const InferenceEngine& SharedEngine() {
  static const InferenceEngine engine = [] {
    EngineConfig config;
    return InferenceEngine::Create(config, "", "").ValueOrDie();
  }();
  return engine;
}

TEST(ServerStoreTest, PutTableReturnsContentFingerprint) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  std::string response = server.HandleLine(PutTableRequest(1, kMedalsCsv));
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  std::string fp = ExtractFingerprint(response);
  ASSERT_EQ(fp.size(), 16u) << response;
  // Content-addressed: the same table registers to the same fingerprint.
  EXPECT_EQ(ExtractFingerprint(
                server.HandleLine(PutTableRequest(2, kMedalsCsv))),
            fp);
  EXPECT_EQ(server.registry()->table_count(), 1u);
}

TEST(ServerStoreTest, TableRefServesByteIdenticalAnswers) {
  ServerConfig config;
  config.scheduler.num_workers = 2;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);

  std::string medals_fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(1, kMedalsCsv)));
  std::string finance_fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(2, kFinanceCsv)));
  ASSERT_EQ(medals_fp.size(), 16u);
  ASSERT_EQ(finance_fp.size(), 16u);

  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  const std::string question = "Which item has the highest 2019?";

  // Same id on both paths: the responses must be byte-identical.
  std::string ref_verify =
      server.HandleLine(RefRequest(7, "verify", medals_fp, claim));
  std::string inline_verify =
      server.HandleLine(InlineRequest(7, "verify", kMedalsCsv, claim));
  EXPECT_EQ(ref_verify, inline_verify);
  EXPECT_NE(ref_verify.find("\"label\":"), std::string::npos) << ref_verify;
  EXPECT_EQ(ref_verify.find("degraded"), std::string::npos)
      << "a registry hit is the healthy path, not a fallback";

  std::string ref_answer =
      server.HandleLine(RefRequest(8, "answer", finance_fp, question));
  std::string inline_answer =
      server.HandleLine(InlineRequest(8, "answer", kFinanceCsv, question));
  EXPECT_EQ(ref_answer, inline_answer);

  EXPECT_EQ(metrics.counter("store_hits_total")->value(), 2u);
}

TEST(ServerStoreTest, RegistryMissFallsBackToInlineDegraded) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";

  // Unregistered ref + inline table: inline path answers, marked degraded.
  std::string fallback = server.HandleLine(
      "{\"id\":3,\"op\":\"verify\",\"table_ref\":\"ffffffffffffffff\","
      "\"table\":\"" +
      JsonEscapeNewlines(kMedalsCsv) + "\",\"query\":\"" + claim + "\"}");
  EXPECT_NE(fallback.find("\"status\":\"ok\""), std::string::npos)
      << fallback;
  EXPECT_NE(fallback.find("\"degraded\":true"), std::string::npos)
      << fallback;
  std::string healthy =
      server.HandleLine(InlineRequest(3, "verify", kMedalsCsv, claim));
  // Identical answer bytes modulo the degraded marker.
  EXPECT_EQ(fallback.find("\"label\":\"Supported\"") != std::string::npos,
            healthy.find("\"label\":\"Supported\"") != std::string::npos);
  EXPECT_EQ(metrics.counter("degraded_store_fallback_total")->value(), 1u);

  // Unregistered ref without an inline table: a NotFound-style error.
  std::string miss = server.HandleLine(
      RefRequest(4, "verify", "ffffffffffffffff", claim));
  EXPECT_NE(miss.find("\"status\":\"error\""), std::string::npos) << miss;
  EXPECT_NE(miss.find("not registered"), std::string::npos) << miss;
}

TEST(ServerStoreTest, StatsExposeRegistryCounters) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  std::string fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(1, kMedalsCsv)));
  server.HandleLine(RefRequest(
      2, "verify", fp, "The gold of the row whose nation is japan is 5."));
  server.HandleLine(RefRequest(3, "verify", "0000000000000000", "x"));

  std::string stats = server.HandleLine("{\"id\":9,\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"store_puts_total\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_hits_total\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_misses_total\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_evictions_total\":0"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_tables\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"store_bytes\":"), std::string::npos) << stats;
}

TEST(ServerStoreTest, StoreGetFaultDegradesToInlineFallback) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  std::string fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(1, kMedalsCsv)));

  ASSERT_TRUE(
      fault::FaultInjector::Global().ArmSpec("serve.store_get=error").ok());
  std::string response = server.HandleLine(
      "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fp +
      "\",\"table\":\"" + JsonEscapeNewlines(kMedalsCsv) +
      "\",\"query\":\"" + claim + "\"}");
  fault::FaultInjector::Global().Disarm();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"degraded\":true"), std::string::npos)
      << response;
}

TEST(ServerStoreTest, StorePutFaultFailsTheRegistration) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  ASSERT_TRUE(
      fault::FaultInjector::Global().ArmSpec("serve.store_put=error").ok());
  std::string response = server.HandleLine(PutTableRequest(1, kMedalsCsv));
  fault::FaultInjector::Global().Disarm();
  EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("store:"), std::string::npos) << response;
  EXPECT_EQ(server.registry()->table_count(), 0u);
}

TEST(ServerStoreTest, PutTableRejectsMissingOrBadTables) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  Server server(&SharedEngine(), config);
  EXPECT_NE(server.HandleLine("{\"id\":1,\"op\":\"put_table\"}")
                .find("\"status\":\"error\""),
            std::string::npos);
  EXPECT_NE(server
                .HandleLine("{\"id\":2,\"op\":\"put_table\","
                            "\"table\":\"a,b\\n1\\n\"}")
                .find("\"status\":\"error\""),
            std::string::npos)
      << "ragged CSV must fail registration";
}

// ------------------------------------------------ Engine borrow semantics

TEST(EngineBorrowTest, BorrowedAndMovedTablesAgree) {
  const InferenceEngine& engine = SharedEngine();
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  Table medals = MakeNationsTable();
  medals.WarmIndex();
  std::string borrowed = engine.Verify(medals, claim, {});  // lvalue borrow
  Table moved = MakeNationsTable();
  moved.WarmIndex();
  std::string via_move = engine.Verify(std::move(moved), claim, {});
  EXPECT_EQ(borrowed, via_move);

  Table finance = MakeFinanceTable();
  const std::string question = "Which item has the highest 2019?";
  EXPECT_EQ(engine.Answer(finance, question, {}),
            engine.Answer(MakeFinanceTable(), question, {}));
}

TEST(EngineBorrowTest, ConcurrentBorrowsOfOneTableAreConsistent) {
  const InferenceEngine& engine = SharedEngine();
  Table medals = MakeNationsTable();
  medals.WarmIndex();
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  std::string expected = engine.Verify(medals, claim, {});
  std::vector<std::thread> threads;
  std::vector<std::string> results(8);
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&engine, &medals, &claim, &results, t] {
      results[t] = engine.Verify(medals, claim, {});
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& r : results) EXPECT_EQ(r, expected);
}

}  // namespace
}  // namespace uctr::store
