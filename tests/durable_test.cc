// Tests of the durable table store: WAL record framing and recovery
// semantics (torn tails, corrupt records), the DurableStore ack contract
// ("acked = appended": after a crash at ANY byte offset of the WAL, a
// restart recovers exactly the acked prefix, byte-identical), snapshot
// compaction, eviction-reload, and the serve-level wiring (a restarted
// Server with the same --store-dir serves the same table_ref responses,
// non-degraded).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "store/codec.h"
#include "store/durable_registry.h"
#include "store/registry.h"
#include "store/wal.h"
#include "tests/test_util.h"

namespace uctr::store {
namespace {

namespace fs = std::filesystem;
using serve::EngineConfig;
using serve::InferenceEngine;
using serve::Server;
using serve::ServerConfig;
using testing::MakeFinanceTable;
using testing::MakeNationsTable;
using testing::RandomTable;

/// A fresh directory under the system temp root, removed on destruction.
/// Each test gets its own so parallel ctest shards never collide.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "uctr_durable_XXXXXX").string();
    char* made = mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

Wal::Options NoSyncOptions(obs::MetricsRegistry* metrics = nullptr) {
  Wal::Options options;
  options.fsync = FsyncMode::kNever;
  options.metrics = metrics;
  return options;
}

std::string EncodeTableBytes(const Table& table) {
  return Codec::Encode(table);
}

// ------------------------------------------------------------------ Wal

TEST(WalTest, FsyncModeParsesAndPrints) {
  EXPECT_EQ(ParseFsyncMode("always").ValueOrDie(), FsyncMode::kAlways);
  EXPECT_EQ(ParseFsyncMode("interval").ValueOrDie(), FsyncMode::kInterval);
  EXPECT_EQ(ParseFsyncMode("never").ValueOrDie(), FsyncMode::kNever);
  EXPECT_FALSE(ParseFsyncMode("sometimes").ok());
  EXPECT_STREQ(FsyncModeToString(FsyncMode::kAlways), "always");
  EXPECT_STREQ(FsyncModeToString(FsyncMode::kInterval), "interval");
  EXPECT_STREQ(FsyncModeToString(FsyncMode::kNever), "never");
}

TEST(WalTest, AppendThenScanRoundTrips) {
  TempDir dir;
  const std::string path = dir.Sub("wal.log");
  std::vector<std::string> payloads = {EncodeTableBytes(MakeNationsTable()),
                                       EncodeTableBytes(MakeFinanceTable()),
                                       std::string("short"),
                                       std::string(1 << 15, '\x7f')};
  std::vector<uint64_t> offsets;
  {
    Wal wal = Wal::Open(path, NoSyncOptions()).ValueOrDie();
    for (const std::string& payload : payloads) {
      uint64_t offset = 0;
      ASSERT_TRUE(wal.Append(payload, &offset).ok());
      offsets.push_back(offset);
    }
    EXPECT_EQ(wal.size_bytes(), fs::file_size(path));
  }
  std::vector<std::string> replayed;
  std::vector<uint64_t> replayed_offsets;
  uint64_t valid = Wal::Scan(path,
                             [&](uint64_t offset, std::string payload) {
                               replayed_offsets.push_back(offset);
                               replayed.push_back(std::move(payload));
                             })
                       .ValueOrDie();
  EXPECT_EQ(valid, fs::file_size(path));
  EXPECT_EQ(replayed, payloads);  // byte-identical, in append order
  EXPECT_EQ(replayed_offsets, offsets);
}

TEST(WalTest, MissingFileScansAsEmpty) {
  TempDir dir;
  size_t records = 0;
  uint64_t valid =
      Wal::Scan(dir.Sub("absent.log"),
                [&](uint64_t, std::string) { ++records; })
          .ValueOrDie();
  EXPECT_EQ(valid, 0u);
  EXPECT_EQ(records, 0u);
}

TEST(WalTest, CorruptRecordIsSkippedAndScanContinues) {
  TempDir dir;
  const std::string path = dir.Sub("wal.log");
  std::string a = EncodeTableBytes(MakeNationsTable());
  std::string b = EncodeTableBytes(MakeFinanceTable());
  std::string c(100, 'c');
  std::string file =
      Wal::EncodeRecord(a) + Wal::EncodeRecord(b) + Wal::EncodeRecord(c);
  // Flip one payload byte inside the middle record: its checksum no longer
  // matches, but the framing is intact, so the scan must deliver a and c.
  file[Wal::EncodeRecord(a).size() + Wal::kRecordHeaderBytes + 3] ^= 0x01;
  WriteFile(path, file);

  obs::MetricsRegistry metrics;
  std::vector<std::string> replayed;
  uint64_t valid = Wal::Scan(path,
                             [&](uint64_t, std::string payload) {
                               replayed.push_back(std::move(payload));
                             },
                             &metrics)
                       .ValueOrDie();
  EXPECT_EQ(valid, file.size());  // framing fine end to end: nothing torn
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0], a);
  EXPECT_EQ(replayed[1], c);
  EXPECT_EQ(metrics.counter("store_wal_corrupt_records_total")->value(),
            1u);
}

TEST(WalTest, ImplausiblePayloadLengthIsTornTailNotSkipAhead) {
  TempDir dir;
  const std::string path = dir.Sub("wal.log");
  std::string good = Wal::EncodeRecord("payload");
  // Header claiming a payload far past kMaxPayloadBytes: a corrupt length
  // must stop the scan, not convince it to "skip" 2^60 bytes forward.
  std::string evil(Wal::kRecordHeaderBytes, '\0');
  evil[0] = 'U'; evil[1] = 'W'; evil[2] = 'A'; evil[3] = 'L';
  evil[4] = 1;                     // version
  evil[8 + 7] = 0x10;              // size = 0x10'00'00'00'00'00'00'00
  WriteFile(path, good + evil);

  std::vector<std::string> replayed;
  uint64_t valid = Wal::Scan(path,
                             [&](uint64_t, std::string payload) {
                               replayed.push_back(std::move(payload));
                             })
                       .ValueOrDie();
  EXPECT_EQ(valid, good.size());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "payload");
  ASSERT_TRUE(Wal::TruncateTo(path, valid).ok());
  EXPECT_EQ(fs::file_size(path), good.size());
}

// The core recovery pin, at the framing level: cut the log at EVERY byte
// offset and assert the scan yields exactly the records that fit entirely
// before the cut — never a partial record, never a skipped complete one.
TEST(WalTest, TruncationAtEveryOffsetRecoversExactlyThePrefix) {
  TempDir dir;
  std::vector<std::string> payloads = {"alpha", "bb", std::string(300, 'z'),
                                       EncodeTableBytes(MakeNationsTable())};
  std::string file;
  std::vector<uint64_t> record_end;  // cumulative end offset of record i
  for (const std::string& payload : payloads) {
    file += Wal::EncodeRecord(payload);
    record_end.push_back(file.size());
  }

  const std::string path = dir.Sub("cut.log");
  for (size_t cut = 0; cut <= file.size(); ++cut) {
    WriteFile(path, file.substr(0, cut));
    std::vector<std::string> replayed;
    auto valid = Wal::Scan(path, [&](uint64_t, std::string payload) {
      replayed.push_back(std::move(payload));
    });
    ASSERT_TRUE(valid.ok()) << "cut=" << cut;
    size_t expect_records = 0;
    while (expect_records < record_end.size() &&
           record_end[expect_records] <= cut) {
      ++expect_records;
    }
    ASSERT_EQ(replayed.size(), expect_records) << "cut=" << cut;
    for (size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(replayed[i], payloads[i]) << "cut=" << cut;
    }
    // The declared valid prefix is exactly the surviving whole records.
    EXPECT_EQ(*valid, expect_records == 0 ? 0 : record_end[expect_records - 1])
        << "cut=" << cut;

    // Repair + append must produce a clean log again.
    ASSERT_TRUE(Wal::TruncateTo(path, *valid).ok());
    {
      Wal wal = Wal::Open(path, NoSyncOptions()).ValueOrDie();
      ASSERT_TRUE(wal.Append("appended-after-repair").ok());
    }
    std::vector<std::string> after;
    uint64_t valid2 = Wal::Scan(path, [&](uint64_t, std::string payload) {
                        after.push_back(std::move(payload));
                      }).ValueOrDie();
    ASSERT_EQ(after.size(), expect_records + 1) << "cut=" << cut;
    EXPECT_EQ(after.back(), "appended-after-repair");
    EXPECT_EQ(valid2, fs::file_size(path));
  }
}

// --------------------------------------------------------- DurableStore

DurableStoreConfig StoreConfig(const std::string& dir,
                               obs::MetricsRegistry* metrics) {
  DurableStoreConfig config;
  config.dir = dir;
  config.fsync = FsyncMode::kNever;  // kill -9 semantics; fast tests
  config.metrics = metrics;
  return config;
}

TEST(DurableStoreTest, PutRecoverServesByteIdenticalTables) {
  TempDir dir;
  std::vector<Table> tables = {MakeNationsTable(), MakeFinanceTable()};
  Rng rng(7);
  for (int i = 0; i < 6; ++i) tables.push_back(RandomTable(&rng));

  std::vector<std::string> fingerprints;
  std::vector<std::string> encoded;
  {
    obs::MetricsRegistry metrics;
    TableRegistry registry({}, &metrics);
    DurableStore store(&registry, StoreConfig(dir.path(), &metrics));
    ASSERT_TRUE(store.Recover().ok());
    EXPECT_EQ(store.recovered_tables(), 0u);
    for (Table& table : tables) {
      encoded.push_back(EncodeTableBytes(table));
      auto put = store.Put(std::move(table));
      ASSERT_TRUE(put.ok()) << put.status().ToString();
      fingerprints.push_back(put->fingerprint);
    }
    EXPECT_EQ(store.durable_tables(), tables.size());
  }  // process "dies" — nothing fsynced, file contents survive

  obs::MetricsRegistry metrics;
  TableRegistry registry({}, &metrics);
  DurableStore store(&registry, StoreConfig(dir.path(), &metrics));
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.recovered_tables(), tables.size());
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    EXPECT_TRUE(store.Contains(fingerprints[i]));
    // Byte-identical by content address: same canonical codec bytes.
    EXPECT_EQ(store.GetEncodedBytes(fingerprints[i]).ValueOrDie(),
              encoded[i]);
    ASSERT_NE(store.Get(fingerprints[i]), nullptr);
  }
}

TEST(DurableStoreTest, IdenticalPutDoesNotGrowTheWal) {
  TempDir dir;
  obs::MetricsRegistry metrics;
  TableRegistry registry({}, &metrics);
  DurableStore store(&registry, StoreConfig(dir.path(), &metrics));
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.Put(MakeNationsTable()).ok());
  uint64_t bytes_after_first = store.wal_bytes();
  auto again = store.Put(MakeNationsTable());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->inserted);
  EXPECT_EQ(store.wal_bytes(), bytes_after_first);  // dedup: no new record
  EXPECT_EQ(store.durable_tables(), 1u);
}

TEST(DurableStoreTest, PutEncodedBytesValidatesBeforeLogging) {
  TempDir dir;
  obs::MetricsRegistry metrics;
  TableRegistry registry({}, &metrics);
  DurableStore store(&registry, StoreConfig(dir.path(), &metrics));
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_FALSE(store.PutEncodedBytes("not codec bytes").ok());
  EXPECT_EQ(store.wal_bytes(), 0u);  // the WAL never holds invalid bytes

  std::string good = EncodeTableBytes(MakeFinanceTable());
  auto put = store.PutEncodedBytes(good);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->fingerprint, Codec::Fingerprint(good));
  EXPECT_EQ(store.GetEncodedBytes(put->fingerprint).ValueOrDie(), good);
}

// The acceptance pin: kill -9 at EVERY WAL offset, restart, and the store
// serves exactly the acked prefix — acked tables byte-identical, unacked
// tables absent.
TEST(DurableStoreTest, KillAtEveryWalOffsetRecoversExactlyTheAckedPrefix) {
  TempDir work;
  // Build a golden store: 5 tables, each one WAL record, known boundaries.
  std::vector<std::string> fingerprints;
  std::vector<std::string> encoded;
  std::vector<uint64_t> record_end;
  {
    obs::MetricsRegistry metrics;
    TableRegistry registry({}, &metrics);
    DurableStore store(&registry, StoreConfig(work.Sub("golden"), &metrics));
    ASSERT_TRUE(store.Recover().ok());
    Rng rng(11);
    std::vector<Table> tables = {MakeNationsTable(), MakeFinanceTable()};
    for (int i = 0; i < 3; ++i) tables.push_back(RandomTable(&rng));
    for (Table& table : tables) {
      encoded.push_back(EncodeTableBytes(table));
      auto put = store.Put(std::move(table));
      ASSERT_TRUE(put.ok());
      fingerprints.push_back(put->fingerprint);
      record_end.push_back(store.wal_bytes());
    }
  }
  const std::string golden_wal = ReadFile(work.Sub("golden") + "/wal.log");
  ASSERT_EQ(golden_wal.size(), record_end.back());

  // Byte-offset sweep. Each cut simulates kill -9 after exactly `cut`
  // bytes reached the file; recovery must serve the longest record prefix.
  for (size_t cut = 0; cut <= golden_wal.size(); ++cut) {
    std::string crash_dir = work.Sub("crash");
    std::error_code ec;
    fs::remove_all(crash_dir, ec);
    fs::create_directories(crash_dir);
    WriteFile(crash_dir + "/wal.log", golden_wal.substr(0, cut));

    obs::MetricsRegistry metrics;
    TableRegistry registry({}, &metrics);
    DurableStore store(&registry, StoreConfig(crash_dir, &metrics));
    ASSERT_TRUE(store.Recover().ok()) << "cut=" << cut;

    size_t acked = 0;
    while (acked < record_end.size() && record_end[acked] <= cut) ++acked;
    ASSERT_EQ(store.recovered_tables(), acked) << "cut=" << cut;
    for (size_t i = 0; i < fingerprints.size(); ++i) {
      if (i < acked) {
        EXPECT_TRUE(store.Contains(fingerprints[i])) << "cut=" << cut;
        EXPECT_EQ(store.GetEncodedBytes(fingerprints[i]).ValueOrDie(),
                  encoded[i])
            << "cut=" << cut;
      } else {
        EXPECT_FALSE(store.Contains(fingerprints[i])) << "cut=" << cut;
        EXPECT_EQ(store.Get(fingerprints[i]), nullptr) << "cut=" << cut;
      }
    }
    // The repaired store accepts new puts (the torn tail is gone).
    ASSERT_TRUE(store.Put(MakeNationsTable()).ok()) << "cut=" << cut;
  }
}

TEST(DurableStoreTest, EvictedDurableTableReloadsFromDisk) {
  TempDir dir;
  obs::MetricsRegistry metrics;
  // A registry small enough that a handful of tables forces LRU eviction
  // (single shard so eviction pressure is deterministic).
  RegistryConfig small;
  small.capacity_bytes = 1;  // every insert evicts the previous resident
  small.num_shards = 1;
  TableRegistry registry(small, &metrics);
  DurableStore store(&registry, StoreConfig(dir.path(), &metrics));
  ASSERT_TRUE(store.Recover().ok());

  std::string first_bytes = EncodeTableBytes(MakeNationsTable());
  auto first = store.Put(MakeNationsTable());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(store.Put(MakeFinanceTable()).ok());  // evicts the first

  EXPECT_EQ(registry.Get(first->fingerprint), nullptr);  // really evicted
  // The durable store turns that hard miss into a disk reload.
  std::shared_ptr<const Table> reloaded = store.Get(first->fingerprint);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(EncodeTableBytes(*reloaded), first_bytes);
  EXPECT_GE(store.evict_reloads(), 1u);
  EXPECT_EQ(metrics.counter("store_evict_reload_total")->value(),
            store.evict_reloads());
}

TEST(DurableStoreTest, CompactionPreservesEveryTableAndShrinksTheWal) {
  TempDir dir;
  std::vector<std::string> fingerprints;
  std::vector<std::string> encoded;
  {
    obs::MetricsRegistry metrics;
    TableRegistry registry({}, &metrics);
    DurableStoreConfig config = StoreConfig(dir.path(), &metrics);
    config.compact_wal_bytes = 1;  // every put after the first compacts
    TableRegistry reg2({}, &metrics);
    DurableStore store(&registry, config);
    ASSERT_TRUE(store.Recover().ok());
    Rng rng(23);
    for (int i = 0; i < 5; ++i) {
      Table table = RandomTable(&rng);
      encoded.push_back(EncodeTableBytes(table));
      auto put = store.Put(std::move(table));
      ASSERT_TRUE(put.ok()) << put.status().ToString();
      fingerprints.push_back(put->fingerprint);
    }
    EXPECT_GE(store.compactions(), 1u);
    EXPECT_TRUE(fs::exists(dir.Sub("snapshot.log")));
    // Everything is still servable from the live store after compaction.
    for (size_t i = 0; i < fingerprints.size(); ++i) {
      EXPECT_EQ(store.GetEncodedBytes(fingerprints[i]).ValueOrDie(),
                encoded[i]);
    }
  }
  // ...and from a recovered one (snapshot + WAL replay).
  obs::MetricsRegistry metrics;
  TableRegistry registry({}, &metrics);
  DurableStore store(&registry, StoreConfig(dir.path(), &metrics));
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.recovered_tables(), fingerprints.size());
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    EXPECT_EQ(store.GetEncodedBytes(fingerprints[i]).ValueOrDie(),
              encoded[i]);
  }
}

TEST(DurableStoreTest, RecoverySkipsCorruptRecordsAndKeepsTheRest) {
  TempDir dir;
  std::string a = EncodeTableBytes(MakeNationsTable());
  std::string b = EncodeTableBytes(MakeFinanceTable());
  std::string wal = Wal::EncodeRecord(a) + Wal::EncodeRecord(b);
  // Corrupt a payload byte of the FIRST record (framing intact).
  wal[Wal::kRecordHeaderBytes + 5] ^= 0x40;
  fs::create_directories(dir.path());
  WriteFile(dir.Sub("wal.log"), wal);

  obs::MetricsRegistry metrics;
  TableRegistry registry({}, &metrics);
  DurableStore store(&registry, StoreConfig(dir.path(), &metrics));
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.recovered_tables(), 1u);
  EXPECT_TRUE(store.Contains(Codec::Fingerprint(b)));
  EXPECT_FALSE(store.Contains(Codec::Fingerprint(a)));
  EXPECT_GE(metrics.counter("store_wal_corrupt_records_total")->value(),
            1u);
}

TEST(DurableStoreTest, RecoverFailsWhenDirIsAFile) {
  TempDir dir;
  WriteFile(dir.Sub("occupied"), "i am a file");
  obs::MetricsRegistry metrics;
  TableRegistry registry({}, &metrics);
  DurableStore store(&registry, StoreConfig(dir.Sub("occupied"), &metrics));
  EXPECT_FALSE(store.Recover().ok());
}

// -------------------------------------------------- serve::Server wiring

const char* kMedalsCsv =
    "nation,gold,silver,bronze,total\n"
    "united states,10,12,8,30\n"
    "china,8,6,10,24\n"
    "japan,5,9,4,18\n";

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

std::string ExtractField(const std::string& response, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t pos = response.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = response.find('"', pos);
  return response.substr(pos, end - pos);
}

const InferenceEngine& SharedEngine() {
  static const InferenceEngine engine = [] {
    EngineConfig config;
    return InferenceEngine::Create(config, "", "").ValueOrDie();
  }();
  return engine;
}

ServerConfig DurableServerConfig(const std::string& dir,
                                 obs::MetricsRegistry* metrics) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  config.metrics = metrics;
  config.store_dir = dir;
  config.store_fsync = FsyncMode::kNever;
  return config;
}

TEST(ServerDurableTest, TableRefSurvivesServerRestartNonDegraded) {
  TempDir dir;
  std::string fingerprint;
  std::string first_answer;
  const std::string query =
      "The gold of the row whose nation is china is 8.";
  {
    obs::MetricsRegistry metrics;
    Server server(&SharedEngine(), DurableServerConfig(dir.path(), &metrics));
    ASSERT_TRUE(server.recovery_status().ok());
    std::string put = server.HandleLine(
        "{\"id\":1,\"op\":\"put_table\",\"table\":\"" +
        JsonEscapeNewlines(kMedalsCsv) + "\"}");
    ASSERT_NE(put.find("\"status\":\"ok\""), std::string::npos) << put;
    fingerprint = ExtractField(put, "fingerprint");
    ASSERT_EQ(fingerprint.size(), 16u);
    first_answer = server.HandleLine(
        "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
        "\",\"query\":\"" + query + "\"}");
    ASSERT_NE(first_answer.find("\"status\":\"ok\""), std::string::npos);
  }  // server restarts (same store dir, fresh registry)

  obs::MetricsRegistry metrics;
  Server server(&SharedEngine(), DurableServerConfig(dir.path(), &metrics));
  ASSERT_TRUE(server.recovery_status().ok());
  EXPECT_GE(server.durable_store()->recovered_tables(), 1u);
  std::string answer = server.HandleLine(
      "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
      "\",\"query\":\"" + query + "\"}");
  // Identical response bytes, served from the recovered registry — not
  // the degraded inline-fallback path (there is no inline table to fall
  // back to) and not an error.
  EXPECT_EQ(answer, first_answer);
  EXPECT_EQ(answer.find("\"degraded\""), std::string::npos) << answer;
  EXPECT_EQ(metrics.counter("degraded_store_fallback_total")->value(), 0u);
}

TEST(ServerDurableTest, GetTableAndPutTableHexRoundTrip) {
  TempDir dir;
  obs::MetricsRegistry metrics;
  Server server(&SharedEngine(), DurableServerConfig(dir.path(), &metrics));
  ASSERT_TRUE(server.recovery_status().ok());
  std::string put = server.HandleLine(
      "{\"id\":1,\"op\":\"put_table\",\"table\":\"" +
      JsonEscapeNewlines(kMedalsCsv) + "\"}");
  std::string fingerprint = ExtractField(put, "fingerprint");
  ASSERT_EQ(fingerprint.size(), 16u);

  // get_table returns the canonical codec bytes as hex.
  std::string got = server.HandleLine(
      "{\"id\":2,\"op\":\"get_table\",\"table_ref\":\"" + fingerprint +
      "\"}");
  ASSERT_NE(got.find("\"status\":\"ok\""), std::string::npos) << got;
  std::string hex = ExtractField(got, "table_hex");
  ASSERT_FALSE(hex.empty());
  std::string bytes = Codec::FromHex(hex).ValueOrDie();
  EXPECT_EQ(Codec::Fingerprint(bytes), fingerprint);

  // A second server (fresh, memory-only) accepts those bytes via
  // put_table table_hex and registers the same fingerprint — the router's
  // read-repair delivery path.
  ServerConfig memory_only;
  memory_only.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics2;
  memory_only.metrics = &metrics2;
  Server sibling(&SharedEngine(), memory_only);
  std::string repaired = sibling.HandleLine(
      "{\"id\":3,\"op\":\"put_table\",\"table_hex\":\"" + hex + "\"}");
  ASSERT_NE(repaired.find("\"status\":\"ok\""), std::string::npos)
      << repaired;
  EXPECT_EQ(ExtractField(repaired, "fingerprint"), fingerprint);
  std::string answer = sibling.HandleLine(
      "{\"id\":4,\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
      "\",\"query\":\"The gold of the row whose nation is china is 8.\"}");
  EXPECT_NE(answer.find("\"status\":\"ok\""), std::string::npos) << answer;

  // get_table for an unknown ref is a clean error, not a crash.
  std::string missing = server.HandleLine(
      "{\"id\":5,\"op\":\"get_table\",\"table_ref\":\"0000000000000000\"}");
  EXPECT_NE(missing.find("\"status\":\"error\""), std::string::npos);
  // put_table with bad hex is rejected without touching the WAL.
  std::string bad = server.HandleLine(
      "{\"id\":6,\"op\":\"put_table\",\"table_hex\":\"zz\"}");
  EXPECT_NE(bad.find("\"status\":\"error\""), std::string::npos);
}

TEST(ServerDurableTest, PutTableHexWithRowsButNoColumnsIsNotLogged) {
  // A frame that decodes must never reach the WAL unless it can replay
  // as a real table: this one would re-allocate 20M empty rows on every
  // restart.
  TempDir dir;
  obs::MetricsRegistry metrics;
  Server server(&SharedEngine(), DurableServerConfig(dir.path(), &metrics));
  ASSERT_TRUE(server.recovery_status().ok());
  const std::string hex =
      Codec::ToHex(testing::ZeroColumnFrame(20'000'000));
  std::string put = server.HandleLine(
      "{\"id\":1,\"op\":\"put_table\",\"table_hex\":\"" + hex + "\"}");
  EXPECT_NE(put.find("\"status\":\"error\""), std::string::npos) << put;
  EXPECT_EQ(server.durable_store()->durable_tables(), 0u);
  EXPECT_EQ(metrics.counter("store_wal_appends_total")->value(), 0u);
  EXPECT_EQ(server.registry()->table_count(), 0u);
}

TEST(ServerDurableTest, RecoveryFailureIsSurfacedNotSwallowed) {
  TempDir dir;
  WriteFile(dir.Sub("blocked"), "file in the way");
  obs::MetricsRegistry metrics;
  Server server(&SharedEngine(),
                DurableServerConfig(dir.Sub("blocked"), &metrics));
  EXPECT_FALSE(server.recovery_status().ok());
}

}  // namespace
}  // namespace uctr::store
