#ifndef UCTR_SERVE_RESULT_CACHE_H_
#define UCTR_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "table/table.h"

namespace uctr::serve {

using obs::Counter;
using obs::MetricsRegistry;

/// \brief Sharded LRU cache of serialized responses, keyed by
/// (table fingerprint, normalized query). Repeated claims/questions over
/// the same table skip program interpretation entirely.
///
/// Sharding: a key hashes to one of `num_shards` independent LRU lists,
/// each guarded by its own mutex, so concurrent workers rarely contend.
/// Capacity is split evenly across shards and eviction is LRU per shard.
class ResultCache {
 public:
  /// \param capacity total entry budget (>=1), split across shards.
  /// \param num_shards power-of-two recommended; clamped to >= 1.
  /// \param metrics optional; when set, `cache_hits_total`,
  ///        `cache_misses_total`, and `cache_evictions_total` are recorded.
  explicit ResultCache(size_t capacity, size_t num_shards = 8,
                       MetricsRegistry* metrics = nullptr);

  /// \brief Looks up a response and marks the entry most-recently used.
  std::optional<std::string> Get(uint64_t table_fp, const std::string& query);

  /// \brief Inserts or refreshes a response, evicting the shard's LRU
  /// entry when the shard is at capacity.
  void Put(uint64_t table_fp, const std::string& query, std::string value);

  /// \brief Total entries across all shards (approximate under concurrency).
  size_t size() const;

  size_t num_shards() const { return shards_.size(); }
  size_t shard_capacity() const { return shard_capacity_; }

  /// \brief Which shard a key maps to (exposed for tests).
  size_t ShardIndex(uint64_t table_fp, const std::string& query) const;

  /// \brief 64-bit FNV-1a fingerprint of a table's content (CSV form plus
  /// name) — the cache identity of the evidence.
  static uint64_t FingerprintTable(const Table& table);

  /// \brief Fingerprint of raw CSV text, for callers that have not parsed
  /// the table yet (the server's hot path).
  static uint64_t FingerprintCsv(std::string_view csv);

  /// \brief Fingerprint of a registered table by its `table_ref`. Seeded
  /// apart from FingerprintCsv, so an inline table whose CSV text spells
  /// a ref never shares that ref's entries.
  static uint64_t FingerprintRef(std::string_view table_ref);

  /// \brief Canonical query form: lowercased, whitespace collapsed,
  /// trailing sentence punctuation dropped. "  The Total  IS 30. " and
  /// "the total is 30" hit the same entry.
  static std::string NormalizeQuery(std::string_view query);

 private:
  struct Key {
    uint64_t table_fp;
    std::string query;
    bool operator==(const Key& o) const {
      return table_fp == o.table_fp && query == o.query;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<std::pair<Key, std::string>> lru;
    std::unordered_map<Key, std::list<std::pair<Key, std::string>>::iterator,
                       KeyHash>
        index;
  };

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Counter* evictions_ = nullptr;
};

}  // namespace uctr::serve

#endif  // UCTR_SERVE_RESULT_CACHE_H_
