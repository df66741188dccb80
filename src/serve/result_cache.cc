#include "serve/result_cache.h"

#include <algorithm>
#include <cctype>

#include "common/hash.h"

namespace uctr::serve {

size_t ResultCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      Fnv1a64(k.query, kContentHashSeed ^ k.table_fp));
}

ResultCache::ResultCache(size_t capacity, size_t num_shards,
                         MetricsRegistry* metrics) {
  capacity = std::max<size_t>(capacity, 1);
  num_shards = std::max<size_t>(num_shards, 1);
  num_shards = std::min(num_shards, capacity);
  shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (metrics != nullptr) {
    hits_ = metrics->counter("cache_hits_total");
    misses_ = metrics->counter("cache_misses_total");
    evictions_ = metrics->counter("cache_evictions_total");
  }
}

size_t ResultCache::ShardIndex(uint64_t table_fp,
                               const std::string& query) const {
  Key key{table_fp, query};
  return KeyHash{}(key) % shards_.size();
}

std::optional<std::string> ResultCache::Get(uint64_t table_fp,
                                            const std::string& query) {
  Key key{table_fp, query};
  Shard& shard = *shards_[KeyHash{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (misses_ != nullptr) misses_->Increment();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (hits_ != nullptr) hits_->Increment();
  return it->second->second;
}

void ResultCache::Put(uint64_t table_fp, const std::string& query,
                      std::string value) {
  Key key{table_fp, query};
  Shard& shard = *shards_[KeyHash{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    if (evictions_ != nullptr) evictions_->Increment();
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(std::move(key), shard.lru.begin());
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

uint64_t ResultCache::FingerprintTable(const Table& table) {
  return Fnv1a64(table.ToCsv(), Fnv1a64(table.name(), kContentHashSeed));
}

uint64_t ResultCache::FingerprintCsv(std::string_view csv) {
  return Fnv1a64(csv, Fnv1a64("table", kContentHashSeed));
}

uint64_t ResultCache::FingerprintRef(std::string_view table_ref) {
  return Fnv1a64(table_ref, Fnv1a64("table_ref", kContentHashSeed));
}

std::string ResultCache::NormalizeQuery(std::string_view query) {
  std::string out;
  out.reserve(query.size());
  bool pending_space = false;
  for (char c : query) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  while (!out.empty() && (out.back() == '.' || out.back() == '?' ||
                          out.back() == '!' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

}  // namespace uctr::serve
