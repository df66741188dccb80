#include "ir/plan_cache.h"

#include "common/hash.h"

namespace uctr::ir {

PlanCache::PlanCache(size_t capacity, size_t num_shards,
                     obs::MetricsRegistry* metrics) {
  if (capacity < 1) capacity = 1;
  if (num_shards < 1) num_shards = 1;
  if (num_shards > capacity) num_shards = capacity;
  shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (metrics != nullptr) {
    hits_ = metrics->counter("plan_cache_hits_total");
    misses_ = metrics->counter("plan_cache_misses_total");
    evictions_ = metrics->counter("plan_cache_evictions_total");
    compiles_ = metrics->counter("plan_compiles_total");
  }
}

size_t PlanCache::KeyHash::operator()(const Key& k) const {
  // Both fingerprints are already FNV hashes; the mix decorrelates shard
  // selection.
  return static_cast<size_t>(
      Mix64(k.program_fp ^ (k.schema_fp * 0x9E3779B97F4A7C15ULL)));
}

size_t PlanCache::ShardIndex(const Key& key) const {
  return KeyHash{}(key) % shards_.size();
}

std::optional<std::shared_ptr<const Plan>> PlanCache::Get(uint64_t program_fp,
                                                          uint64_t schema_fp) {
  Key key{program_fp, schema_fp};
  Shard& shard = *shards_[ShardIndex(key)];
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

void PlanCache::Put(uint64_t program_fp, uint64_t schema_fp,
                    std::shared_ptr<const Plan> plan) {
  Key key{program_fp, schema_fp};
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    if (evictions_ != nullptr) evictions_->Increment();
  }
  shard.lru.emplace_front(key, std::move(plan));
  shard.index[key] = shard.lru.begin();
}

void PlanCache::NoteCompile() {
  if (compiles_ != nullptr) compiles_->Increment();
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

PlanCache& PlanCache::Default() {
  static PlanCache* cache =
      new PlanCache(1024, 8, &obs::DefaultRegistry());
  return *cache;
}

}  // namespace uctr::ir
