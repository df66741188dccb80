#include "store/registry.h"

#include <algorithm>
#include <utility>

namespace uctr::store {

namespace {

/// Shard selection from the low hex digits of the fingerprint. The
/// fingerprint is already a 64-bit hash, so any slice of it is uniform.
size_t LowBits(std::string_view fingerprint) {
  size_t h = 0;
  size_t start = fingerprint.size() >= 8 ? fingerprint.size() - 8 : 0;
  for (size_t i = start; i < fingerprint.size(); ++i) {
    char c = fingerprint[i];
    h = h * 16 + static_cast<size_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return h;
}

}  // namespace

TableRegistry::TableRegistry(RegistryConfig config,
                             obs::MetricsRegistry* metrics)
    : config_(config) {
  config_.num_shards = std::max<size_t>(1, config_.num_shards);
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  obs::MetricsRegistry& reg = metrics ? *metrics : obs::DefaultRegistry();
  puts_ = reg.counter("store_puts_total");
  hits_ = reg.counter("store_hits_total");
  misses_ = reg.counter("store_misses_total");
  evictions_ = reg.counter("store_evictions_total");
}

TableRegistry::Shard& TableRegistry::ShardFor(std::string_view fingerprint) {
  return *shards_[LowBits(fingerprint) % shards_.size()];
}

EncodedTable TableRegistry::EncodeTable(const Table& table) {
  EncodedTable out;
  out.bytes = Codec::Encode(table);
  out.fingerprint = Codec::Fingerprint(out.bytes);
  out.approx_bytes = out.bytes.size();
  return out;
}

Result<Table> TableRegistry::DecodeTable(std::string_view bytes,
                                         EncodedTable* encoded) {
  Result<Table> table = Codec::Decode(bytes);
  if (!table.ok()) return table;
  encoded->bytes.assign(bytes.data(), bytes.size());
  encoded->fingerprint = Codec::Fingerprint(bytes);
  encoded->approx_bytes = bytes.size();
  return table;
}

Result<PutResult> TableRegistry::Put(Table table) {
  EncodedTable encoded = EncodeTable(table);
  return PutPreEncoded(std::move(table), encoded);
}

Result<PutResult> TableRegistry::PutEncodedBytes(std::string_view bytes) {
  EncodedTable encoded;
  Result<Table> table = DecodeTable(bytes, &encoded);
  if (!table.ok()) return table.status();
  return PutPreEncoded(std::move(*table), encoded);
}

Result<PutResult> TableRegistry::PutPreEncoded(Table table,
                                               const EncodedTable& encoded) {
  puts_->Increment();

  PutResult result;
  result.fingerprint = encoded.fingerprint;
  result.bytes = encoded.approx_bytes;

  Shard& shard = ShardFor(result.fingerprint);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_fp.find(result.fingerprint);
    if (it != shard.by_fp.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      result.bytes = it->second->bytes;
      result.inserted = false;
      return result;
    }
  }

  // Warm outside the shard lock: index builds on a large table are the
  // expensive part of Put and must not block readers of other entries.
  table.WarmIndex();
  auto stored = std::make_shared<const Table>(std::move(table));

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_fp.find(result.fingerprint);
  if (it != shard.by_fp.end()) {
    // Concurrent Put of the same content won the race; keep theirs.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    result.bytes = it->second->bytes;
    result.inserted = false;
    return result;
  }
  shard.lru.push_front(
      Entry{result.fingerprint, std::move(stored), result.bytes});
  shard.by_fp.emplace(result.fingerprint, shard.lru.begin());
  shard.bytes += result.bytes;
  result.inserted = true;

  // Byte-budget eviction from the cold end. The entry just inserted is
  // at the hot end and is never evicted, so an oversized table is
  // admitted alone rather than bounced.
  const size_t shard_budget =
      std::max<size_t>(1, config_.capacity_bytes / shards_.size());
  while (shard.bytes > shard_budget && shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    shard.bytes -= std::min(shard.bytes, victim.bytes);
    shard.by_fp.erase(victim.fingerprint);
    shard.lru.pop_back();  // borrowers' shared_ptr keeps the table alive
    evictions_->Increment();
  }
  return result;
}

std::shared_ptr<const Table> TableRegistry::Get(std::string_view fingerprint) {
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_fp.find(std::string(fingerprint));
  if (it == shard.by_fp.end()) {
    misses_->Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->Increment();
  return it->second->table;
}

size_t TableRegistry::table_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->by_fp.size();
  }
  return n;
}

size_t TableRegistry::bytes() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->bytes;
  }
  return n;
}

}  // namespace uctr::store
