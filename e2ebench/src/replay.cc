#include "replay.h"

#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "common/file_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "gen/generator.h"
#include "ir/plan_cache.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "net/frame.h"
#include "nlgen/nl_generator.h"
#include "obs/metrics.h"
#include "program/library.h"
#include "serve/engine.h"
#include "serve/result_cache.h"
#include "spans.h"
#include "store/durable_registry.h"
#include "store/registry.h"

namespace e2e {

namespace {

namespace fs = std::filesystem;
namespace json = uctr::json;
using uctr::Table;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Mean duration of the spans called `name` (optionally only those of the
/// requests in `requests`), per span.
double MeanSpan(const SpanLog& log, const std::string& name) {
  double sum = 0;
  size_t n = 0;
  for (const SpanRecord& s : log.spans()) {
    if (s.name == name) {
      sum += s.micros();
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

double SumSpan(const SpanLog& log, const std::string& name) {
  double sum = 0;
  for (const SpanRecord& s : log.spans()) {
    if (s.name == name) sum += s.micros();
  }
  return sum;
}

/// Tables the replayed ops touch, in first-use order.
std::vector<uint32_t> UsedTables(const ReplayInput& in, size_t cap) {
  std::vector<uint32_t> out;
  std::set<uint32_t> seen;
  for (const Op& op : in.ops) {
    if (out.size() >= cap) break;
    if (seen.insert(op.table).second) out.push_back(op.table);
  }
  return out;
}

// ------------------------------------------------------ store and tables

void ReplayStore(const ReplayInput& in, SpanLog* log, uint64_t* rid,
                 Report* report) {
  const auto& tables = *in.tables;
  std::vector<uint32_t> used = UsedTables(in, 64);
  std::string dir = in.work_dir + "/store";
  fs::create_directories(dir);
  uctr::obs::MetricsRegistry scratch;
  {
    uctr::store::TableRegistry registry({}, &scratch);
    uctr::store::DurableStoreConfig config;  // shipped default fsync mode
    config.dir = dir;
    config.metrics = &scratch;
    uctr::store::DurableStore durable(&registry, config);
    if (!durable.Recover().ok()) {
      report->Fail("replay: cannot open an in-process store");
      return;
    }
    for (uint32_t t : used) {
      const std::string& csv = tables[t].csv;
      SpanLog::Scope request(log, "store.request", ++*rid);
      uctr::Result<Table> parsed = uctr::Status::Internal("unparsed");
      {
        SpanLog::Scope s(log, "table.parse", *rid);
        parsed = Table::FromCsv(csv);
      }
      if (!parsed.ok()) continue;
      {
        SpanLog::Scope s(log, "table.warm", *rid);
        parsed->WarmIndex();
      }
      {
        SpanLog::Scope s(log, "store.codec", *rid);
        auto encoded = uctr::store::TableRegistry::EncodeTable(*parsed);
        if (encoded.fingerprint != tables[t].fingerprint) {
          report->Fail("replay: codec fingerprint differs from the input's");
        }
      }
      auto fresh = Table::FromCsv(csv);
      {
        SpanLog::Scope s(log, "store.put", *rid);
        if (!durable.Put(std::move(*fresh)).ok()) {
          report->Fail("replay: DurableStore::Put failed");
        }
      }
      {
        SpanLog::Scope s(log, "store.get", *rid);
        if (durable.Get(tables[t].fingerprint) == nullptr) {
          report->Fail("replay: DurableStore::Get missed a put table");
        }
      }
    }
  }
  // Recovery of a stopped backend's directory when the workload has one,
  // else of the directory just written.
  std::string recover_dir = in.recover_dir.empty() ? dir : in.recover_dir;
  uctr::store::TableRegistry registry({}, &scratch);
  uctr::store::DurableStoreConfig config;
  config.dir = recover_dir;
  config.metrics = &scratch;
  uctr::store::DurableStore durable(&registry, config);
  uctr::Status recovered;
  {
    SpanLog::Scope s(log, "store.recover", ++*rid);
    recovered = durable.Recover();
  }
  if (!recovered.ok()) report->Fail("replay: Recover: " + recovered.ToString());
  report->Note("store.recover_us: DurableStore::Recover of " +
               std::to_string(durable.recovered_tables()) + " tables from " +
               (in.recover_dir.empty() ? "the replay's own store"
                                       : "a stopped backend's store"));
  report->Add("table.parse_us", MeanSpan(*log, "table.parse"), "us", true);
  report->Add("table.warm_us", MeanSpan(*log, "table.warm"), "us", true);
  report->Add("store.codec_us", MeanSpan(*log, "store.codec"), "us", true);
  report->Add("store.put_us", MeanSpan(*log, "store.put"), "us", true);
  report->Add("store.get_us", MeanSpan(*log, "store.get"), "us", true);
  report->Add("store.recover_us", MeanSpan(*log, "store.recover"), "us", true);
}

// ---------------------------------------------------- serving pipeline

/// One pass of the serving pipeline over `in.ops`, assembled from public
/// calls in the order the server makes them: frame codec, JSON parse,
/// table resolution, result-cache probe, inference, cache fill. Returns
/// the pass's wall time in microseconds.
double PipelinePass(const ReplayInput& in,
                    const uctr::serve::InferenceEngine& engine, SpanLog* log,
                    uint64_t* rid, Report* report) {
  const auto& tables = *in.tables;
  uctr::obs::MetricsRegistry scratch;
  uctr::serve::ResultCache cache(4096, 8, &scratch);
  uctr::store::TableRegistry registry({}, &scratch);
  uctr::ir::PlanCache plans(1024, 8, &scratch);
  uctr::ExecOptions exec;
  exec.plan_cache = &plans;
  if (in.by_ref) {
    for (uint32_t t : UsedTables(in, SIZE_MAX)) {
      bool put_in_stream = false;
      for (const Op& op : in.ops) put_in_stream |= op.put && op.table == t;
      if (!put_in_stream) (void)registry.Put(tables[t].table);
    }
  }
  auto start = Clock::now();
  size_t bad = 0;
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const BenchTable& bt = tables[op.table];
    SpanLog::Scope request(log, "serve.request", ++*rid);
    std::string payload = "{\"id\":" + std::to_string(i + 1) + ",";
    payload += op.put ? "\"op\":\"put_table\",\"table\":" +
                            json::Quote(bt.csv) + "}"
                      : RequestBody(bt.queries[op.query], bt, in.by_ref);
    std::string decoded;
    {
      SpanLog::Scope s(log, "net.frame_codec", *rid);
      auto frame = uctr::net::EncodeFrame(payload);
      uctr::net::FrameDecoder decoder;
      if (!frame.ok() || !decoder.Feed(*frame).ok() ||
          !decoder.Next(&decoded)) {
        ++bad;
        continue;
      }
    }
    uctr::Result<json::Value> parsed = uctr::Status::Internal("unparsed");
    {
      SpanLog::Scope s(log, "serve.json_parse", *rid);
      parsed = json::Parse(decoded);
    }
    if (!parsed.ok() || !parsed->is_object()) {
      ++bad;
      continue;
    }
    const auto& obj = parsed->as_object();
    std::string kind = json::GetStringOr(obj, "op", "");
    if (op.put) {
      uctr::Result<Table> table = uctr::Status::Internal("unparsed");
      {
        SpanLog::Scope s(log, "table.parse", *rid);
        table = Table::FromCsv(json::GetStringOr(obj, "table", ""));
      }
      if (!table.ok()) {
        ++bad;
        continue;
      }
      uctr::Result<uctr::store::PutResult> put = uctr::Status::Internal("");
      {
        SpanLog::Scope s(log, "store.put", *rid);
        put = registry.Put(std::move(*table));
      }
      if (!put.ok()) ++bad;
      continue;
    }
    std::string query = json::GetStringOr(obj, "query", "");
    std::string ref = json::GetStringOr(obj, "table_ref", "");
    std::string csv = json::GetStringOr(obj, "table", "");
    std::shared_ptr<const Table> shared;
    if (!ref.empty()) {
      SpanLog::Scope s(log, "store.get", *rid);
      shared = registry.Get(ref);
    }
    if (!ref.empty() && shared == nullptr) {
      ++bad;
      continue;
    }
    uint64_t fp =
        uctr::serve::ResultCache::FingerprintCsv(ref.empty() ? csv : ref);
    std::string key =
        kind + "\x1f" + uctr::serve::ResultCache::NormalizeQuery(query);
    std::optional<std::string> hit;
    {
      SpanLog::Scope s(log, "serve.cache_get", *rid);
      hit = cache.Get(fp, key);
    }
    std::string answer;
    if (hit.has_value()) {
      answer = *hit;
    } else {
      bool verify = kind == "verify";
      const char* predict =
          verify ? "model.predict_verify" : "model.predict_answer";
      if (shared != nullptr) {
        SpanLog::Scope s(log, predict, *rid);
        answer = verify ? engine.Verify(*shared, query, {}, exec)
                        : engine.Answer(*shared, query, {}, exec);
      } else {
        uctr::Result<Table> table = uctr::Status::Internal("unparsed");
        {
          SpanLog::Scope s(log, "table.parse", *rid);
          table = Table::FromCsv(csv);
        }
        if (!table.ok()) {
          ++bad;
          continue;
        }
        {
          SpanLog::Scope s(log, "table.warm", *rid);
          table->WarmIndex();
        }
        SpanLog::Scope s(log, predict, *rid);
        answer = verify ? engine.Verify(std::move(*table), query, {}, exec)
                        : engine.Answer(std::move(*table), query, {}, exec);
      }
      SpanLog::Scope s(log, "serve.cache_put", *rid);
      cache.Put(fp, key, answer);
    }
  }
  if (bad > 0) {
    report->Fail("replay: " + std::to_string(bad) +
                 " requests failed in-process");
  }
  return MicrosBetween(start, Clock::now());
}

// ------------------------------------------------------ model breakdown

/// Re-runs the inference of up to `limit` distinct cache-miss requests and
/// splits Predict into linking/binding, feature extraction, program
/// execution, re-realization and the unattributed remainder.
void ReplayModel(const ReplayInput& in,
                 const uctr::serve::InferenceEngine& engine, size_t limit,
                 SpanLog* log, uint64_t* rid, Report* report) {
  const auto& tables = *in.tables;
  uctr::model::NlInterpreter fv_interp(
      uctr::serve::InferenceEngine::VerifierTemplates());
  uctr::model::NlInterpreter qa_interp(
      uctr::serve::InferenceEngine::QaTemplates());
  uctr::model::FeatureExtractor fv_features(
      uctr::model::VerifierConfig{}.features, &fv_interp);
  uctr::model::FeatureExtractor qa_features(uctr::model::QaConfig{}.features,
                                            nullptr);
  uctr::nlgen::NlGeneratorConfig canonical_config;
  canonical_config.stochastic = false;
  uctr::nlgen::NlGenerator canonical(canonical_config);
  uctr::obs::MetricsRegistry scratch;
  uctr::ir::PlanCache plans(1024, 8, &scratch);
  uctr::ExecOptions exec;
  exec.plan_cache = &plans;

  std::set<std::pair<uint32_t, uint32_t>> seen;
  std::vector<uint64_t> verify_ids, answer_ids;
  std::map<std::string, std::vector<double>> exec_by_type;
  double candidates = 0;
  for (const Op& op : in.ops) {
    if (op.put || !seen.insert({op.table, op.query}).second) continue;
    if (seen.size() > limit) break;
    const Table& table = tables[op.table].table;
    const Query& q = tables[op.table].queries[op.query];
    uint64_t id = ++*rid;
    (q.verify ? verify_ids : answer_ids).push_back(id);
    SpanLog::Scope request(log, "model.request", id);
    uctr::Sample sample;
    sample.task = q.verify ? uctr::TaskType::kFactVerification
                           : uctr::TaskType::kQuestionAnswering;
    sample.shared_table = &table;
    sample.sentence = q.text;
    sample.exec = exec;
    {
      SpanLog::Scope s(log, "model.predict", id);
      std::string answer = q.verify ? engine.Verify(table, q.text, {}, exec)
                                    : engine.Answer(table, q.text, {}, exec);
    }
    {
      SpanLog::Scope s(log, "model.extract", id);
      (q.verify ? fv_features : qa_features).Extract(sample);
    }
    std::vector<uctr::model::Interpretation> ranked;
    {
      SpanLog::Scope s(log, "model.rank_all", id);
      ranked = (q.verify ? fv_interp : qa_interp)
                   .RankAll(q.text, table, sample.task, exec);
    }
    candidates += ranked.size();
    for (const auto& c : ranked) {
      {
        SpanLog::Scope s(log, "ir.execute", id);
        (void)c.program.Execute(table, exec);
      }
      SpanLog::Scope s(log, "model.realize", id);
      (void)canonical.GenerateCanonical(c.program);
    }
    // The generator's own program, by type, with default options.
    const char* type = q.program.type == uctr::ProgramType::kSql ? "exec.sql"
                       : q.program.type == uctr::ProgramType::kLogicalForm
                           ? "exec.logic"
                           : "exec.arith";
    auto t0 = Clock::now();
    {
      SpanLog::Scope s(log, type, id);
      (void)q.program.Execute(table);
    }
    exec_by_type[type].push_back(MicrosBetween(t0, Clock::now()));
  }

  // Per-request decomposition, computed from the spans.
  size_t n = verify_ids.size() + answer_ids.size();
  std::vector<double> predict_v, predict_a;
  double bind = 0, features = 0, execute = 0, realize = 0, remainder = 0,
         rank = 0, predict = 0;
  for (const auto* ids : {&verify_ids, &answer_ids}) {
    for (uint64_t id : *ids) {
      auto m = log->RequestMicros(id);
      double b = m["model.rank_all"] - m["ir.execute"] - m["model.realize"];
      double f = m["model.extract"] -
                 (ids == &verify_ids ? m["model.rank_all"] : 0);
      bind += b;
      features += f;
      execute += m["ir.execute"];
      realize += m["model.realize"];
      rank += m["model.rank_all"];
      predict += m["model.predict"];
      remainder += m["model.predict"] - b - f - m["ir.execute"] -
                   m["model.realize"];
      (ids == &verify_ids ? predict_v : predict_a)
          .push_back(m["model.predict"]);
    }
  }
  double div = std::max<size_t>(n, 1);
  report->Add("model.predict_verify_us", Mean(predict_v), "us", true);
  report->Add("model.predict_answer_us", Mean(predict_a), "us", true);
  report->Add("model.rank_all_us", rank / div, "us", true);
  report->Add("model.bind_us", bind / div, "us", true);
  report->Add("model.features_us", features / div, "us", true);
  report->Add("model.realize_us", realize / div, "us", true);
  report->Add("ir.execute_us", execute / div, "us", true);
  report->Add("model.remainder_us", remainder / div, "us", true);
  report->Add("model.candidates_per_request", candidates / div, "count", true);
  for (const char* type : {"exec.sql", "exec.logic", "exec.arith"}) {
    report->Add(std::string(type) + "_us", Mean(exec_by_type[type]), "us",
                true);
  }
  char line[320];
  std::snprintf(line, sizeof(line),
                "Predict breakdown over %zu distinct requests (us/request): "
                "bind %.1f + features %.1f + execute %.1f + realize %.1f + "
                "remainder %.1f = predict %.1f",
                n, bind / div, features / div, execute / div, realize / div,
                remainder / div, predict / div);
  report->Note(line);
}

// ---------------------------------------------- generation and training

void ReplayGeneration(const ReplayInput& in, SpanLog* log, uint64_t* rid,
                      Report* report) {
  const auto& tables = *in.tables;
  static const uctr::TemplateLibrary library = uctr::TemplateLibrary::Builtin();
  uctr::obs::Counter* attempts =
      uctr::obs::DefaultRegistry().counter("gen_attempts_total");
  uctr::obs::Counter* emitted =
      uctr::obs::DefaultRegistry().counter("gen_samples_total");
  uint64_t attempts0 = attempts->value(), emitted0 = emitted->value();
  uctr::Rng rng(0xbe7c4);
  uctr::GenerationConfig config;
  config.task = uctr::TaskType::kFactVerification;
  config.program_types = {uctr::ProgramType::kLogicalForm};
  config.samples_per_table = 16;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  uctr::Generator generator(config, &library, &rng);
  uctr::Dataset dataset;
  size_t rows = 0;
  for (uint32_t t : UsedTables(in, 32)) {
    if (rows >= 8000) break;
    rows += tables[t].table.num_rows();
    SpanLog::Scope s(log, "gen.table", ++*rid);
    std::vector<uctr::Sample> samples =
        generator.GenerateFromTable(uctr::TableWithText{tables[t].table, {}});
    for (uctr::Sample& sample : samples) {
      dataset.samples.push_back(std::move(sample));
    }
  }
  double generated = static_cast<double>(emitted->value() - emitted0);
  double tried = static_cast<double>(attempts->value() - attempts0);
  report->Add("gen.sample_us", Ratio(SumSpan(*log, "gen.table"), generated),
              "us", true);
  report->Add("gen.keep_ratio", Ratio(generated, tried), "ratio", true);
  report->Add("gen.attempts", tried, "count", true);

  uctr::nlgen::NlGenerator realizer;
  for (const uctr::Sample& sample : dataset.samples) {
    SpanLog::Scope s(log, "nlgen.realize", ++*rid);
    (void)realizer.Generate(sample.program, &rng);
  }
  report->Add("nlgen.realize_us", MeanSpan(*log, "nlgen.realize"), "us", true);

  uctr::model::VerifierModel model(
      uctr::model::VerifierConfig{},
      uctr::serve::InferenceEngine::VerifierTemplates());
  {
    SpanLog::Scope s(log, "model.train", ++*rid);
    model.Train(dataset, &rng);
  }
  report->Add("model.train_us_per_sample",
              Ratio(SumSpan(*log, "model.train"), dataset.size()), "us", true);

  // The trained weights written as uctr_selftrain writes every phase
  // artifact, checkpoint and manifest: through WriteFileAtomic.
  std::string weights = model.SaveWeights();
  for (int i = 0; i < 8; ++i) {
    SpanLog::Scope s(log, "file.write_atomic", ++*rid);
    if (!uctr::WriteFileAtomic(in.work_dir + "/weights.txt", weights).ok()) {
      report->Fail("replay: WriteFileAtomic failed");
      break;
    }
  }
  report->Add("file.write_atomic_us", MeanSpan(*log, "file.write_atomic"),
              "us", true);
  report->Note("generation replay: " + std::to_string(dataset.size()) +
               " samples kept of " +
               std::to_string(static_cast<uint64_t>(tried)) +
               " attempts over " + std::to_string(rows) + " rows");
}

}  // namespace

void RunReplay(const ReplayInput& in, Report* report) {
  auto engine = uctr::serve::InferenceEngine::Create(
      uctr::serve::EngineConfig{}, in.verifier_weights, in.qa_weights);
  if (!engine.ok()) {
    report->Fail("replay engine: " + engine.status().ToString());
    return;
  }
  SpanLog log(true);
  uint64_t rid = 0;
  ReplayStore(in, &log, &rid, report);

  // The same pipeline pass untraced, then traced: the difference is what
  // recording the spans costs. A first untraced pass warms the process.
  SpanLog off(false);
  uint64_t off_rid = 0;
  PipelinePass(in, *engine, &off, &off_rid, report);
  double untraced = PipelinePass(in, *engine, &off, &off_rid, report);
  size_t first_pipeline_span = log.spans().size();
  double traced = PipelinePass(in, *engine, &log, &rid, report);
  double n = std::max<size_t>(in.ops.size(), 1);
  report->Add("trace.replay_untraced_us", untraced / n, "us", true);
  report->Add("trace.replay_traced_us", traced / n, "us", true);
  report->Add("trace.overhead_ratio", traced / untraced - 1.0, "ratio", true);

  // Per-layer self time of the traced pipeline pass, from the spans.
  std::vector<double> self = log.SelfMicros();
  std::map<std::string, double> by_layer;
  std::map<std::string, std::pair<double, size_t>> by_name;
  for (size_t i = first_pipeline_span; i < log.spans().size(); ++i) {
    const std::string& name = log.spans()[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
    by_name[name].first += log.spans()[i].micros();
    by_name[name].second += 1;
  }
  std::string layers = "pipeline self time per request by layer (us):";
  char buf[64];
  for (const auto& [layer, us] : by_layer) {
    std::snprintf(buf, sizeof(buf), " %s %.1f", layer.c_str(), us / n);
    layers += buf;
  }
  report->Note(layers);
  auto per_request = [&](const char* name) { return by_name[name].first / n; };
  report->Add("net.frame_codec_us", per_request("net.frame_codec"), "us", true);
  report->Add("serve.json_parse_us", per_request("serve.json_parse"), "us",
              true);
  report->Add("serve.cache_probe_us",
              per_request("serve.cache_get") + per_request("serve.cache_put"),
              "us", true);

  ReplayModel(in, *engine, in.ops.size(), &log, &rid, report);
  ReplayGeneration(in, &log, &rid, report);

  uctr::Status written = log.WriteLdjson(in.spans_path);
  if (!written.ok()) {
    report->Fail(written.ToString());
  } else {
    report->Note("spans: " + std::to_string(log.spans().size()) +
                 " written to " + in.spans_path);
  }
}

}  // namespace e2e
