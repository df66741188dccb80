#include "selftrain/selftrain.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "datasets/benchmark.h"
#include "datasets/corpus.h"
#include "eval/model_eval.h"
#include "fault/fault.h"
#include "fault/policy.h"
#include "gen/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "program/library.h"

namespace uctr::selftrain {

namespace {

// ------------------------------------------------------------- utilities

/// splitmix64-style derivation: one run seed fans out into independent
/// per-round streams (corpus, generation, training) and the eval stream,
/// so no phase's randomness aliases another's.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return Mix64(seed + 0x9E3779B97F4A7C15ull * (salt + 1));
}

uint64_t CorpusSeed(uint64_t seed, size_t round) {
  return DeriveSeed(seed, 2 * round);
}
uint64_t GenSeed(uint64_t seed, size_t round) {
  return DeriveSeed(seed, 2 * round + 1);
}
uint64_t TrainSeed(uint64_t seed, size_t round) {
  return DeriveSeed(seed, 1000 + round);
}
uint64_t EvalSeed(uint64_t seed) { return DeriveSeed(seed, 424242); }

std::string FormatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Result<double> ParseDoubleStrict(const std::string& text) {
  if (text.empty()) return Status::ParseError("empty float field");
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return Status::ParseError("malformed float '" + text + "'");
  }
  return value;
}

Result<uint64_t> ParseU64Strict(const std::string& text) {
  if (text.empty()) return Status::ParseError("empty integer field");
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::ParseError("malformed integer '" + text + "'");
    }
  }
  errno = 0;
  uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return Status::ParseError("integer overflow");
  return value;
}

// --------------------------------------------------- derived generation

GenerationConfig CandidateGenConfig(const SelfTrainConfig& cfg) {
  GenerationConfig g;
  g.task = cfg.task;
  g.program_types = cfg.task == TaskType::kFactVerification
                        ? std::vector<ProgramType>{ProgramType::kLogicalForm}
                        : std::vector<ProgramType>{ProgramType::kSql};
  g.samples_per_table = cfg.samples_per_table;
  return g;
}

/// The held-out split plays the role of gold data: human NL profile and
/// lexicon over topics candidate generation never touches, so per-round
/// deltas measure transfer rather than memorization.
GenerationConfig EvalGenConfig(const SelfTrainConfig& cfg) {
  GenerationConfig g = CandidateGenConfig(cfg);
  g.samples_per_table = cfg.eval_samples_per_table;
  g.use_table_to_text = false;
  g.use_text_to_table = false;
  g.nl = datasets::HumanNlProfile();
  g.lexicon = &datasets::HumanLexicon();
  if (!cfg.eval_topics.empty()) {
    const auto& topics = datasets::TopicsFor(cfg.domain);
    if (cfg.eval_topics[0] < topics.size()) {
      g.reasoning_weights = topics[cfg.eval_topics[0]].reasoning_weights;
    }
  }
  return g;
}

// -------------------------------------------------------- filter records

/// Durable outcome of the label phase: which candidate indices survived
/// and at what weight. Indices refer to the generated dataset's sample
/// order, which the checkpointed generator reproduces byte-identically —
/// so the (gen checkpoint, filter file) pair IS the kept training set,
/// with no second serialization of the samples themselves.
struct FilterFile {
  size_t scored = 0;
  size_t kept = 0;
  size_t dropped = 0;
  size_t disagreed = 0;
  std::vector<std::pair<size_t, double>> keeps;  ///< (index, weight)

  std::string Serialize() const {
    std::string out = "uctr-selftrain-filter v1\n";
    out += "scored " + std::to_string(scored) + " kept " +
           std::to_string(kept) + " dropped " + std::to_string(dropped) +
           " disagreed " + std::to_string(disagreed) + "\n";
    for (const auto& [index, weight] : keeps) {
      out += "keep " + std::to_string(index) + " " + FormatDouble(weight) +
             "\n";
    }
    return out;
  }

  static Result<FilterFile> Parse(const std::string& text) {
    std::vector<std::string> lines = Split(text, '\n');
    if (lines.empty() || Trim(lines[0]) != "uctr-selftrain-filter v1") {
      return Status::ParseError("not a selftrain filter file");
    }
    FilterFile f;
    if (lines.size() < 2) return Status::ParseError("truncated filter file");
    std::vector<std::string> counts = SplitWhitespace(lines[1]);
    if (counts.size() != 8 || counts[0] != "scored" || counts[2] != "kept" ||
        counts[4] != "dropped" || counts[6] != "disagreed") {
      return Status::ParseError("bad filter counts line");
    }
    UCTR_ASSIGN_OR_RETURN(f.scored, ParseU64Strict(counts[1]));
    UCTR_ASSIGN_OR_RETURN(f.kept, ParseU64Strict(counts[3]));
    UCTR_ASSIGN_OR_RETURN(f.dropped, ParseU64Strict(counts[5]));
    UCTR_ASSIGN_OR_RETURN(f.disagreed, ParseU64Strict(counts[7]));
    for (size_t i = 2; i < lines.size(); ++i) {
      std::vector<std::string> fields = SplitWhitespace(lines[i]);
      if (fields.empty()) continue;
      if (fields[0] != "keep" || fields.size() != 3) {
        return Status::ParseError("bad filter line '" + lines[i] + "'");
      }
      UCTR_ASSIGN_OR_RETURN(uint64_t index, ParseU64Strict(fields[1]));
      UCTR_ASSIGN_OR_RETURN(double weight, ParseDoubleStrict(fields[2]));
      f.keeps.emplace_back(static_cast<size_t>(index), weight);
    }
    if (f.keeps.size() != f.kept) {
      return Status::ParseError("filter keep-count mismatch");
    }
    return f;
  }
};

// ------------------------------------------------------------ task model

/// Uniform facade over the two task models so the orchestrator has one
/// train/score/eval/save surface regardless of --task.
class TaskModel {
 public:
  explicit TaskModel(TaskType task) : task_(task) {
    if (task_ == TaskType::kFactVerification) {
      verifier_.emplace(model::VerifierConfig{}, BuiltinLogicTemplates());
    } else {
      qa_.emplace(model::QaConfig{}, BuiltinSqlTemplates());
    }
  }

  Status LoadWeights(const std::string& text) {
    return verifier_ ? verifier_->LoadWeights(text) : qa_->LoadWeights(text);
  }
  std::string SaveWeights() const {
    return verifier_ ? verifier_->SaveWeights() : qa_->SaveWeights();
  }
  void Train(const Dataset& data, Rng* rng, std::vector<double>* losses) {
    if (verifier_) {
      verifier_->Train(data, rng, losses);
    } else {
      qa_->Train(data, rng, losses);
    }
  }
  double Accuracy(const Dataset& data) const {
    return verifier_ ? eval::VerifierLabelAccuracy(*verifier_, data)
                     : eval::QaDenotationAccuracy(*qa_, data);
  }
  Result<model::Confidence> Score(const Sample& sample) const {
    return verifier_ ? model::ScoreSample(*verifier_, sample)
                     : model::ScoreSample(*qa_, sample);
  }

 private:
  TaskType task_;
  std::optional<model::VerifierModel> verifier_;
  std::optional<model::QaModel> qa_;
};

constexpr RoundPhase kPhases[] = {RoundPhase::kGenerate, RoundPhase::kLabel,
                                  RoundPhase::kTrain, RoundPhase::kEval};

}  // namespace

model::FilterPolicy SelfTrainConfig::PolicyForRound(size_t round) const {
  model::FilterPolicy policy = filter;
  if (round == 0) return policy;  // unused: round 0 keeps everything
  size_t idx = round - 1;
  if (!thresholds.empty()) {
    policy.threshold = thresholds[std::min(idx, thresholds.size() - 1)];
  }
  if (!temperatures.empty()) {
    policy.temperature =
        temperatures[std::min(idx, temperatures.size() - 1)];
  }
  return policy;
}

uint64_t ConfigFingerprint(const SelfTrainConfig& config) {
  std::ostringstream canon;
  canon << "uctr-selftrain-config-v1";
  canon << ";task=" << static_cast<int>(config.task);
  canon << ";domain=" << static_cast<int>(config.domain);
  canon << ";train_topics=";
  for (size_t t : config.train_topics) canon << t << ",";
  canon << ";tables=" << config.tables_per_round;
  canon << ";eval_topics=";
  for (size_t t : config.eval_topics) canon << t << ",";
  canon << ";eval_tables=" << config.eval_tables;
  canon << ";filter=" << FormatDouble(config.filter.threshold) << ","
        << FormatDouble(config.filter.temperature) << ","
        << (config.filter.require_agreement ? 1 : 0);
  canon << ";thresholds=";
  for (double t : config.thresholds) canon << FormatDouble(t) << ",";
  canon << ";temperatures=";
  for (double t : config.temperatures) canon << FormatDouble(t) << ",";
  // The generation knobs (samples_per_table and everything derived) are
  // covered by the gen-config fingerprints, the same hashes the per-round
  // checkpoint manifests validate against.
  canon << ";gen=" << GenerationConfigFingerprint(CandidateGenConfig(config));
  canon << ";eval=" << GenerationConfigFingerprint(EvalGenConfig(config));
  return Fnv1a64(canon.str(), kFnv1aOffsetBasis);
}

std::string RoundResult::Serialize() const {
  std::string out = "uctr-selftrain-result v1\n";
  out += "round " + std::to_string(round) + "\n";
  out += "generated " + std::to_string(generated) + "\n";
  out += "kept " + std::to_string(kept) + "\n";
  out += "dropped " + std::to_string(dropped) + "\n";
  out += "disagreed " + std::to_string(disagreed) + "\n";
  out += "threshold " + FormatDouble(threshold) + "\n";
  out += "temperature " + FormatDouble(temperature) + "\n";
  out += "loss_first " + FormatDouble(loss_first) + "\n";
  out += "loss_last " + FormatDouble(loss_last) + "\n";
  out += "accuracy " + FormatDouble(accuracy) + "\n";
  return out;
}

Result<RoundResult> RoundResult::Parse(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "uctr-selftrain-result v1") {
    return Status::ParseError("not a selftrain result file");
  }
  RoundResult r;
  int seen = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> fields = SplitWhitespace(lines[i]);
    if (fields.empty()) continue;
    if (fields.size() != 2) {
      return Status::ParseError("bad result line '" + lines[i] + "'");
    }
    const std::string& key = fields[0];
    if (key == "round") {
      UCTR_ASSIGN_OR_RETURN(r.round, ParseU64Strict(fields[1]));
    } else if (key == "generated") {
      UCTR_ASSIGN_OR_RETURN(r.generated, ParseU64Strict(fields[1]));
    } else if (key == "kept") {
      UCTR_ASSIGN_OR_RETURN(r.kept, ParseU64Strict(fields[1]));
    } else if (key == "dropped") {
      UCTR_ASSIGN_OR_RETURN(r.dropped, ParseU64Strict(fields[1]));
    } else if (key == "disagreed") {
      UCTR_ASSIGN_OR_RETURN(r.disagreed, ParseU64Strict(fields[1]));
    } else if (key == "threshold") {
      UCTR_ASSIGN_OR_RETURN(r.threshold, ParseDoubleStrict(fields[1]));
    } else if (key == "temperature") {
      UCTR_ASSIGN_OR_RETURN(r.temperature, ParseDoubleStrict(fields[1]));
    } else if (key == "loss_first") {
      UCTR_ASSIGN_OR_RETURN(r.loss_first, ParseDoubleStrict(fields[1]));
    } else if (key == "loss_last") {
      UCTR_ASSIGN_OR_RETURN(r.loss_last, ParseDoubleStrict(fields[1]));
    } else if (key == "accuracy") {
      UCTR_ASSIGN_OR_RETURN(r.accuracy, ParseDoubleStrict(fields[1]));
    } else {
      return Status::ParseError("unknown result key '" + key + "'");
    }
    ++seen;
  }
  if (seen != 10) return Status::ParseError("truncated result file");
  return r;
}

std::string SelfTrainReport::DeltaTable() const {
  // Deterministic by construction: every cell derives from durable round
  // artifacts, never from wall time — interrupted-and-resumed runs must
  // append byte-identical tables to EXPERIMENTS.md.
  std::string out =
      "| round | generated | kept | dropped | threshold | loss "
      "first->last | held-out acc | delta vs r0 |\n"
      "|---|---|---|---|---|---|---|---|\n";
  char buf[160];
  double base = rounds.empty() ? 0.0 : rounds.front().accuracy;
  for (const RoundResult& r : rounds) {
    std::snprintf(buf, sizeof(buf),
                  "| %zu | %zu | %zu | %zu | %.2f | %.4f -> %.4f | %.4f | "
                  "%+.4f |\n",
                  r.round, r.generated, r.kept, r.dropped, r.threshold,
                  r.loss_first, r.loss_last, r.accuracy, r.accuracy - base);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------- orchestrator

namespace {

namespace fs = std::filesystem;

class Runner {
 public:
  explicit Runner(const SelfTrainConfig& cfg)
      : cfg_(cfg),
        library_([] {
          static const TemplateLibrary library = TemplateLibrary::Builtin();
          return &library;
        }()),
        retry_({}, /*seed=*/0x5E1F7EA1ull),
        rounds_counter_(
            obs::DefaultRegistry().counter("selftrain_rounds_total")),
        generated_counter_(obs::DefaultRegistry().counter(
            "selftrain_samples_generated_total")),
        kept_counter_(
            obs::DefaultRegistry().counter("selftrain_samples_kept_total")),
        dropped_counter_(obs::DefaultRegistry().counter(
            "selftrain_samples_dropped_total")) {}

  Result<SelfTrainReport> Run() {
    UCTR_RETURN_NOT_OK(Validate());
    std::error_code ec;
    fs::create_directories(cfg_.state_dir, ec);
    if (ec) {
      return Status::ExecutionError("cannot create state dir " +
                                    cfg_.state_dir);
    }
    uint64_t fingerprint = ConfigFingerprint(cfg_);
    UCTR_ASSIGN_OR_RETURN(
        manifest_,
        LoadOrCreateManifest(ManifestPath(), cfg_.seed, fingerprint));

    SelfTrainReport report;
    for (size_t round = 0; round <= cfg_.rounds; ++round) {
      obs::Span round_span =
          obs::Tracer::Default().StartSpan("selftrain.round");
      round_span.AddAttr("round", std::to_string(round));
      fs::create_directories(RoundDir(round), ec);
      if (ec) {
        return Status::ExecutionError("cannot create round dir " +
                                      RoundDir(round));
      }
      bool resumed_whole_round = manifest_.RoundComplete(round);
      for (RoundPhase phase : kPhases) {
        if (manifest_.IsDone(round, phase)) continue;
        if (cfg_.max_phase_steps != 0 &&
            report.phases_run >= cfg_.max_phase_steps) {
          // Phase-step budget spent: stop at this phase boundary exactly
          // as a kill would, with the manifest already durable.
          UCTR_RETURN_NOT_OK(FillCompletedRounds(&report));
          report.complete = false;
          return report;
        }
        UCTR_RETURN_NOT_OK(RunPhase(round, phase, &report));
        ++report.phases_run;
        manifest_.MarkDone(round, phase);
        UCTR_RETURN_NOT_OK(StoreManifest(ManifestPath(), manifest_));
      }
      if (!resumed_whole_round) rounds_counter_->Increment();
    }
    UCTR_RETURN_NOT_OK(FillCompletedRounds(&report));
    report.complete =
        report.rounds.size() == cfg_.rounds + 1;
    return report;
  }

 private:
  std::string ManifestPath() const { return cfg_.state_dir + "/MANIFEST"; }
  std::string RoundDir(size_t round) const {
    return cfg_.state_dir + "/round-" + std::to_string(round);
  }
  std::string GenDir(size_t round) const { return RoundDir(round) + "/gen"; }
  std::string FilterPath(size_t round) const {
    return RoundDir(round) + "/filter";
  }
  std::string WeightsPath(size_t round) const {
    return RoundDir(round) + "/weights.txt";
  }
  std::string LossesPath(size_t round) const {
    return RoundDir(round) + "/losses";
  }
  std::string ResultPath(size_t round) const {
    return RoundDir(round) + "/RESULT";
  }

  Status Validate() const {
    if (cfg_.state_dir.empty()) {
      return Status::InvalidArgument("state_dir must be set");
    }
    const auto& topics = datasets::TopicsFor(cfg_.domain);
    for (size_t t : cfg_.train_topics) {
      if (t >= topics.size()) {
        return Status::InvalidArgument("train topic index out of range");
      }
    }
    if (cfg_.train_topics.empty() || cfg_.eval_topics.empty()) {
      return Status::InvalidArgument("train/eval topics must be non-empty");
    }
    for (size_t t : cfg_.eval_topics) {
      if (t >= topics.size()) {
        return Status::InvalidArgument("eval topic index out of range");
      }
      for (size_t train : cfg_.train_topics) {
        if (t == train) {
          return Status::InvalidArgument(
              "eval topics must be held out from train topics");
        }
      }
    }
    if (!std::isfinite(cfg_.filter.threshold) ||
        cfg_.filter.threshold < 0.0) {
      return Status::InvalidArgument("filter threshold must be >= 0");
    }
    return Status::OK();
  }

  /// Dispatches one phase through its fault point and the retry policy:
  /// an injected transient fault (or one from deeper layers) re-runs the
  /// phase — safe, because phases regenerate identical artifacts — while
  /// a permanent fault aborts the run with all durable state intact.
  Status RunPhase(size_t round, RoundPhase phase, SelfTrainReport* report) {
    const char* site = nullptr;
    switch (phase) {
      case RoundPhase::kGenerate:
        site = "selftrain.generate";
        break;
      case RoundPhase::kLabel:
        site = "selftrain.label";
        break;
      case RoundPhase::kTrain:
        site = "selftrain.train";
        break;
      case RoundPhase::kEval:
        site = "selftrain.eval";
        break;
    }
    obs::Span span = obs::Tracer::Default().StartSpan(site);
    span.AddAttr("round", std::to_string(round));
    auto started = std::chrono::steady_clock::now();
    Status status = retry_.Run(site, [&]() -> Status {
      UCTR_RETURN_NOT_OK(UCTR_FAULT_POINT(site));
      switch (phase) {
        case RoundPhase::kGenerate:
          return GeneratePhase(round);
        case RoundPhase::kLabel:
          return LabelPhase(round);
        case RoundPhase::kTrain:
          return TrainPhase(round);
        case RoundPhase::kEval:
          return EvalPhase(round);
      }
      return Status::Internal("unreachable phase");
    });
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - started)
                        .count();
    obs::DefaultRegistry()
        .histogram(std::string("latency_selftrain_") + RoundPhaseName(phase) +
                   "_us")
        ->Observe(micros);
    report->phase_ms["round-" + std::to_string(round) + "/" +
                     RoundPhaseName(phase)] = micros / 1000.0;
    return status;
  }

  /// Generates (or finishes generating) the round's candidate corpus via
  /// the checkpointed generator: kill -9 mid-phase resumes shard by shard.
  Status GeneratePhase(size_t round) {
    CheckpointReport gen_report;
    return GenerateCandidates(round, &gen_report).status();
  }

  Result<Dataset> GenerateCandidates(size_t round,
                                     CheckpointReport* gen_report) {
    Rng corpus_rng(CorpusSeed(cfg_.seed, round));
    datasets::CorpusConfig corpus_config;
    corpus_config.domain = cfg_.domain;
    corpus_config.topic_indices = cfg_.train_topics;
    corpus_config.num_tables = cfg_.tables_per_round;
    datasets::CorpusGenerator corpus_gen(corpus_config, &corpus_rng);
    std::vector<TableWithText> corpus = corpus_gen.Generate();

    CheckpointOptions checkpoint;
    checkpoint.directory = GenDir(round);
    return GenerateDatasetCheckpointed(CandidateGenConfig(cfg_), library_,
                                       corpus, GenSeed(cfg_.seed, round),
                                       cfg_.num_threads, checkpoint,
                                       gen_report);
  }

  /// Re-materializes the (completed) candidate set for a later phase.
  Result<Dataset> LoadCandidates(size_t round) {
    CheckpointReport gen_report;
    UCTR_ASSIGN_OR_RETURN(Dataset data,
                          GenerateCandidates(round, &gen_report));
    if (!gen_report.complete) {
      return Status::Internal(
          "candidate checkpoint incomplete after generate phase");
    }
    return data;
  }

  Status LabelPhase(size_t round) {
    UCTR_ASSIGN_OR_RETURN(Dataset candidates, LoadCandidates(round));
    FilterFile filter;
    filter.scored = candidates.size();
    if (round == 0) {
      // Bootstrap: no model exists yet; the whole synthetic corpus trains
      // round 0 at weight 1 (classic one-shot UCTR).
      for (size_t i = 0; i < candidates.size(); ++i) {
        filter.keeps.emplace_back(i, 1.0);
      }
      filter.kept = candidates.size();
    } else {
      TaskModel model(cfg_.task);
      UCTR_RETURN_NOT_OK(LoadModel(round - 1, &model));
      model::FilterPolicy policy = cfg_.PolicyForRound(round);
      for (size_t i = 0; i < candidates.size(); ++i) {
        UCTR_ASSIGN_OR_RETURN(model::Confidence confidence,
                              model.Score(candidates.samples[i]));
        if (!confidence.agrees) ++filter.disagreed;
        UCTR_ASSIGN_OR_RETURN(model::FilterDecision decision,
                              model::ApplyPolicy(confidence, policy));
        if (decision.keep) {
          filter.keeps.emplace_back(i, decision.weight);
        }
      }
      filter.kept = filter.keeps.size();
      filter.dropped = filter.scored - filter.kept;
    }
    generated_counter_->Increment(filter.scored);
    kept_counter_->Increment(filter.kept);
    dropped_counter_->Increment(filter.dropped);
    return WriteFileAtomic(FilterPath(round), filter.Serialize());
  }

  Status TrainPhase(size_t round) {
    UCTR_ASSIGN_OR_RETURN(Dataset candidates, LoadCandidates(round));
    UCTR_ASSIGN_OR_RETURN(std::string filter_text,
                          ReadFileText(FilterPath(round)));
    UCTR_ASSIGN_OR_RETURN(FilterFile filter, FilterFile::Parse(filter_text));

    Dataset train_set;
    train_set.samples.reserve(filter.keeps.size());
    for (const auto& [index, weight] : filter.keeps) {
      if (index >= candidates.size()) {
        return Status::InvalidArgument("filter index out of range");
      }
      Sample s = candidates.samples[index];
      s.weight = weight;
      train_set.samples.push_back(std::move(s));
    }

    TaskModel model(cfg_.task);
    if (round > 0) {
      // Continue training the previous round's model — self-training
      // refines one model across rounds rather than restarting.
      UCTR_RETURN_NOT_OK(LoadModel(round - 1, &model));
    }
    Rng rng(TrainSeed(cfg_.seed, round));
    std::vector<double> losses;
    model.Train(train_set, &rng, &losses);

    std::string losses_text = "uctr-selftrain-losses v1\n";
    for (double loss : losses) losses_text += FormatDouble(loss) + "\n";
    UCTR_RETURN_NOT_OK(WriteFileAtomic(LossesPath(round), losses_text));
    return WriteFileAtomic(WeightsPath(round), model.SaveWeights());
  }

  Status EvalPhase(size_t round) {
    TaskModel model(cfg_.task);
    UCTR_RETURN_NOT_OK(LoadModel(round, &model));
    double accuracy = model.Accuracy(EvalSet());

    UCTR_ASSIGN_OR_RETURN(std::string filter_text,
                          ReadFileText(FilterPath(round)));
    UCTR_ASSIGN_OR_RETURN(FilterFile filter, FilterFile::Parse(filter_text));
    UCTR_ASSIGN_OR_RETURN(std::string losses_text,
                          ReadFileText(LossesPath(round)));

    RoundResult result;
    result.round = round;
    result.generated = filter.scored;
    result.kept = filter.kept;
    result.dropped = filter.dropped;
    result.disagreed = filter.disagreed;
    model::FilterPolicy policy = cfg_.PolicyForRound(round);
    result.threshold = round == 0 ? 0.0 : policy.threshold;
    result.temperature = round == 0 ? 1.0 : policy.temperature;
    std::vector<std::string> loss_lines = Split(losses_text, '\n');
    std::vector<double> losses;
    for (size_t i = 1; i < loss_lines.size(); ++i) {
      if (Trim(loss_lines[i]).empty()) continue;
      UCTR_ASSIGN_OR_RETURN(double loss, ParseDoubleStrict(loss_lines[i]));
      losses.push_back(loss);
    }
    result.loss_first = losses.empty() ? 0.0 : losses.front();
    result.loss_last = losses.empty() ? 0.0 : losses.back();
    result.accuracy = accuracy;
    return WriteFileAtomic(ResultPath(round), result.Serialize());
  }

  /// The fixed held-out split: regenerated on demand from the eval seed,
  /// identical in every round and every resume.
  Dataset EvalSet() {
    Rng rng(EvalSeed(cfg_.seed));
    datasets::CorpusConfig corpus_config;
    corpus_config.domain = cfg_.domain;
    corpus_config.topic_indices = cfg_.eval_topics;
    corpus_config.num_tables = cfg_.eval_tables;
    corpus_config.with_paragraphs = false;
    datasets::CorpusGenerator corpus_gen(corpus_config, &rng);
    std::vector<TableWithText> corpus = corpus_gen.Generate();
    Generator generator(EvalGenConfig(cfg_), library_, &rng);
    return generator.GenerateDataset(corpus);
  }

  Status LoadModel(size_t round, TaskModel* model) {
    UCTR_ASSIGN_OR_RETURN(std::string text,
                          ReadFileText(WeightsPath(round)));
    return model->LoadWeights(text);
  }

  /// Reconstructs RoundResults for every completed round from the durable
  /// RESULT files — a resumed run reports the same table as the run that
  /// actually executed those rounds.
  Status FillCompletedRounds(SelfTrainReport* report) {
    report->rounds.clear();
    for (size_t round = 0; round <= cfg_.rounds; ++round) {
      if (!manifest_.RoundComplete(round)) break;
      UCTR_ASSIGN_OR_RETURN(std::string text,
                            ReadFileText(ResultPath(round)));
      UCTR_ASSIGN_OR_RETURN(RoundResult result, RoundResult::Parse(text));
      report->rounds.push_back(result);
    }
    return Status::OK();
  }

  SelfTrainConfig cfg_;
  const TemplateLibrary* library_;
  Manifest manifest_;
  fault::RetryPolicy retry_;
  obs::Counter* rounds_counter_;
  obs::Counter* generated_counter_;
  obs::Counter* kept_counter_;
  obs::Counter* dropped_counter_;
};

}  // namespace

SelfTrainer::SelfTrainer(SelfTrainConfig config)
    : config_(std::move(config)) {}

Result<SelfTrainReport> SelfTrainer::Run() {
  Runner runner(config_);
  return runner.Run();
}

}  // namespace uctr::selftrain
