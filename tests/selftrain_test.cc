// Self-training orchestrator tests: crash/resume byte-identity at every
// phase boundary, confidence-filter edge cases, manifest validation, and
// the gen-checkpoint config fingerprinting the orchestrator relies on.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "datasets/corpus.h"
#include "fault/fault.h"
#include "gen/parallel.h"
#include "model/confidence.h"
#include "model/linear_model.h"
#include "selftrain/manifest.h"
#include "selftrain/selftrain.h"

namespace uctr {
namespace {

using selftrain::ConfigFingerprint;
using selftrain::Manifest;
using selftrain::RoundPhase;
using selftrain::SelfTrainConfig;
using selftrain::SelfTrainer;
using selftrain::SelfTrainReport;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("uctr_selftrain_test_" + tag + "_" +
              std::to_string(static_cast<unsigned long>(::getpid()))))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Disarms the global fault injector on entry and exit; optionally arms a
/// spec for the scope.
class FaultGuard {
 public:
  FaultGuard() { fault::FaultInjector::Global().Disarm(); }
  explicit FaultGuard(const std::string& spec) {
    fault::FaultInjector::Global().Disarm();
    fault::FaultInjector::Global().Seed(0xFA17);
    Status s = fault::FaultInjector::Global().ArmSpec(spec);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~FaultGuard() { fault::FaultInjector::Global().Disarm(); }
};

/// Tiny-but-real loop configuration: small enough that the
/// kill-at-every-boundary sweep stays fast, big enough that every phase
/// does real work.
SelfTrainConfig TinyConfig(const std::string& state_dir, size_t rounds = 2) {
  SelfTrainConfig config;
  config.state_dir = state_dir;
  config.rounds = rounds;
  config.seed = 7;
  config.tables_per_round = 4;
  config.samples_per_table = 4;
  config.eval_tables = 4;
  config.eval_samples_per_table = 4;
  config.num_threads = 2;
  return config;
}

std::string MustRead(const std::string& path) {
  auto text = ReadFileText(path);
  EXPECT_TRUE(text.ok()) << path << ": " << text.status().ToString();
  return text.ok() ? text.ValueOrDie() : "";
}

/// The durable artifacts that must be byte-identical across any
/// kill/resume schedule. attempts.log is deliberately absent: it is an
/// append-only operational journal whose line order races across
/// generator threads even between two uninterrupted runs.
std::vector<std::string> ArtifactsOf(const SelfTrainConfig& config) {
  std::vector<std::string> paths = {config.state_dir + "/MANIFEST"};
  for (size_t r = 0; r <= config.rounds; ++r) {
    std::string dir = config.state_dir + "/round-" + std::to_string(r);
    paths.push_back(dir + "/filter");
    paths.push_back(dir + "/weights.txt");
    paths.push_back(dir + "/losses");
    paths.push_back(dir + "/RESULT");
  }
  return paths;
}

// ----------------------------------------------------------- manifest

TEST(SelfTrainManifestTest, SerializeParseRoundTrip) {
  Manifest manifest;
  manifest.seed = 99;
  manifest.config_fingerprint = 0xDEADBEEF;
  manifest.MarkDone(0, RoundPhase::kGenerate);
  manifest.MarkDone(0, RoundPhase::kLabel);
  manifest.MarkDone(1, RoundPhase::kGenerate);

  auto parsed = Manifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, 99u);
  EXPECT_EQ(parsed->config_fingerprint, 0xDEADBEEFu);
  EXPECT_TRUE(parsed->IsDone(0, RoundPhase::kGenerate));
  EXPECT_TRUE(parsed->IsDone(1, RoundPhase::kGenerate));
  EXPECT_FALSE(parsed->IsDone(1, RoundPhase::kLabel));
  EXPECT_FALSE(parsed->RoundComplete(0));
  EXPECT_EQ(parsed->Serialize(), manifest.Serialize());
}

TEST(SelfTrainManifestTest, RejectsCorruptInput) {
  EXPECT_FALSE(Manifest::Parse("not a manifest").ok());
  EXPECT_FALSE(Manifest::Parse("uctr-selftrain v1\nseed 1\n").ok());  // no config
  EXPECT_FALSE(
      Manifest::Parse("uctr-selftrain v1\nseed 1\nconfig 2\ndone 0 9\n")
          .ok());  // phase out of range
  EXPECT_FALSE(
      Manifest::Parse("uctr-selftrain v1\nseed 1\nconfig 2\nbogus line\n")
          .ok());
}

TEST(SelfTrainManifestTest, LoadRejectsMismatchedKey) {
  ScratchDir dir("manifest_key");
  std::filesystem::create_directories(dir.path());
  std::string path = dir.path() + "/MANIFEST";

  auto fresh = selftrain::LoadOrCreateManifest(path, 1, 2);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(selftrain::StoreManifest(path, *fresh).ok());

  EXPECT_TRUE(selftrain::LoadOrCreateManifest(path, 1, 2).ok());
  auto wrong_seed = selftrain::LoadOrCreateManifest(path, 9, 2);
  EXPECT_FALSE(wrong_seed.ok());
  auto wrong_config = selftrain::LoadOrCreateManifest(path, 1, 9);
  EXPECT_FALSE(wrong_config.ok());
}

// --------------------------------------------------------- confidence

TEST(ConfidenceTest, MarginToConfidenceRejectsInvalidMargins) {
  EXPECT_FALSE(
      model::MarginToConfidence(std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_FALSE(
      model::MarginToConfidence(std::numeric_limits<double>::infinity())
          .ok());
  EXPECT_FALSE(model::MarginToConfidence(-0.1).ok());

  auto zero = model::MarginToConfidence(0.0);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 0.0);
  auto one = model::MarginToConfidence(1.0);
  ASSERT_TRUE(one.ok());
  EXPECT_DOUBLE_EQ(*one, 0.5);
  // Monotone squash: bigger margins, bigger confidence, always < 1.
  EXPECT_LT(*model::MarginToConfidence(1.0),
            *model::MarginToConfidence(5.0));
  EXPECT_LT(*model::MarginToConfidence(1e9), 1.0);
}

TEST(ConfidenceTest, ApplyPolicyKeepsAndDrops) {
  model::FilterPolicy policy;
  policy.threshold = 0.3;
  policy.temperature = 1.0;
  policy.require_agreement = true;

  // All kept: confident and agreeing.
  auto kept = model::ApplyPolicy({/*score=*/0.4, /*agrees=*/true}, policy);
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->keep);
  EXPECT_DOUBLE_EQ(kept->weight, 0.4);

  // All dropped: below threshold.
  auto low = model::ApplyPolicy({0.2, true}, policy);
  ASSERT_TRUE(low.ok());
  EXPECT_FALSE(low->keep);

  // Dropped by disagreement despite high confidence.
  auto disagree = model::ApplyPolicy({0.45, false}, policy);
  ASSERT_TRUE(disagree.ok());
  EXPECT_FALSE(disagree->keep);
  policy.require_agreement = false;
  auto tolerated = model::ApplyPolicy({0.45, false}, policy);
  ASSERT_TRUE(tolerated.ok());
  EXPECT_TRUE(tolerated->keep);

  // Sharpening temperature: weight = score^(1/T).
  policy.temperature = 0.5;
  auto sharpened = model::ApplyPolicy({0.4, true}, policy);
  ASSERT_TRUE(sharpened.ok());
  EXPECT_DOUBLE_EQ(sharpened->weight, 0.4 * 0.4);

  // Corrupt inputs are errors, never silent keeps.
  EXPECT_FALSE(
      model::ApplyPolicy({std::numeric_limits<double>::quiet_NaN(), true},
                         policy)
          .ok());
  policy.temperature = 0.0;
  EXPECT_FALSE(model::ApplyPolicy({0.4, true}, policy).ok());
}

TEST(ConfidenceTest, KeptWeightIsAlwaysTrainable) {
  // Degenerate corner: threshold 0 keeps a zero-confidence sample; its
  // weight must still be positive or the trainer would silently skip it.
  model::FilterPolicy policy;
  policy.threshold = 0.0;
  policy.require_agreement = false;
  auto decision = model::ApplyPolicy({0.0, false}, policy);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->keep);
  EXPECT_GT(decision->weight, 0.0);
}

// ------------------------------------------- weighted linear training

TEST(WeightedTrainingTest, UnitWeightsReproduceUnweightedBitForBit) {
  Rng rng_a(3), rng_b(3);
  std::vector<model::Example> unweighted, weighted;
  for (int i = 0; i < 40; ++i) {
    model::Example ex;
    ex.features = {{static_cast<uint32_t>(i % 7), 1.0f},
                   {static_cast<uint32_t>(13 + i % 5), 0.5f}};
    ex.label = i % 2;
    unweighted.push_back(ex);
    ex.weight = 1.0f;
    weighted.push_back(ex);
  }
  model::LinearModel a(2, 64), b(2, 64);
  model::TrainConfig config;
  a.Train(unweighted, config, &rng_a);
  b.Train(weighted, config, &rng_b);
  EXPECT_EQ(a.SaveToString(), b.SaveToString());
}

TEST(WeightedTrainingTest, InvalidWeightsAreSkippedNotPropagated) {
  Rng rng_a(3), rng_b(3);
  std::vector<model::Example> clean, polluted;
  for (int i = 0; i < 20; ++i) {
    model::Example ex;
    ex.features = {{static_cast<uint32_t>(i % 7), 1.0f}};
    ex.label = i % 2;
    clean.push_back(ex);
    polluted.push_back(ex);
  }
  // Poison examples: NaN, inf, zero, and negative weights must all be
  // skipped, leaving training identical to the clean set. Shuffle is off
  // so the two runs visit the shared examples in the same order.
  model::Example poison;
  poison.features = {{3, 10.0f}};
  poison.label = 1;
  for (float w : {std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::infinity(), 0.0f, -2.0f}) {
    poison.weight = w;
    polluted.push_back(poison);
  }
  model::TrainConfig config;
  config.shuffle = false;
  model::LinearModel a(2, 64), b(2, 64);
  std::vector<double> losses_a, losses_b;
  a.Train(clean, config, &rng_a, &losses_a);
  b.Train(polluted, config, &rng_b, &losses_b);
  EXPECT_EQ(a.SaveToString(), b.SaveToString());
  EXPECT_EQ(losses_a, losses_b);
}

TEST(WeightedTrainingTest, EpochLossTrajectoryIsExposed) {
  Rng rng(3);
  std::vector<model::Example> examples;
  for (int i = 0; i < 30; ++i) {
    model::Example ex;
    ex.features = {{static_cast<uint32_t>(i % 5), 1.0f}};
    ex.label = i % 2 == 0 && i % 5 < 3 ? 0 : 1;
    examples.push_back(ex);
  }
  model::TrainConfig config;
  config.epochs = 6;
  model::LinearModel model(2, 64);
  std::vector<double> losses;
  double last = model.Train(examples, config, &rng, &losses);
  ASSERT_EQ(losses.size(), 6u);
  EXPECT_DOUBLE_EQ(losses.back(), last);
  EXPECT_LT(losses.back(), losses.front()) << "training failed to converge";
}

// ----------------------------------- gen-checkpoint config fingerprint

// Golden values: both fingerprints are written into MANIFEST files and
// checked on resume, so a state directory from one build must resume in
// the next. Never edit these to make a refactor pass.
TEST(GenConfigFingerprintTest, GoldenDefaultFingerprints) {
  EXPECT_EQ(GenerationConfigFingerprint(GenerationConfig{}), 0x86450add19d091a2ull);
  EXPECT_EQ(ConfigFingerprint(SelfTrainConfig{}), 0xfab5a9689bb8959dull);
}

TEST(GenConfigFingerprintTest, DistinguishesDatasetShapingKnobs) {
  GenerationConfig base;
  uint64_t fp = GenerationConfigFingerprint(base);
  EXPECT_EQ(fp, GenerationConfigFingerprint(base)) << "must be stable";

  GenerationConfig changed = base;
  changed.samples_per_table += 1;
  EXPECT_NE(GenerationConfigFingerprint(changed), fp);
  changed = base;
  changed.task = TaskType::kFactVerification;
  changed.program_types = {ProgramType::kLogicalForm};
  EXPECT_NE(GenerationConfigFingerprint(changed), fp);
  changed = base;
  changed.supported_fraction = 0.75;
  EXPECT_NE(GenerationConfigFingerprint(changed), fp);
  changed = base;
  changed.reasoning_weights["superlative"] = 2.0;
  EXPECT_NE(GenerationConfigFingerprint(changed), fp);
  changed = base;
  changed.nl.stochastic = !changed.nl.stochastic;
  EXPECT_NE(GenerationConfigFingerprint(changed), fp);
}

TEST(GenConfigFingerprintTest, CheckpointRejectsConfigMismatch) {
  FaultGuard clean;
  ScratchDir dir("gen_mismatch");
  static const TemplateLibrary library = TemplateLibrary::Builtin();
  std::vector<TableWithText> corpus;
  {
    Rng rng(5);
    datasets::CorpusConfig corpus_config;
    corpus_config.num_tables = 3;
    corpus = datasets::CorpusGenerator(corpus_config, &rng).Generate();
  }
  GenerationConfig config;
  config.samples_per_table = 3;
  CheckpointOptions checkpoint;
  checkpoint.directory = dir.path();
  auto first = GenerateDatasetCheckpointed(config, &library, corpus, 5, 1,
                                           checkpoint);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Same directory, same seed and corpus, different generation config:
  // the v2 manifest's config fingerprint must reject the resume.
  config.samples_per_table = 4;
  auto second = GenerateDatasetCheckpointed(config, &library, corpus, 5, 1,
                                            checkpoint);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- orchestrator proper

TEST(SelfTrainerTest, UninterruptedRunCompletesAndReports) {
  FaultGuard clean;
  ScratchDir dir("full");
  SelfTrainConfig config = TinyConfig(dir.path());
  SelfTrainer trainer(config);
  auto report = trainer.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->complete);
  ASSERT_EQ(report->rounds.size(), config.rounds + 1);
  EXPECT_EQ(report->phases_run, (config.rounds + 1) * 4);
  // Round 0 bootstraps from everything...
  EXPECT_EQ(report->rounds[0].kept, report->rounds[0].generated);
  EXPECT_GT(report->rounds[0].generated, 0u);
  // ...and later rounds filter (kept + dropped always covers scored).
  for (size_t r = 1; r < report->rounds.size(); ++r) {
    EXPECT_EQ(report->rounds[r].kept + report->rounds[r].dropped,
              report->rounds[r].generated);
  }
  // The delta table is part of the byte-identity contract.
  EXPECT_NE(report->DeltaTable().find("| round |"), std::string::npos);
  // Re-running over the finished directory resumes everything.
  auto rerun = SelfTrainer(config).Run();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_TRUE(rerun->complete);
  EXPECT_EQ(rerun->phases_run, 0u);
  EXPECT_EQ(rerun->DeltaTable(), report->DeltaTable());
}

TEST(SelfTrainerTest, KillAtEveryPhaseBoundaryResumesByteIdentically) {
  FaultGuard clean;
  ScratchDir ref_dir("boundary_ref");
  SelfTrainConfig ref_config = TinyConfig(ref_dir.path());
  auto reference = SelfTrainer(ref_config).Run();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->complete);

  const size_t total_phases = (ref_config.rounds + 1) * 4;
  for (size_t budget = 1; budget < total_phases; ++budget) {
    ScratchDir dir("boundary_" + std::to_string(budget));
    SelfTrainConfig config = TinyConfig(dir.path());
    // "Kill" after `budget` phases (the budget stops at a phase boundary
    // with the manifest durable, exactly like kill -9 between phases)...
    config.max_phase_steps = budget;
    auto partial = SelfTrainer(config).Run();
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_FALSE(partial->complete);
    EXPECT_EQ(partial->phases_run, budget);
    // ...then resume to completion.
    config.max_phase_steps = 0;
    auto resumed = SelfTrainer(config).Run();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(resumed->complete);
    EXPECT_EQ(resumed->phases_run, total_phases - budget);

    EXPECT_EQ(resumed->DeltaTable(), reference->DeltaTable())
        << "budget " << budget;
    for (const std::string& artifact : ArtifactsOf(ref_config)) {
      std::string relative = artifact.substr(ref_config.state_dir.size());
      EXPECT_EQ(MustRead(config.state_dir + relative), MustRead(artifact))
          << "artifact " << relative << " diverged at budget " << budget;
    }
  }
}

TEST(SelfTrainerTest, TransientFaultsAreRetriedInRun) {
  ScratchDir dir("transient");
  SelfTrainConfig config = TinyConfig(dir.path(), /*rounds=*/1);
  // One transient fault at each phase boundary: the retry policy must
  // absorb all of them within the same run.
  FaultGuard guard(
      "selftrain.generate=error(unavailable):n=1;"
      "selftrain.label=error(unavailable):n=1;"
      "selftrain.train=error(unavailable):n=1;"
      "selftrain.eval=error(unavailable):n=1");
  auto report = SelfTrainer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->complete);
  EXPECT_GE(fault::FaultInjector::Global().injected_total(), 4u);
}

TEST(SelfTrainerTest, PermanentFaultAbortsThenResumesByteIdentically) {
  ScratchDir ref_dir("perm_ref");
  SelfTrainConfig ref_config = TinyConfig(ref_dir.path(), /*rounds=*/1);
  {
    FaultGuard clean;
    auto reference = SelfTrainer(ref_config).Run();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  }

  ScratchDir dir("perm");
  SelfTrainConfig config = TinyConfig(dir.path(), /*rounds=*/1);
  {
    // A permanent (non-transient) fault mid-sequence: the run must abort
    // with the error rather than retry forever or corrupt state.
    FaultGuard guard("selftrain.train=error(internal):n=1");
    auto crashed = SelfTrainer(config).Run();
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kInternal);
  }
  {
    // Faults cleared: the same directory resumes to the reference bytes.
    FaultGuard clean;
    auto resumed = SelfTrainer(config).Run();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(resumed->complete);
    for (const std::string& artifact : ArtifactsOf(ref_config)) {
      std::string relative = artifact.substr(ref_config.state_dir.size());
      EXPECT_EQ(MustRead(config.state_dir + relative), MustRead(artifact))
          << "artifact " << relative;
    }
  }
}

TEST(SelfTrainerTest, StateDirRejectsMismatchedRun) {
  FaultGuard clean;
  ScratchDir dir("mismatch");
  SelfTrainConfig config = TinyConfig(dir.path(), /*rounds=*/0);
  ASSERT_TRUE(SelfTrainer(config).Run().ok());

  SelfTrainConfig other_seed = config;
  other_seed.seed += 1;
  auto seed_clash = SelfTrainer(other_seed).Run();
  ASSERT_FALSE(seed_clash.ok());
  EXPECT_EQ(seed_clash.status().code(), StatusCode::kInvalidArgument);

  SelfTrainConfig other_config = config;
  other_config.filter.threshold = 0.11;
  auto config_clash = SelfTrainer(other_config).Run();
  ASSERT_FALSE(config_clash.ok());
  EXPECT_EQ(config_clash.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelfTrainerTest, RoundsCanBeExtendedOnTheSameStateDir) {
  FaultGuard clean;
  ScratchDir dir("extend");
  SelfTrainConfig config = TinyConfig(dir.path(), /*rounds=*/1);
  auto first = SelfTrainer(config).Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->complete);
  std::string round1_weights = MustRead(dir.path() + "/round-1/weights.txt");

  // --rounds is not part of the config fingerprint: extending the horizon
  // resumes rounds 0..1 untouched and runs round 2 on top.
  config.rounds = 2;
  auto extended = SelfTrainer(config).Run();
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  EXPECT_TRUE(extended->complete);
  EXPECT_EQ(extended->phases_run, 4u);
  EXPECT_EQ(extended->rounds.size(), 3u);
  EXPECT_EQ(MustRead(dir.path() + "/round-1/weights.txt"), round1_weights);
}

TEST(SelfTrainerTest, AllDroppedRoundKeepsModelAndStateConsistent) {
  FaultGuard clean;
  ScratchDir dir("all_dropped");
  SelfTrainConfig config = TinyConfig(dir.path(), /*rounds=*/1);
  // A verifier margin never exceeds 1, so confidence caps at 0.5: a 0.9
  // threshold drops every candidate.
  config.filter.threshold = 0.9;
  auto report = SelfTrainer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->complete);
  EXPECT_EQ(report->rounds[1].kept, 0u);
  EXPECT_EQ(report->rounds[1].dropped, report->rounds[1].generated);
  // Training on zero samples leaves the model exactly where it was.
  EXPECT_EQ(MustRead(dir.path() + "/round-1/weights.txt"),
            MustRead(dir.path() + "/round-0/weights.txt"));
  EXPECT_EQ(report->rounds[1].accuracy, report->rounds[0].accuracy);
}

TEST(SelfTrainerTest, ZeroThresholdWithoutAgreementKeepsEverything) {
  FaultGuard clean;
  ScratchDir dir("all_kept");
  SelfTrainConfig config = TinyConfig(dir.path(), /*rounds=*/1);
  config.filter.threshold = 0.0;
  config.filter.require_agreement = false;
  auto report = SelfTrainer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->complete);
  EXPECT_EQ(report->rounds[1].kept, report->rounds[1].generated);
  EXPECT_EQ(report->rounds[1].dropped, 0u);
}

TEST(SelfTrainerTest, QaTaskRunsEndToEnd) {
  FaultGuard clean;
  ScratchDir dir("qa");
  SelfTrainConfig config = TinyConfig(dir.path(), /*rounds=*/1);
  config.task = TaskType::kQuestionAnswering;
  auto report = SelfTrainer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->complete);
  EXPECT_EQ(report->rounds.size(), 2u);
}

TEST(SelfTrainerTest, ValidatesTopicSplit) {
  FaultGuard clean;
  ScratchDir dir("topics");
  SelfTrainConfig config = TinyConfig(dir.path());
  config.eval_topics = {0};  // overlaps train_topics {0, 1, 2}
  auto report = SelfTrainer(config).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelfTrainerTest, ConfigFingerprintSeparatesSchedules) {
  SelfTrainConfig a = TinyConfig("/tmp/x");
  SelfTrainConfig b = a;
  EXPECT_EQ(ConfigFingerprint(a), ConfigFingerprint(b));
  b.rounds += 5;          // horizon is resumable...
  b.num_threads = 7;      // ...and parallelism is artifact-invariant...
  b.max_phase_steps = 3;  // ...as is the test step budget.
  EXPECT_EQ(ConfigFingerprint(a), ConfigFingerprint(b));

  b = a;
  b.thresholds = {0.2, 0.4};
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  b = a;
  b.task = TaskType::kQuestionAnswering;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  b = a;
  b.eval_topics = {4};
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
}

}  // namespace
}  // namespace uctr
