// Microbenchmarks of the core components (google-benchmark): program
// executors, template sampling, NL generation, interpretation, feature
// extraction, and the end-to-end generation pipeline.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "arith/executor.h"
#include "obs/metrics.h"
#include "arith/parser.h"
#include "gen/generator.h"
#include "gen/parallel.h"
#include "logic/executor.h"
#include "logic/parser.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "program/sampler.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "table/index.h"
#include "table/table.h"

namespace uctr {
namespace {

Table BenchTable(size_t rows) {
  std::string csv = "nation,gold,silver,bronze,total\n";
  for (size_t r = 0; r < rows; ++r) {
    csv += "nation" + std::to_string(r) + "," + std::to_string(r % 13) +
           "," + std::to_string((r * 7) % 17) + "," +
           std::to_string((r * 3) % 11) + "," + std::to_string(r % 40) +
           "\n";
  }
  return Table::FromCsv(csv).ValueOrDie();
}

void BM_CsvParse(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  std::string csv = t.ToCsv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Table::FromCsv(csv));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsvParse)->Arg(16)->Arg(256);

void BM_SqlExecute(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  auto stmt = sql::Parse(
                  "SELECT nation FROM w WHERE gold > 5 ORDER BY total DESC "
                  "LIMIT 3")
                  .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Execute(stmt, t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlExecute)->Arg(16)->Arg(256);

void BM_LogicExecute(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  auto node = logic::Parse(
                  "eq { count { filter_greater { all_rows ; gold ; 5 } } ; "
                  "7 }")
                  .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::Execute(*node, t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogicExecute)->Arg(16)->Arg(256);

// ---------------------------------------------------------------------------
// Indexed vs. scan execution (table/index.h). Each pair runs the same query
// through sql::Execute / logic::Execute with use_index on and off; the
// indexed table is warmed once before the loop, matching the serving regime
// where the index is built at table load and amortized over many programs.

void RunSqlBench(benchmark::State& state, const char* query, bool indexed) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  auto stmt = sql::Parse(query).ValueOrDie();
  sql::ExecOptions opts;
  opts.use_index = indexed;
  if (indexed) t.WarmIndex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Execute(stmt, t, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

constexpr const char* kSqlEqQuery =
    "SELECT total FROM w WHERE nation = 'nation7'";

void BM_SqlEqPredicateScan(benchmark::State& state) {
  RunSqlBench(state, kSqlEqQuery, /*indexed=*/false);
}
BENCHMARK(BM_SqlEqPredicateScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlEqPredicateIndexed(benchmark::State& state) {
  RunSqlBench(state, kSqlEqQuery, /*indexed=*/true);
}
BENCHMARK(BM_SqlEqPredicateIndexed)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

constexpr const char* kSqlAggQuery =
    "SELECT SUM(total) FROM w WHERE gold > 5";

void BM_SqlNumericAggScan(benchmark::State& state) {
  RunSqlBench(state, kSqlAggQuery, /*indexed=*/false);
}
BENCHMARK(BM_SqlNumericAggScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlNumericAggIndexed(benchmark::State& state) {
  RunSqlBench(state, kSqlAggQuery, /*indexed=*/true);
}
BENCHMARK(BM_SqlNumericAggIndexed)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void RunLogicBench(benchmark::State& state, const char* form, bool indexed) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  auto node = logic::Parse(form).ValueOrDie();
  logic::ExecOptions opts;
  opts.use_index = indexed;
  if (indexed) t.WarmIndex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::Execute(*node, t, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

constexpr const char* kLogicSuperlative =
    "hop { argmax { all_rows ; total } ; nation }";

void BM_LogicSuperlativeScan(benchmark::State& state) {
  RunLogicBench(state, kLogicSuperlative, /*indexed=*/false);
}
BENCHMARK(BM_LogicSuperlativeScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicSuperlativeIndexed(benchmark::State& state) {
  RunLogicBench(state, kLogicSuperlative, /*indexed=*/true);
}
BENCHMARK(BM_LogicSuperlativeIndexed)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);

constexpr const char* kLogicFilterEq =
    "hop { filter_eq { all_rows ; nation ; nation7 } ; total }";

void BM_LogicFilterEqScan(benchmark::State& state) {
  RunLogicBench(state, kLogicFilterEq, /*indexed=*/false);
}
BENCHMARK(BM_LogicFilterEqScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicFilterEqIndexed(benchmark::State& state) {
  RunLogicBench(state, kLogicFilterEq, /*indexed=*/true);
}
BENCHMARK(BM_LogicFilterEqIndexed)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Program::Execute per family: parse + tree-walk of one short program per
// iteration over a warmed index — the per-program cost of every candidate
// a served request interprets.

void RunParseWalkBench(benchmark::State& state, ProgramType type,
                       const char* text) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  t.WarmIndex();
  Program p{type, text};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Execute(t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SqlParseWalk(benchmark::State& state) {
  RunParseWalkBench(state, ProgramType::kSql,
                    "SELECT total FROM w WHERE nation = 'nation7'");
}
BENCHMARK(BM_SqlParseWalk)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicParseWalk(benchmark::State& state) {
  RunParseWalkBench(
      state, ProgramType::kLogicalForm,
      "eq { hop { filter_eq { all_rows ; nation ; nation7 } ; gold } ; 7 }");
}
BENCHMARK(BM_LogicParseWalk)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ArithParseWalk(benchmark::State& state) {
  RunParseWalkBench(state, ProgramType::kArithmetic,
                    "subtract(gold of nation3, gold of nation5), "
                    "divide(#0, gold of nation5)");
}
BENCHMARK(BM_ArithParseWalk)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_IndexBuild(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    Table fresh = t;  // copies never share the cached index
    state.ResumeTiming();
    fresh.WarmIndex();
    benchmark::DoNotOptimize(fresh);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexBuild)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ArithExecute(benchmark::State& state) {
  Table t = BenchTable(64);
  auto expr = arith::Parse(
                  "subtract(gold of nation3, gold of nation5), "
                  "divide(#0, gold of nation5)")
                  .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(arith::Execute(expr, t));
  }
}
BENCHMARK(BM_ArithExecute);

void BM_TemplateSample(benchmark::State& state) {
  Table t = BenchTable(32);
  Rng rng(1);
  ProgramSampler sampler(&rng);
  auto templates = BuiltinSqlTemplates();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.Sample(templates[i++ % templates.size()], t));
  }
}
BENCHMARK(BM_TemplateSample);

void BM_NlGenerate(benchmark::State& state) {
  Program p{ProgramType::kLogicalForm,
            "eq { hop { filter_eq { all_rows ; nation ; nation3 } ; gold } "
            "; 3 }"};
  nlgen::NlGenerator generator;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(p, &rng));
  }
}
BENCHMARK(BM_NlGenerate);

void BM_Interpret(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  std::string claim =
      "The number of rows whose gold is greater than 5 is 7.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interpreter.Interpret(claim, t, TaskType::kFactVerification));
  }
}
BENCHMARK(BM_Interpret)->Arg(16)->Arg(64);

void BM_FeatureExtract(benchmark::State& state) {
  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  model::FeatureConfig config;
  model::FeatureExtractor extractor(config, &interpreter);
  Sample s;
  s.task = TaskType::kFactVerification;
  s.table = BenchTable(16);
  s.sentence = "The number of rows whose gold is greater than 5 is 7.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(s));
  }
}
BENCHMARK(BM_FeatureExtract);

// ---------------------------------------------------------------------------
// Per-request linking cost against table size (table/index.h linking()).
// The table is shared across iterations, as a registered table is across
// requests, and linked once before timing starts; BM_LinkBuild times that
// one-off build. Binding and Extract's table alignment should stay roughly
// flat from 100 to 10k rows: they probe the linking index instead of
// scanning every row. RankAll also executes every candidate program over
// all rows, which is not flat.

Table LinkedBenchTable(size_t rows) {
  Table t = BenchTable(rows);
  t.WarmIndex();
  (void)t.index().linking();
  return t;
}

void BM_LinkBuild(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    Table fresh = t;  // copies never share the cached index
    state.ResumeTiming();
    benchmark::DoNotOptimize(&fresh.index().linking());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LinkBuild)->Arg(100)->Arg(1000)->Arg(10000);

constexpr const char* kLinkClaim =
    "The gold of the row whose nation is nation42 is 3.";

// Slot binding alone: every claim template bound to the claim, with no
// program executed. Each BindTemplate call tokenizes the claim afresh,
// which RankAll does once for all templates.
void BM_BindAllRows(benchmark::State& state) {
  Table t = LinkedBenchTable(static_cast<size_t>(state.range(0)));
  const std::vector<ProgramTemplate> templates = BuiltinLogicTemplates();
  for (auto _ : state) {
    for (const ProgramTemplate& tmpl : templates) {
      benchmark::DoNotOptimize(model::NlInterpreter::BindTemplate(
          tmpl, kLinkClaim, t, TaskType::kFactVerification));
    }
  }
}
BENCHMARK(BM_BindAllRows)->Arg(100)->Arg(1000)->Arg(10000);

// Binding plus executing and re-realizing every candidate program; the
// execution part is O(rows) by nature.
void BM_RankAllRows(benchmark::State& state) {
  Table t = LinkedBenchTable(static_cast<size_t>(state.range(0)));
  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interpreter.RankAll(kLinkClaim, t, TaskType::kFactVerification));
  }
}
BENCHMARK(BM_RankAllRows)->Arg(100)->Arg(1000)->Arg(10000);

// A question sample, so Extract runs the lexical and table-alignment
// features without the interpreter (BM_RankAllRows covers that).
void BM_ExtractRows(benchmark::State& state) {
  Table t = LinkedBenchTable(static_cast<size_t>(state.range(0)));
  model::FeatureExtractor extractor(model::FeatureConfig{}, nullptr);
  Sample s;
  s.task = TaskType::kQuestionAnswering;
  s.shared_table = &t;
  s.sentence = "What was the gold of the row whose nation is nation42?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(s));
  }
}
BENCHMARK(BM_ExtractRows)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GeneratePipeline(benchmark::State& state) {
  Rng rng(3);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 4;
  Generator generator(config, &library, &rng);
  TableWithText input;
  input.table = BenchTable(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.GenerateFromTable(input));
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_GeneratePipeline);

void BM_GenerateParallel(benchmark::State& state) {
  Rng corpus_rng(4);
  std::vector<TableWithText> corpus;
  for (int i = 0; i < 16; ++i) {
    TableWithText entry;
    entry.table = BenchTable(12);
    entry.table.set_name("t" + std::to_string(i));
    corpus.push_back(std::move(entry));
  }
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 6;
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateDatasetParallel(config, &library, corpus, 1, threads));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 6);
}
BENCHMARK(BM_GenerateParallel)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace uctr

// Custom main so ctest can run the suite as a fast smoke test:
// `bench_micro_components --smoke` caps every benchmark's measuring time
// (google-benchmark 1.7: --benchmark_min_time takes plain seconds), turning
// the full suite into a sub-second crash/regression canary.
//
// `--stages` additionally dumps the process-wide metrics registry after the
// run: the executor / generation-pipeline counters accumulated across every
// benchmark iteration (indexed-vs-scan split, rows scanned, discard
// reasons), giving per-stage context next to the timing numbers.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  bool stages = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--stages") == 0) {
      stages = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time.data());
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (stages) {
    std::cout << "\n--- stage metrics (obs::DefaultRegistry) ---\n"
              << uctr::obs::DefaultRegistry().ExpositionText();
  }
  return 0;
}
