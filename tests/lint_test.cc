// atlas-lint engine tests.
//
// Five properties gate the `lint` label:
//   1. every per-file rule fires on its tests/lint_corpus/ fixture at the
//      expected (line, rule) — and nowhere else in that fixture;
//   2. the allow() escape hatch suppresses in both supported positions,
//      and a pragma that suppresses nothing becomes a finding itself;
//   3. the cross-TU rules (layer-dag, lock-order, unguarded-parallel-write,
//      fp-accumulation-order) fire on their tests/lint_corpus/project/
//      fixture trees and stay quiet on the clean variants;
//   4. SARIF output is byte-stable (golden file) and baseline application
//      freezes exactly the recorded debt while flagging stale entries;
//   5. the live tree lints clean, byte-identically at 1, 2 and 8 threads.
#include "atlas_lint/lint.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace atlas::lint {
namespace {

std::string CorpusPath(const std::string& name) {
  return std::string(ATLAS_SOURCE_DIR) + "/tests/lint_corpus/" + name;
}

std::string ReadCorpus(const std::string& name) {
  const std::string path = CorpusPath(name);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing corpus file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string Dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += "  " + FormatFinding(f) + "\n";
  return out.empty() ? "  (none)\n" : out;
}

struct Expected {
  std::size_t line;
  std::string rule;
};

// Lints `corpus_file` under `synthetic_path` (the path places the content in
// the rule's scope) and asserts the findings are exactly `expected`.
void ExpectFindings(const std::string& corpus_file,
                    const std::string& synthetic_path,
                    const std::vector<Expected>& expected) {
  const auto findings = LintFile(synthetic_path, ReadCorpus(corpus_file));
  ASSERT_EQ(findings.size(), expected.size())
      << corpus_file << " as " << synthetic_path << " produced:\n"
      << Dump(findings);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(findings[i].line, expected[i].line) << FormatFinding(findings[i]);
    EXPECT_EQ(findings[i].rule, expected[i].rule) << FormatFinding(findings[i]);
    EXPECT_EQ(findings[i].file, synthetic_path);
    EXPECT_FALSE(findings[i].message.empty());
  }
}

// Lints a fixture tree under tests/lint_corpus/project/.
ProjectReport LintFixtureTree(const std::string& name) {
  return LintProject(CorpusPath("project/" + name));
}

// ---------------------------------------------------------------------------
// Per-file rules (phase-2 rules_file.cc) on the single-file corpus.
// ---------------------------------------------------------------------------

TEST(LintCorpusTest, NondetRandomDevice) {
  ExpectFindings("nondet_random_device.cc", "src/synth/fixture.cc",
                 {{5, "nondet-random-device"}});
}

TEST(LintCorpusTest, NondetRand) {
  ExpectFindings("nondet_rand.cc", "src/synth/fixture.cc",
                 {{5, "nondet-rand"}});
}

TEST(LintCorpusTest, NondetTime) {
  ExpectFindings("nondet_time.cc", "src/util/fixture.cc",
                 {{5, "nondet-time"}});
}

TEST(LintCorpusTest, NondetSystemClock) {
  ExpectFindings("nondet_system_clock.cc", "src/util/fixture.cc",
                 {{5, "nondet-system-clock"}});
}

TEST(LintCorpusTest, SystemClockPermittedInUtilTime) {
  // util/time.{h,cc} is the one sanctioned wall-clock read site.
  ExpectFindings("nondet_system_clock.cc", "src/util/time.cc", {});
}

TEST(LintCorpusTest, RawNewDelete) {
  // `= delete` on line 10 is a deleted special member, not a deallocation.
  ExpectFindings("raw_new_delete.cc", "src/cdn/fixture.cc",
                 {{4, "raw-new-delete"}, {6, "raw-new-delete"}});
}

TEST(LintCorpusTest, NarrowByteCounter) {
  ExpectFindings("narrow_byte_counter.cc", "src/cdn/fixture.cc",
                 {{5, "narrow-byte-counter"}, {6, "narrow-byte-counter"}});
}

TEST(LintCorpusTest, NarrowByteCounterScopedToAccountingDirs) {
  // The same content outside src/cdn/ and src/analysis/ is not flagged.
  ExpectFindings("narrow_byte_counter.cc", "src/stats/fixture.cc", {});
}

TEST(LintCorpusTest, RawStdMutex) {
  ExpectFindings("raw_std_mutex.cc", "src/util/fixture.cc",
                 {{5, "raw-std-mutex"}, {8, "raw-std-mutex"}});
}

TEST(LintCorpusTest, MutexUnannotated) {
  ExpectFindings("mutex_unannotated.cc", "src/util/fixture.cc",
                 {{15, "mutex-unannotated"}});
}

TEST(LintCorpusTest, MissingPragmaOnce) {
  ExpectFindings("missing_pragma_once.h", "src/util/fixture.h",
                 {{1, "missing-pragma-once"}});
}

TEST(LintCorpusTest, UnorderedIter) {
  // Line 14 ranges over a call expression (sorted view) and must pass.
  ExpectFindings("unordered_iter.cc", "src/stats/fixture.cc",
                 {{11, "unordered-iter"}});
}

TEST(LintCorpusTest, UncheckedIndexCast) {
  ExpectFindings("unchecked_index_cast.cc", "src/synth/fixture.cc",
                 {{8, "unchecked-index-cast"}, {9, "unchecked-index-cast"}});
  // The rule is scoped to the synth layer: the same content elsewhere is
  // clean (the cdn/analysis layers have their own 64-bit counter rule).
  ExpectFindings("unchecked_index_cast.cc", "src/util/fixture.cc", {});
}

TEST(LintCorpusTest, AllowPragmaSuppresses) {
  ExpectFindings("allow_suppression.cc", "src/synth/fixture.cc", {});
}

TEST(LintCorpusTest, TraceBufferInCdn) {
  // Pointer member and const-reference parameters are views, not buffers.
  ExpectFindings("tracebuffer_in_cdn.cc", "src/cdn/fixture.cc",
                 {{7, "tracebuffer-in-cdn"}, {11, "tracebuffer-in-cdn"}});
}

TEST(LintCorpusTest, TraceBufferScopedToCdn) {
  // The analysis layer legitimately materializes buffers (in-memory path).
  ExpectFindings("tracebuffer_in_cdn.cc", "src/analysis/fixture.cc", {});
}

TEST(LintCorpusTest, PerRecordInHotPath) {
  // Declarations sharing the adapter names and block-path calls pass; only
  // member calls on the per-record adapters fire.
  ExpectFindings("perrecord_in_hotpath.cc", "src/analysis/fixture.cc",
                 {{9, "perrecord-in-hotpath"}, {10, "perrecord-in-hotpath"}});
  ExpectFindings("perrecord_in_hotpath.cc", "src/cdn/fixture.cc",
                 {{9, "perrecord-in-hotpath"}, {10, "perrecord-in-hotpath"}});
}

TEST(LintCorpusTest, PerRecordScopedToHotPathLayers) {
  // The adapters themselves live in src/trace/, and tools may use them for
  // compatibility; neither scope is flagged.
  ExpectFindings("perrecord_in_hotpath.cc", "src/trace/fixture.cc", {});
  ExpectFindings("perrecord_in_hotpath.cc", "tools/fixture.cc", {});
}

TEST(LintFileTest, PerRecordAllowForAdapters) {
  // A compatibility shim inside a hot-path layer suppresses with the
  // standard escape hatch.
  const std::string source =
      "#include \"trace/block.h\"\n"
      "void Shim(atlas::trace::PerRecordSource& s) {\n"
      "  // atlas-lint: allow(perrecord-in-hotpath)  adapter, not a hot loop\n"
      "  while (s.NextRecord() != nullptr) {\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/analysis/fixture.cc", source).empty());
}

TEST(LintCorpusTest, CkptUnversionedBlob) {
  // Only raw writes inside SaveState bodies fire; declarations and writes
  // in unrelated functions pass.
  ExpectFindings("ckpt_unversioned_blob.cc", "src/cdn/fixture.cc",
                 {{9, "ckpt-unversioned-blob"}, {10, "ckpt-unversioned-blob"}});
}

TEST(LintCorpusTest, CkptUnversionedBlobScopedOutsideCkpt) {
  // The codec itself (src/ckpt/) is the one place raw byte I/O is allowed.
  ExpectFindings("ckpt_unversioned_blob.cc", "src/ckpt/fixture.cc", {});
}

TEST(LintFileTest, SiblingHeaderDeclarationsResolve) {
  // A member declared only in the header must still be recognized as an
  // unordered container when the .cc ranges over it.
  const std::string header =
      "#pragma once\n"
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::unordered_map<int, int> m_;\n"
      "  long t = 0;\n"
      "  void F();\n"
      "};\n";
  const std::string source =
      "#include \"fixture.h\"\n"
      "void S::F() {\n"
      "  for (const auto& kv : m_) t += kv.second;\n"
      "}\n";
  const auto findings = LintFile("src/stats/fixture.cc", source, header);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
}

TEST(LintFileTest, CommentedAndQuotedTokensDoNotFire) {
  const std::string source =
      "// rand() and new in a comment\n"
      "/* std::random_device too */\n"
      "const char* kDoc = \"time(nullptr) new delete std::mutex\";\n";
  EXPECT_TRUE(LintFile("src/util/fixture.cc", source).empty());
}

// ---------------------------------------------------------------------------
// Lexer regressions (phase-0 lexer.cc).
// ---------------------------------------------------------------------------

TEST(LexerTest, RawStringBodiesAreScrubbed) {
  // Banned tokens inside raw strings (plain, delimited, prefixed,
  // multi-line) never fire; the real calls on line 10 prove the lexer
  // resumed after each closing delimiter — and that FOUR"(x" (identifier
  // merely ending in R) opened an ordinary string, not a raw one.
  ExpectFindings("raw_string_literal.cc", "src/synth/fixture.cc",
                 {{10, "raw-new-delete"},
                  {10, "raw-new-delete"},
                  {10, "nondet-rand"}});
}

TEST(LexerTest, LineContinuationsPreserveStateAndLineNumbers) {
  // The spliced // comment keeps commenting the next physical line and the
  // spliced string literal stays a string, while the real call keeps its
  // on-disk line number.
  ExpectFindings("line_continuation.cc", "src/util/fixture.cc",
                 {{10, "nondet-rand"}});
}

TEST(LexerTest, ScrubKeepsPhysicalLineCount) {
  const ScrubbedFile s = Scrub("int a; \\\nint b;\n// c \\\nrand()\n");
  // 1-based: [0] unused + 4 physical lines + trailing empty line.
  ASSERT_EQ(s.code.size(), 6u);
  EXPECT_EQ(s.code[1], "int a; ");
  EXPECT_EQ(s.code[2], "int b;");
  EXPECT_TRUE(s.code[4].find("rand") == std::string::npos)
      << "spliced comment leaked into code: " << s.code[4];
  EXPECT_NE(s.comment[4].find("rand()"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Suppression hygiene (unused-suppression).
// ---------------------------------------------------------------------------

TEST(LintCorpusTest, UnusedSuppressionsAreFindings) {
  const auto findings =
      LintFile("src/util/fixture.cc", ReadCorpus("unused_suppression.cc"));
  ASSERT_EQ(findings.size(), 2u) << Dump(findings);
  EXPECT_EQ(findings[0].line, 6u);
  EXPECT_EQ(findings[0].rule, "unused-suppression");
  EXPECT_NE(findings[0].message.find("anymore"), std::string::npos);
  EXPECT_EQ(findings[1].line, 8u);
  EXPECT_EQ(findings[1].rule, "unused-suppression");
  EXPECT_NE(findings[1].message.find("not a known rule"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-TU project rules (phase-2 rules_project.cc) on fixture trees.
// ---------------------------------------------------------------------------

TEST(ProjectRulesTest, LayerDagViolationNamesTheIncludeChain) {
  const auto report = LintFixtureTree("layer_dag");
  ASSERT_EQ(report.findings.size(), 1u) << Dump(report.findings);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.file, "src/stats/metrics.h");
  EXPECT_EQ(f.line, 2u);
  EXPECT_EQ(f.rule, "layer-dag");
  // The chain names the consumer that reaches the violating header.
  EXPECT_NE(f.message.find("src/stats/user.cc -> src/stats/metrics.h -> "
                           "\"synth/gen.h\""),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("rank 1"), std::string::npos);
  EXPECT_NE(f.message.find("rank 2"), std::string::npos);
  EXPECT_NE(f.message.find("util -> {stats, trace} -> synth"),
            std::string::npos);
}

TEST(ProjectRulesTest, LayerDagEnergyIsRankFourAndCdnMustNotReachIt) {
  // energy sits beside analysis (rank 4): it may include cdn, but a cdn
  // header reaching back into energy is an upward inversion.
  const auto report = LintFixtureTree("layer_dag_energy");
  ASSERT_EQ(report.findings.size(), 1u) << Dump(report.findings);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.file, "src/cdn/delivery.h");
  EXPECT_EQ(f.line, 2u);
  EXPECT_EQ(f.rule, "layer-dag");
  EXPECT_NE(f.message.find("src/cdn/delivery.cc -> src/cdn/delivery.h -> "
                           "\"energy/model.h\""),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("'cdn' (rank 3) must not depend on 'energy' "
                           "(rank 4)"),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("{analysis, energy}"), std::string::npos)
      << f.message;
}

TEST(ProjectRulesTest, LockOrderCycleReportsBothWitnesses) {
  const auto report = LintFixtureTree("lock_order_cycle");
  ASSERT_EQ(report.findings.size(), 1u) << Dump(report.findings);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "lock-order");
  EXPECT_EQ(f.file, "src/util/ab.cc");
  EXPECT_EQ(f.line, 4u);
  // Both sides of the cycle, each with its witness site. The mutexes are
  // declared in the shared header, so both TUs resolve to the same keys.
  EXPECT_NE(f.message.find("src/util/locks.h::a_"), std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("witnessed at src/util/ab.cc:4"),
            std::string::npos);
  EXPECT_NE(f.message.find("witnessed at src/util/ba.cc:4"),
            std::string::npos);
  EXPECT_NE(f.message.find("'b_' acquired while holding 'a_'"),
            std::string::npos);
  EXPECT_NE(f.message.find("'a_' acquired while holding 'b_'"),
            std::string::npos);
}

TEST(ProjectRulesTest, ConsistentLockOrderIsClean) {
  const auto report = LintFixtureTree("lock_order_clean");
  EXPECT_TRUE(report.findings.empty()) << Dump(report.findings);
}

TEST(ProjectRulesTest, SelfDeadlockIsACycle) {
  const std::string source =
      "struct S {\n"
      "  Mutex mu_;\n"
      "  int x_ ATLAS_GUARDED_BY(mu_) = 0;\n"
      "  void F();\n"
      "};\n"
      "void S::F() {\n"
      "  MutexLock a(mu_);\n"
      "  MutexLock b(mu_);\n"
      "}\n";
  const auto findings = LintFile("src/util/fixture.cc", source);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_EQ(findings[0].line, 8u);
}

TEST(ProjectRulesTest, UnguardedParallelWriteFires) {
  const auto report = LintFixtureTree("unguarded_write");
  ASSERT_EQ(report.findings.size(), 1u) << Dump(report.findings);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.file, "src/stats/acc.cc");
  EXPECT_EQ(f.line, 5u);
  EXPECT_EQ(f.rule, "unguarded-parallel-write");
  EXPECT_NE(f.message.find("'total_'"), std::string::npos) << f.message;
  // guarded_ (ATLAS_GUARDED_BY in the sibling header), hits_ (atomic) and
  // relaxed_ (scoped allow) produced nothing — and the allow was consumed,
  // so no unused-suppression either.
}

TEST(ProjectRulesTest, PoolRunLambdasAreParallelRegions) {
  // A lambda handed to a pool's Run, and one handed to a function that
  // forwards its callback to Run — in its own file or another — runs on
  // the pool. The serial loop's write stays quiet.
  const auto report = LintFixtureTree("pool_run");
  ASSERT_EQ(report.findings.size(), 3u) << Dump(report.findings);
  const std::vector<std::tuple<std::string, std::size_t, std::string>> want =
      {{"src/stats/pool.cc", 7, "'direct_'"},
       {"src/stats/pool.cc", 8, "'forwarded_'"},
       {"src/stats/user.cc", 5, "'hits_'"}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Finding& f = report.findings[i];
    EXPECT_EQ(f.file, std::get<0>(want[i]));
    EXPECT_EQ(f.line, std::get<1>(want[i]));
    EXPECT_EQ(f.rule, "unguarded-parallel-write");
    EXPECT_NE(f.message.find(std::get<2>(want[i])), std::string::npos)
        << f.message;
  }
}

TEST(ProjectRulesTest, FpAccumulationOrderFires) {
  const auto report = LintFixtureTree("fp_accum");
  ASSERT_EQ(report.findings.size(), 2u) << Dump(report.findings);
  EXPECT_EQ(report.findings[0].file, "src/stats/fold.cc");
  EXPECT_EQ(report.findings[0].line, 7u);
  EXPECT_EQ(report.findings[0].rule, "fp-accumulation-order");
  EXPECT_NE(report.findings[0].message.find("ParallelFor"),
            std::string::npos);
  EXPECT_EQ(report.findings[1].line, 13u);
  EXPECT_EQ(report.findings[1].rule, "fp-accumulation-order");
  EXPECT_NE(report.findings[1].message.find("ForEach"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Baseline: freeze, ratchet, and serialization round-trip.
// ---------------------------------------------------------------------------

TEST(BaselineTest, SerializeParseRoundTrip) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, 1, "nondet-rand", "m"},
      {"src/a.cc", 9, 1, "nondet-rand", "m"},
      {"src/b.h", 1, 1, "missing-pragma-once", "m"},
  };
  std::vector<std::string> errors;
  const Baseline parsed = ParseBaseline(SerializeBaseline(findings), &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(parsed.counts.size(), 2u);
  EXPECT_EQ(parsed.counts.at({"src/a.cc", "nondet-rand"}), 2u);
  EXPECT_EQ(parsed.counts.at({"src/b.h", "missing-pragma-once"}), 1u);
}

TEST(BaselineTest, MalformedLinesAreReported) {
  std::vector<std::string> errors;
  ParseBaseline("# ok\nsrc/a.cc nondet-rand\n", &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
}

TEST(BaselineTest, FreezesExactlyTheRecordedDebt) {
  const auto report = LintFixtureTree("layer_dag");
  ASSERT_EQ(report.findings.size(), 1u);
  Baseline b;
  b.counts[{"src/stats/metrics.h", "layer-dag"}] = 1;
  const auto applied = ApplyBaseline(report.findings, b);
  EXPECT_TRUE(applied.fresh.empty()) << Dump(applied.fresh);
  EXPECT_TRUE(applied.stale.empty()) << Dump(applied.stale);
}

TEST(BaselineTest, UnbaselinedFindingsAreFresh) {
  const auto report = LintFixtureTree("layer_dag");
  const auto applied = ApplyBaseline(report.findings, Baseline{});
  ASSERT_EQ(applied.fresh.size(), 1u);
  EXPECT_EQ(applied.fresh[0].rule, "layer-dag");
}

TEST(BaselineTest, BeyondCountFindingsAreFreshFromTheBottom) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, 1, "nondet-rand", "m"},
      {"src/a.cc", 9, 1, "nondet-rand", "m"},
  };
  Baseline b;
  b.counts[{"src/a.cc", "nondet-rand"}] = 1;
  const auto applied = ApplyBaseline(findings, b);
  ASSERT_EQ(applied.fresh.size(), 1u);
  EXPECT_EQ(applied.fresh[0].line, 9u);
}

TEST(BaselineTest, ShrunkDebtFlagsStaleEntry) {
  const auto report = LintFixtureTree("layer_dag");
  Baseline b;
  b.counts[{"src/stats/metrics.h", "layer-dag"}] = 2;
  b.counts[{"src/gone.cc", "nondet-rand"}] = 1;
  const auto applied = ApplyBaseline(report.findings, b);
  EXPECT_TRUE(applied.fresh.empty()) << Dump(applied.fresh);
  ASSERT_EQ(applied.stale.size(), 2u) << Dump(applied.stale);
  for (const Finding& f : applied.stale) {
    EXPECT_EQ(f.rule, "stale-baseline");
    EXPECT_NE(f.message.find("regenerate the baseline"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 output.
// ---------------------------------------------------------------------------

TEST(SarifTest, MatchesGoldenFile) {
  const auto report = LintFixtureTree("layer_dag");
  EXPECT_EQ(ToSarif(report.findings),
            ReadCorpus("project/layer_dag.sarif.json"));
}

TEST(SarifTest, StructureCarriesRuleCatalogAndLocations) {
  const std::vector<Finding> findings = {
      {"src/a \"b\".cc", 7, 3, "nondet-rand", "line1\nline2"},
  };
  const std::string sarif = ToSarif(findings);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"atlas-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"nondet-rand\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\":"), std::string::npos);
  EXPECT_NE(sarif.find("\"uriBaseId\":\"SRCROOT\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":7,\"startColumn\":3"),
            std::string::npos);
  // Escaping: the quote in the path and the newline in the message.
  EXPECT_NE(sarif.find("src/a \\\"b\\\".cc"), std::string::npos);
  EXPECT_NE(sarif.find("line1\\nline2"), std::string::npos);
  // One catalog entry per rule, in catalog order.
  for (const auto& rule : Rules()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(rule.name) + "\""),
              std::string::npos)
        << rule.name;
  }
}

// ---------------------------------------------------------------------------
// Registry, formatting, and the live tree.
// ---------------------------------------------------------------------------

TEST(LintRegistryTest, RuleNamesAreCompleteAndCovered) {
  const std::set<std::string> expected = {
      "ckpt-unversioned-blob", "fp-accumulation-order", "layer-dag",
      "lock-order",            "missing-pragma-once",   "mutex-unannotated",
      "narrow-byte-counter",   "nondet-rand",           "nondet-random-device",
      "nondet-system-clock",   "nondet-time",           "perrecord-in-hotpath",
      "raw-new-delete",        "raw-std-mutex",         "stale-baseline",
      "tracebuffer-in-cdn",    "unchecked-index-cast",  "unguarded-parallel-write",
      "unordered-iter",        "unused-suppression",
  };
  const auto names = RuleNames();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), expected);
  // The catalog is sorted: SARIF ruleIndex assignment depends on it.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(LintFormatTest, FormatFindingIsClickable) {
  const Finding with_col{"src/cdn/cache.cc", 12, 5, "raw-new-delete", "raw"};
  EXPECT_EQ(FormatFinding(with_col),
            "src/cdn/cache.cc:12:5: [raw-new-delete] raw");
  const Finding no_col{"src/cdn/cache.cc", 12, 0, "raw-new-delete", "raw"};
  EXPECT_EQ(FormatFinding(no_col), "src/cdn/cache.cc:12: [raw-new-delete] raw");
}

TEST(LintTreeTest, LiveTreeIsCleanAndThreadCountInvariant) {
  const ProjectReport t1 = LintProject(ATLAS_SOURCE_DIR, 1);
  EXPECT_TRUE(t1.findings.empty()) << Dump(t1.findings);
  // The report — and its SARIF serialization — must be byte-identical at
  // any thread count (shard-private sinks, sorted merge).
  const ProjectReport t2 = LintProject(ATLAS_SOURCE_DIR, 2);
  const ProjectReport t8 = LintProject(ATLAS_SOURCE_DIR, 8);
  EXPECT_EQ(t1.files_indexed, t2.files_indexed);
  EXPECT_EQ(t1.files_indexed, t8.files_indexed);
  EXPECT_TRUE(t1.findings == t2.findings);
  EXPECT_TRUE(t1.findings == t8.findings);
  EXPECT_EQ(ToSarif(t1.findings), ToSarif(t2.findings));
  EXPECT_EQ(ToSarif(t1.findings), ToSarif(t8.findings));
}

}  // namespace
}  // namespace atlas::lint
