/**
 * @file
 * Tests for viva-analyze over one fixture tree (analyze_fixtures/).
 *
 * Most rule tests are rows of one table: a row mounts fixture files at
 * virtual repo paths, so rule scoping is under test too, runs the whole
 * analyzer, and pins every finding of the rules it names as
 * "file:line" (the file's base name; ":rule" is appended when a row
 * names several rules). The suites are named after the pass they
 * exercise: Lint* (token rules), Check* (lexer and flow rules), Deps*
 * (include graph), Graph* (call graph) and Analyze* (the driver).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze.hh"
#include "tools/check_lexer.hh"
#include "tools/cli_common.hh"

namespace va = viva::analyze;
namespace vc = viva::check;
namespace fs = std::filesystem;

namespace
{

std::string
readText(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "missing fixture " << path.string();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** A fixture file mounted at a virtual repo path. */
va::FileInput
at(const std::string &path, const std::string &fixture)
{
    return {path, readText(fs::path(VIVA_ANALYZE_FIXTURES) / fixture)};
}

va::Result
run(const std::vector<va::FileInput> &files, std::size_t jobs = 1)
{
    va::Options options;
    options.jobs = jobs;
    return va::analyze(files, options);
}

/** The findings of the space-separated `rules`, as "file:line[:rule]". */
std::string
summary(const va::Result &result, const std::string &rules)
{
    std::istringstream words(rules);
    const std::set<std::string> wanted{
        std::istream_iterator<std::string>(words),
        std::istream_iterator<std::string>()};
    std::string out;
    for (const va::Finding &f : result.findings)
        if (wanted.count(f.rule))
            out += (out.empty() ? "" : " ") +
                   f.file.substr(f.file.rfind('/') + 1) + ":" +
                   std::to_string(f.line) +
                   (wanted.size() > 1 ? ":" + f.rule : "");
    return out;
}

/** One table row: the test `suite.name`. */
struct Row
{
    const char *suite;
    const char *name;
    const char *rules;
    std::vector<std::pair<const char *, const char *>> mounts;
    const char *expected;
    const char *manifest = nullptr;
};

const std::pair<const char *, const char *> kSinks = {
    "src/support/log.hh", "support_sinks.hh"};
const std::pair<const char *, const char *> kDriver = {"tests/driver.cc",
                                                       "driver.cc"};
const std::pair<const char *, const char *> kApi = {"src/demo/api.hh",
                                                    "expected_api.hh"};

const std::vector<Row> &
rows()
{
    static const std::vector<Row> table = {
        // --- token rules ---
        {"LintUnorderedIter", "FiresOnRangeFor", "unordered-iter",
         {{"src/agg/f.cc", "unordered_iter_bad.cc"}}, "f.cc:8"},
        {"LintUnorderedIter", "FiresOnBeginThroughAlias", "unordered-iter",
         {{"src/agg/f.cc", "unordered_iter_begin_bad.cc"}}, "f.cc:9"},
        {"LintUnorderedIter", "SuppressedByTrailingAllow",
         "unordered-iter waiver",
         {{"src/agg/f.cc", "unordered_iter_suppressed.cc"}}, ""},
        {"LintUnorderedIter", "SuppressedByAllowLineAbove",
         "unordered-iter waiver",
         {{"src/agg/f.cc", "suppress_line_above.cc"}}, ""},
        {"LintUnorderedIter", "CleanOnOrderedContainers", "unordered-iter",
         {{"src/agg/f.cc", "unordered_iter_ok.cc"}}, ""},
        {"LintRawRandom", "FiresOnRandAndRandomDevice", "raw-random",
         {{"src/trace/f.cc", "raw_random_bad.cc"}}, "f.cc:7 f.cc:8"},
        {"LintRawRandom", "SuppressedFileWide", "raw-random waiver",
         {{"src/trace/f.cc", "raw_random_suppressed.cc"}}, ""},
        {"LintRawRandom", "ExemptInSeededRngHelper", "raw-random",
         {{"src/support/random.hh", "raw_random_bad.cc"}}, ""},
        {"LintNewDelete", "FiresOnRawNewAndDelete", "raw-new-delete",
         {{"src/viz/f.cc", "new_delete_bad.cc"}}, "f.cc:4 f.cc:6"},
        {"LintNewDelete", "CleanOnDeletedMembersAndSmartPointers",
         "raw-new-delete", {{"src/viz/f.cc", "new_delete_ok.cc"}}, ""},
        {"LintFloatType", "FiresInLayoutScope", "float-type",
         {{"src/layout/f.cc", "float_bad.cc"}}, "f.cc:4"},
        {"LintFloatType", "OutOfScopeInViz", "float-type",
         {{"src/viz/f.cc", "float_bad.cc"}}, ""},
        // wall-clock and raw-chrono are the direct case of
        // clock-reachable: reported at each raw read.
        {"LintWallClock", "FiresOnSystemClockAndTime", "clock-reachable",
         {{"src/app/f.cc", "wall_clock_bad.cc"}}, "f.cc:7 f.cc:9"},
        {"LintWallClock", "FiresInBenchToo", "clock-reachable",
         {{"bench/f.cc", "wall_clock_bad.cc"}}, "f.cc:7 f.cc:9"},
        {"LintWallClock", "SteadyClockIsARawReadToo", "clock-reachable",
         {{"src/app/f.cc", "wall_clock_ok.cc"}}, "f.cc:6 f.cc:7"},
        {"LintRawChrono", "FiresOnDirectClockReads", "clock-reachable",
         {{"src/layout/f.cc", "raw_chrono_bad.cc"}}, "f.cc:6 f.cc:7"},
        {"LintRawChrono", "FiresInBenchToo", "clock-reachable",
         {{"bench/f.cc", "raw_chrono_bad.cc"}}, "f.cc:6 f.cc:7"},
        {"LintRawChrono", "ExemptInTheClockShim", "clock-reachable",
         {{"src/support/clock.cc", "raw_chrono_bad.cc"}}, ""},
        {"LintRawChrono", "OutOfScopeInTests", "clock-reachable",
         {{"tests/f.cc", "raw_chrono_bad.cc"}}, ""},
        {"LintRawChrono", "SuppressedByAllow", "clock-reachable waiver",
         {{"src/layout/f.cc", "raw_chrono_suppressed.cc"}}, ""},
        {"LintRawChrono", "CleanOnTheInjectedClock", "clock-reachable",
         {{"src/layout/f.cc", "raw_chrono_ok.cc"}}, ""},
        {"LintPragmaOnce", "FiresOnGuardedHeader", "pragma-once",
         {{"src/viz/f.hh", "pragma_once_bad.hh"}}, "f.hh:1"},
        {"LintPragmaOnce", "CleanWithPragma", "pragma-once",
         {{"src/viz/f.hh", "pragma_once_ok.hh"}}, ""},
        {"LintPragmaOnce", "HeadersOnlyRuleIgnoresSources", "pragma-once",
         {{"src/viz/f.cc", "pragma_once_bad.hh"}}, ""},
        {"LintIncludeHygiene", "FiresOnParentIncludeAndUsingNamespace",
         "include-hygiene", {{"src/viz/f.hh", "include_hygiene_bad.hh"}},
         "f.hh:3 f.hh:5"},
        {"LintAssertSideEffect", "FiresOnMutationInAsserts",
         "assert-side-effect",
         {{"src/agg/f.cc", "assert_side_effect_bad.cc"}},
         "f.cc:6 f.cc:7 f.cc:8"},
        {"LintAssertSideEffect", "CleanOnPureExpressions",
         "assert-side-effect",
         {{"src/agg/f.cc", "assert_side_effect_ok.cc"}}, ""},
        {"LintAssertSideEffect", "AppliesEverywhereIncludingTests",
         "assert-side-effect",
         {{"tests/f.cc", "assert_side_effect_bad.cc"}},
         "f.cc:6 f.cc:7 f.cc:8"},
        // no-fatal-below-app is the direct case of fatal-reachable.
        {"LintNoFatalBelowApp", "FiresInLibraryCode", "fatal-reachable",
         {kSinks, {"src/trace/f.cc", "fatal_below_app_bad.cc"}},
         "f.cc:8 f.cc:9"},
        {"LintNoFatalBelowApp", "AppLayerIsExempt", "fatal-reachable",
         {kSinks, {"src/app/f.cc", "fatal_below_app_bad.cc"}}, ""},
        {"LintNoFatalBelowApp", "LoggingAndInvariantMachineryAreExempt",
         "fatal-reachable",
         {kSinks, {"src/support/logging.cc", "fatal_below_app_bad.cc"},
          {"src/support/invariant.hh", "fatal_below_app_bad.cc"}},
         ""},
        {"LintNoFatalBelowApp", "OutOfScopeOutsideSrc", "fatal-reachable",
         {kSinks, {"tests/f.cc", "fatal_below_app_bad.cc"}}, ""},
        {"LintNoFatalBelowApp", "SuppressedByTrailingAllow",
         "fatal-reachable waiver",
         {kSinks, {"src/trace/f.cc", "fatal_below_app_suppressed.cc"}}, ""},
        {"LintRawRename", "FiresOnStdAndFilesystemRename", "raw-rename",
         {{"src/trace/f.cc", "raw_rename_bad.cc"}}, "f.cc:7 f.cc:9"},
        {"LintRawRename", "CleanOnAtomicReplace", "raw-rename",
         {{"src/trace/f.cc", "raw_rename_ok.cc"}}, ""},
        {"LintRawRename", "AppliesInTestsAndToolsToo", "raw-rename",
         {{"tests/f.cc", "raw_rename_bad.cc"},
          {"tools/g.cc", "raw_rename_bad.cc"}},
         "f.cc:7 f.cc:9 g.cc:7 g.cc:9"},
        {"LintRawRename", "SuppressedByTrailingAllow", "raw-rename waiver",
         {{"src/trace/f.cc", "raw_rename_suppressed.cc"}}, ""},

        // --- flow rules ---
        {"CheckUnchecked", "FiresOnDiscardedResults", "unchecked-expected",
         {kApi, {"bench/demo.cc", "unchecked_bad.cc"}},
         "demo.cc:8 demo.cc:9 demo.cc:10"},
        {"CheckUnchecked", "CleanWhenBoundTestedOrPassedOn",
         "unchecked-expected", {kApi, {"bench/demo.cc", "unchecked_good.cc"}},
         ""},
        {"CheckUnchecked", "WaivedWithRationale", "unchecked-expected waiver",
         {kApi, {"bench/demo.cc", "unchecked_waived.cc"}}, ""},
        {"CheckUnchecked", "WaiverWithoutRationaleIsAFinding",
         "unchecked-expected waiver",
         {kApi, {"bench/demo.cc", "unchecked_norationale.cc"}},
         "demo.cc:8:unchecked-expected demo.cc:8:waiver"},
        {"CheckContext", "FiresOnBarePropagation", "context-on-propagate",
         {kApi, {"src/app/demo.cc", "context_bad.cc"}},
         "demo.cc:8 demo.cc:16"},
        {"CheckContext", "OutOfScopeOutsideSrc", "context-on-propagate",
         {kApi, {"bench/demo.cc", "context_bad.cc"}}, ""},
        {"CheckContext", "CleanWithContextWrap", "context-on-propagate",
         {kApi, {"src/app/demo.cc", "context_good.cc"}}, ""},
        {"CheckContext", "WaivedShim", "context-on-propagate waiver",
         {kApi, {"src/app/demo.cc", "context_waived.cc"}}, ""},
        {"CheckObsManifest", "CleanWhenInSync", "obs-phase-manifest",
         {{"src/trace/demo.cc", "obs_phase.cc"}}, "",
         "# header\ndemo.phase\n"},
        {"CheckObsManifest", "FiresOnUnlistedPhase", "obs-phase-manifest",
         {{"src/trace/demo.cc", "obs_phase.cc"}}, "demo.cc:9", ""},
        {"CheckObsManifest", "FiresOnStaleManifestEntry",
         "obs-phase-manifest", {{"src/trace/demo.cc", "obs_phase.cc"}},
         "obs_manifest.txt:2", "demo.phase\nstale.entry\n"},
        {"CheckObsManifest", "RegistrationsOutsideSrcIgnored",
         "obs-phase-manifest", {{"tests/demo.cc", "obs_phase.cc"}}, "", ""},
        {"CheckObsManifest", "WaivedScratchPhase", "obs-phase-manifest waiver",
         {{"src/trace/demo.cc", "obs_phase_waived.cc"}}, "", ""},

        // --- call-graph rules ---
        {"GraphRules", "FatalReachableTriple", "fatal-reachable waiver",
         {kSinks, {"src/demo/fatal_bad.cc", "fatal_bad.cc"},
          {"src/demo/fatal_good.cc", "fatal_good.cc"},
          {"src/demo/fatal_waived.cc", "fatal_waived.cc"}, kDriver},
         "fatal_bad.cc:11:fatal-reachable fatal_bad.cc:16:fatal-reachable"},
        {"GraphRules", "ClockReachableTriple", "clock-reachable waiver",
         {{"src/support/clock.cc", "clock_shim.cc"},
          {"src/demo/clock_bad.cc", "clock_bad.cc"},
          {"src/demo/clock_good.cc", "clock_good.cc"},
          {"src/demo/clock_waived.cc", "clock_waived.cc"}, kDriver},
         "clock_bad.cc:11:clock-reachable clock_bad.cc:15:clock-reachable"},
        {"GraphRules", "IoInHotPathTriple", "io-in-hot-path waiver",
         {kSinks, {"src/demo/hot_bad.cc", "hot_bad.cc"},
          {"src/demo/hot_good.cc", "hot_good.cc"},
          {"src/demo/hot_waived.cc", "hot_waived.cc"}, kDriver},
         "hot_bad.cc:19:io-in-hot-path"},
        {"GraphRules", "DeadSymbolTriple", "dead-symbol waiver",
         {{"src/demo/dead_bad.cc", "dead_bad.cc"},
          {"src/demo/dead_good.cc", "dead_good.cc"},
          {"src/demo/dead_waived.cc", "dead_waived.cc"}, kDriver},
         "dead_bad.cc:7:dead-symbol"},
        {"GraphRules", "BrokenWaiversAreFindings", "waiver",
         {{"src/demo/waiver_bad.cc", "waiver_bad.cc"}},
         "waiver_bad.cc:6 waiver_bad.cc:14 waiver_bad.cc:20"},
    };
    return table;
}

class RowTest : public testing::Test
{
  public:
    explicit RowTest(const Row &row) : row_(row) {}

    void
    TestBody() override
    {
        std::vector<va::FileInput> files;
        for (const auto &[path, fixture] : row_.mounts)
            files.push_back(at(path, fixture));
        va::Options options;
        if (row_.manifest)
            options.manifest = row_.manifest;
        EXPECT_EQ(summary(va::analyze(files, options), row_.rules),
                  row_.expected);
    }

  private:
    const Row &row_;
};

const bool kRowsRegistered = [] {
    for (const Row &row : rows())
        testing::RegisterTest(
            row.suite, row.name, nullptr, nullptr, __FILE__, __LINE__,
            [&row]() -> testing::Test * {
                // viva-analyze: allow(raw-new-delete): gtest takes ownership
                return new RowTest(row);
            });
    return true;
}();

/** Tokens of `text` with comments dropped. */
std::vector<vc::Token>
codeTokens(const std::string &text)
{
    std::vector<vc::Token> out;
    for (vc::Token &t : vc::lex(text))
        if (t.kind != vc::Tok::Comment)
            out.push_back(std::move(t));
    return out;
}

/** The findings of the Include pass on a layering fixture tree. */
va::Result
analyzeTree(const std::string &tree)
{
    const fs::path root = fs::path(VIVA_ANALYZE_FIXTURES) / "layering" / tree;
    std::vector<va::FileInput> files;
    for (const auto &entry : fs::recursive_directory_iterator(root))
        if (entry.path().extension() == ".hh")
            files.push_back(
                {fs::relative(entry.path(), root).generic_string(),
                 readText(entry.path())});
    std::sort(files.begin(), files.end(),
              [](const va::FileInput &a, const va::FileInput &b) {
                  return a.path < b.path;
              });
    va::Options options;
    options.layering = readText(root / "rules.txt");
    return va::analyze(files, options);
}

const char *const kTwoLayers = "layer support src/support/\n"
                               "layer app     src/app/\n"
                               "allow app -> support\n";
const char *const kAppHeader = "#pragma once\nint session();\n";

/** The Include-pass findings for `files` under kTwoLayers. */
std::vector<va::Finding>
layered(const std::vector<va::FileInput> &files)
{
    va::Options options;
    options.layering = kTwoLayers;
    std::vector<va::Finding> out;
    for (va::Finding &f : va::analyze(files, options).findings)
        if (f.rule != "dead-symbol")
            out.push_back(std::move(f));
    return out;
}

std::vector<va::FileInput>
graphFixtureSet()
{
    std::vector<va::FileInput> files = {
        at(kSinks.first, kSinks.second),
        at("src/support/clock.cc", "clock_shim.cc"),
        at(kDriver.first, kDriver.second)};
    for (const char *name :
         {"fatal_bad", "fatal_good", "fatal_waived", "clock_bad",
          "clock_good", "clock_waived", "hot_bad", "hot_good", "hot_waived",
          "dead_bad", "dead_good", "dead_waived"})
        files.push_back(at("src/demo/" + std::string(name) + ".cc",
                           std::string(name) + ".cc"));
    return files;
}

std::vector<std::string>
formatted(const va::Result &result)
{
    std::vector<std::string> out;
    for (const va::Finding &f : result.findings)
        out.push_back(va::formatFinding(f));
    return out;
}

} // namespace

// --- token rules and the CLI contract -----------------------------------

TEST(LintEngine, ViolationsInCommentsAndStringsAreIgnored)
{
    const std::string content = "// int *p = new int;\n"
                                "const char *s = \"delete everything\";\n"
                                "/* std::random_device dev; */\n";
    EXPECT_TRUE(run({{"src/app/fixture.cc", content}}).findings.empty());
}

TEST(LintEngine, StripPreservesLineStructure)
{
    // What the rules read: comments and literals never show up as
    // code, and the code after them keeps its line.
    const auto toks =
        codeTokens("int a; // new int\n\"delete\"\n/* rand() */ int b;\n");
    for (const vc::Token &t : toks)
        EXPECT_TRUE(t.kind != vc::Tok::Identifier ||
                    (t.text != "new" && t.text != "delete" &&
                     t.text != "rand"))
            << t.text;
    ASSERT_EQ(toks.size(), 7u);
    EXPECT_EQ(toks[4].text, "int");
    EXPECT_EQ(toks[4].line, 3u);
}

TEST(LintEngine, FindingsAreOrderedAndFormatted)
{
    const std::string content =
        "double zero() { return 0.0; }\n"
        "double a() { return double(time(nullptr)); }\n"
        "double b() { return double(time(nullptr)); }\n";
    const va::Result result = run({{"src/app/fixture.cc", content}});
    EXPECT_EQ(summary(result, "clock-reachable"), "fixture.cc:2 fixture.cc:3");
    const std::vector<std::string> text = formatted(result);
    EXPECT_TRUE(std::is_sorted(text.begin(), text.end()));
    EXPECT_NE(std::find_if(text.begin(), text.end(),
                           [](const std::string &line) {
                               return line.rfind("src/app/fixture.cc:2: "
                                                 "[clock-reachable] ",
                                                 0) == 0;
                           }),
              text.end());
}

TEST(LintEngine, WholeTreeIsCleanByConstruction)
{
    // The whole-tree scan is the `analyze` ctest target; the engine
    // itself accepts an empty input set without findings.
    EXPECT_TRUE(run({}).findings.empty());
}

TEST(LintJobs, FindingsIdenticalAcrossThreadCounts)
{
    const std::vector<va::FileInput> files = {
        at("src/demo/a.cc", "unordered_iter_bad.cc"),
        at("src/demo/b.cc", "raw_random_bad.cc"),
        at("src/demo/c.cc", "new_delete_bad.cc"),
        at("src/layout/d.cc", "float_bad.cc"),
        at("src/demo/e.cc", "assert_side_effect_bad.cc"),
        at("src/demo/f.cc", "raw_chrono_bad.cc"),
    };
    const std::vector<std::string> serial = formatted(run(files, 1));
    EXPECT_GT(serial.size(), 0u);
    EXPECT_EQ(formatted(run(files, 4)), serial);
}

TEST(CliContract, ExitCodesAreTheSharedContract)
{
    EXPECT_EQ(viva::cli::kExitClean, 0);
    EXPECT_EQ(viva::cli::kExitFindings, 1);
    EXPECT_EQ(viva::cli::kExitUsage, 2);
    EXPECT_EQ(viva::cli::exitCodeForFindings(0), viva::cli::kExitClean);
    EXPECT_EQ(viva::cli::exitCodeForFindings(42), viva::cli::kExitFindings);
}

TEST(CliContract, MissingSubdirIsAnError)
{
    // A scan of a missing subdirectory fails loudly (exit 2), never as
    // a silently-empty clean run.
    std::vector<va::FileInput> files;
    std::ostringstream err;
    EXPECT_FALSE(viva::cli::collectSources(
        "viva-analyze", fs::temp_directory_path(),
        {"no_such_subdir_xyzzy"}, files, err));
    EXPECT_NE(err.str().find("not a directory"), std::string::npos);
}

TEST(CliContract, CollectSkipsFixturesAndSorts)
{
    const fs::path root = fs::temp_directory_path() / "viva_cli_contract";
    fs::remove_all(root);
    fs::create_directories(root / "src");
    fs::create_directories(root / "tests" / "analyze_fixtures");
    std::ofstream(root / "src" / "b.cc") << "int b;\n";
    std::ofstream(root / "src" / "a.hh") << "int a;\n";
    std::ofstream(root / "src" / "ignored.txt") << "text\n";
    std::ofstream(root / "tests" / "analyze_fixtures" / "bad.cc")
        << "int bad;\n";

    std::vector<va::FileInput> files;
    std::ostringstream err;
    ASSERT_TRUE(viva::cli::collectSources("viva-analyze", root,
                                          {"src", "tests"}, files, err));
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].path, "src/a.hh");
    EXPECT_EQ(files[1].path, "src/b.cc");
    fs::remove_all(root);
}

// --- lexer and flow rules -----------------------------------------------

TEST(CheckLexer, RawStringIsOneToken)
{
    auto toks =
        codeTokens("auto s = R\"(no // comment \"inside\")\";\nint x;");
    ASSERT_GE(toks.size(), 7u);
    EXPECT_EQ(toks[3].kind, vc::Tok::RawString);
    EXPECT_EQ(toks[3].text, "no // comment \"inside\"");
    EXPECT_EQ(toks[5].text, "int");
    EXPECT_EQ(toks[5].line, 2u);
}

TEST(CheckLexer, RawStringWithDelimiterAndPrefix)
{
    auto toks = codeTokens("auto s = u8R\"xy(a)\"b)xy\";");
    ASSERT_GE(toks.size(), 4u);
    EXPECT_EQ(toks[3].kind, vc::Tok::RawString);
    EXPECT_EQ(toks[3].text, "a)\"b");
}

TEST(CheckLexer, LineSpliceInsideIdentifier)
{
    auto toks = codeTokens("ab\\\ncd = 1;");
    ASSERT_GE(toks.size(), 1u);
    EXPECT_EQ(toks[0].kind, vc::Tok::Identifier);
    EXPECT_EQ(toks[0].text, "abcd");
}

TEST(CheckLexer, SplicedLineCommentSwallowsNextLine)
{
    // The backslash-newline continues the // comment: `hidden` is
    // comment text, not code.
    auto toks = codeTokens("// note \\\nhidden();\nint visible;");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[0].line, 3u);
    EXPECT_EQ(toks[1].text, "visible");
}

TEST(CheckLexer, DigitSeparatorIsNotACharLiteral)
{
    auto toks = codeTokens("int x = 1'000'000; char c = 'q';");
    ASSERT_GE(toks.size(), 10u);
    EXPECT_EQ(toks[3].kind, vc::Tok::Number);
    EXPECT_EQ(toks[3].text, "1'000'000");
    EXPECT_EQ(toks[8].kind, vc::Tok::CharLit);
    EXPECT_EQ(toks[8].text, "q");
}

TEST(CheckLexer, NoDigraphSurprises)
{
    // `<:` stays two punctuators, not the digraph '['.
    auto toks = codeTokens("set<::viva::Id> s;");
    ASSERT_GE(toks.size(), 3u);
    EXPECT_EQ(toks[1].text, "<");
    EXPECT_EQ(toks[2].text, "::");
}

TEST(CheckLexer, EscapedQuoteInsideString)
{
    auto toks = codeTokens("auto s = \"a\\\"b\"; int y;");
    ASSERT_GE(toks.size(), 6u);
    EXPECT_EQ(toks[3].kind, vc::Tok::String);
    EXPECT_EQ(toks[3].text, "a\\\"b");
    EXPECT_EQ(toks[5].text, "int");
}

TEST(CheckLexer, PreprocessorLineIsFlagged)
{
    auto toks = codeTokens("#define FOO bar()\nint x;");
    ASSERT_GE(toks.size(), 7u);
    EXPECT_TRUE(toks[0].inPreproc);   // '#'
    EXPECT_TRUE(toks[3].inPreproc);   // 'bar'
    EXPECT_EQ(toks[6].text, "int");
    EXPECT_FALSE(toks[6].inPreproc);  // the next line leaves it
}

TEST(CheckLexer, StripBlanksRawStringsAndKeepsLines)
{
    // A raw string spanning lines is one token, its "comment" is
    // literal text, and the lines after it keep their numbers.
    const auto toks = codeTokens(
        "auto s = R\"(line1\nline2 // not a comment)\";\nint x; // gone\n");
    ASSERT_EQ(toks.size(), 8u);
    EXPECT_EQ(toks[3].kind, vc::Tok::RawString);
    EXPECT_EQ(toks[3].text, "line1\nline2 // not a comment");
    EXPECT_EQ(toks[5].text, "int");
    EXPECT_EQ(toks[5].line, 3u);
}

TEST(CheckHarvest, ExpectedAndErrorReturnsFromHeader)
{
    // load/save/render return Expected and annotate returns Error, so
    // dropping any of them fires; the forward-declared Expected
    // template itself is no callee.
    const std::string content = "void demo(viva::app::Session &s) {\n"
                                "    s.load(\"a\");\n"
                                "    s.save(\"b\");\n"
                                "    s.render(\"c\");\n"
                                "    viva::app::annotate(\"d\");\n"
                                "    Expected(0);\n"
                                "}\n";
    EXPECT_EQ(summary(run({at(kApi.first, kApi.second),
                           {"bench/demo.cc", content}}),
                      "unchecked-expected"),
              "demo.cc:2 demo.cc:3 demo.cc:4 demo.cc:5");
}

TEST(CheckObsManifest, HarvestIsSortedAndUnique)
{
    EXPECT_EQ(va::harvestPhaseNames({at("src/a.cc", "obs_phase.cc"),
                                     at("src/b.cc", "obs_phase.cc"),
                                     at("tests/c.cc", "obs_phase_waived.cc")}),
              std::vector<std::string>{"demo.phase"});
}

TEST(CheckOutput, FindingFormat)
{
    EXPECT_EQ(va::formatFinding({"src/a.cc", 12, "unchecked-expected", "msg"}),
              "src/a.cc:12: [unchecked-expected] msg");
}

TEST(CheckOutput, JsonIsByteStableAcrossRuns)
{
    const std::vector<va::FileInput> files = {
        at(kApi.first, kApi.second), at("bench/demo.cc", "unchecked_bad.cc")};
    EXPECT_EQ(va::formatJson(run(files)), va::formatJson(run(files)));
}

TEST(CheckOutput, JsonShapeAndEscaping)
{
    va::Result result;
    result.files = 2;
    result.findings = {{"src/a.cc", 3, "waiver", "say \"why\"\n"}};
    const std::string doc = va::formatJson(result);
    EXPECT_NE(doc.find("\"schema\": \"viva-analyze-1\""), std::string::npos);
    EXPECT_NE(doc.find("\"files\": 2"), std::string::npos);
    EXPECT_NE(doc.find("say \\\"why\\\"\\n"), std::string::npos);
}

TEST(CheckOutput, EmptyFindingsJson)
{
    EXPECT_NE(va::formatJson(va::Result{}).find("\"findings\": []"),
              std::string::npos);
}

TEST(CheckJobs, FindingsIdenticalAcrossThreadCounts)
{
    const std::vector<va::FileInput> files = {
        at(kApi.first, kApi.second),
        at("src/demo/a.cc", "unchecked_bad.cc"),
        at("src/demo/b.cc", "context_bad.cc"),
        at("src/demo/c.cc", "unchecked_norationale.cc"),
    };
    const std::vector<std::string> serial = formatted(run(files, 1));
    EXPECT_GT(serial.size(), 0u);
    EXPECT_EQ(formatted(run(files, 4)), serial);
}

// --- include graph ------------------------------------------------------

TEST(DepsTrees, CleanDagPasses)
{
    EXPECT_EQ(summary(analyzeTree("clean"),
                      "illegal-edge include-cycle layering-rules"),
              "");
}

TEST(DepsTrees, IllegalEdgeCaught)
{
    const va::Result result = analyzeTree("illegal");
    ASSERT_EQ(summary(result, "illegal-edge include-cycle"),
              "helper.hh:2:illegal-edge");
    for (const va::Finding &f : result.findings)
        if (f.rule == "illegal-edge") {
            EXPECT_EQ(f.file, "src/support/helper.hh");
            EXPECT_NE(f.message.find("'support'"), std::string::npos);
            EXPECT_NE(f.message.find("'app'"), std::string::npos);
        }
}

TEST(DepsTrees, IncludeCycleCaught)
{
    // The three-header knot is reported once, naming every member.
    const va::Result result = analyzeTree("cycle");
    ASSERT_EQ(summary(result, "include-cycle"), "c.hh:2");
    for (const va::Finding &f : result.findings) {
        if (f.rule == "include-cycle") {
            EXPECT_EQ(f.message, "include cycle: src/support/a.hh -> "
                                 "src/support/b.hh -> src/support/c.hh -> "
                                 "src/support/a.hh");
        }
    }
}

TEST(DepsWaivers, TrailingWaiverSuppressesEdge)
{
    EXPECT_TRUE(layered({{"src/app/session.hh", kAppHeader},
                         {"src/support/helper.hh",
                          "#pragma once\n"
                          "#include \"app/session.hh\" // viva-analyze: "
                          "allow(illegal-edge): legacy shim\n"}})
                    .empty());
}

TEST(DepsWaivers, LineAboveWaiverSuppressesEdge)
{
    EXPECT_TRUE(layered({{"src/app/session.hh", kAppHeader},
                         {"src/support/helper.hh",
                          "#pragma once\n"
                          "// viva-analyze: allow(illegal-edge): legacy shim\n"
                          "#include \"app/session.hh\"\n"}})
                    .empty());
}

TEST(DepsWaivers, WrongEdgeWaiverDoesNotSuppress)
{
    // The waiver sits on the other include's line.
    const std::vector<va::Finding> findings =
        layered({{"src/app/session.hh", kAppHeader},
                 {"src/app/view.hh", kAppHeader},
                 {"src/support/helper.hh",
                  "#pragma once\n"
                  "#include \"app/view.hh\" // viva-analyze: "
                  "allow(illegal-edge): tracked in DESIGN.md\n"
                  "#include \"app/session.hh\"\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "illegal-edge");
    EXPECT_EQ(findings[0].line, 3u);
}

TEST(DepsWaivers, MissingRationaleIsItselfAViolation)
{
    // A waiver without a rationale is a finding and waives nothing.
    const std::vector<va::Finding> findings =
        layered({{"src/app/session.hh", kAppHeader},
                 {"src/support/helper.hh",
                  "#pragma once\n"
                  "#include \"app/session.hh\" // viva-analyze: "
                  "allow(illegal-edge)\n"}});
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].rule, "illegal-edge");
    EXPECT_EQ(findings[1].rule, "waiver");
    EXPECT_EQ(findings[1].line, 2u);
    EXPECT_NE(findings[1].message.find("rationale"), std::string::npos);
}

TEST(DepsRules, MalformedDirectiveRejected)
{
    va::Layering layering;
    std::string error;
    EXPECT_FALSE(va::parseLayering("layre support src/support/\n", layering,
                                   error));
    EXPECT_NE(error.find("unknown directive"), std::string::npos);
    EXPECT_FALSE(va::parseLayering("allow app support\n", layering, error));
    EXPECT_FALSE(va::parseLayering("layer lonely\n", layering, error));
}

TEST(DepsRules, UnknownAndDuplicateLayersRejected)
{
    va::Layering layering;
    std::string error;
    EXPECT_FALSE(va::parseLayering("layer app src/app/\nallow app -> ghost\n",
                                   layering, error));
    EXPECT_NE(error.find("ghost"), std::string::npos);
    EXPECT_FALSE(va::parseLayering("layer app src/app/\nlayer app src/x/\n",
                                   layering, error));
    EXPECT_NE(error.find("twice"), std::string::npos);
}

TEST(DepsRules, CommentsAndStarEdges)
{
    va::Layering layering;
    std::string error;
    const std::string text = "# header comment\n"
                             "layer tests tests/  # trailing\n"
                             "layer app   src/app/\n"
                             "allow tests -> *\n";
    ASSERT_TRUE(va::parseLayering(text, layering, error)) << error;
    EXPECT_EQ(layering.layers.size(), 2u);
    EXPECT_EQ(layering.unrestricted.count("tests"), 1u);
    va::Options options;
    options.layering = text;
    EXPECT_EQ(summary(va::analyze({{"src/app/session.hh", kAppHeader},
                                   {"tests/app_test.cc",
                                    "#include \"app/session.hh\"\n"}},
                                  options),
                      "illegal-edge"),
              "");
}

TEST(DepsRules, AllowGraphCycleReported)
{
    va::Options options;
    options.layering = "layer a src/a/\nlayer b src/b/\n"
                       "allow a -> b\nallow b -> a\n";
    const va::Result result = va::analyze({}, options);
    ASSERT_EQ(summary(result, "layering-rules"), "layering.rules:0");
    EXPECT_NE(result.findings[0].message.find("cycle"), std::string::npos);
}

TEST(DepsEngine, LongestPrefixWinsLayerAssignment)
{
    va::Layering layering;
    std::string error;
    ASSERT_TRUE(va::parseLayering("layer src src/\n"
                                  "layer support src/support/\n",
                                  layering, error))
        << error;
    EXPECT_EQ(va::layerOf("src/support/util.hh", layering), "support");
    EXPECT_EQ(va::layerOf("src/app/session.hh", layering), "src");
    EXPECT_EQ(va::layerOf("bench/foo.cc", layering), "");
}

TEST(DepsEngine, CommentedOutIncludeIgnored)
{
    EXPECT_TRUE(layered({{"src/app/session.hh", kAppHeader},
                         {"src/support/helper.hh",
                          "#pragma once\n"
                          "// #include \"app/session.hh\"\n"
                          "/* #include \"app/session.hh\" */\n"}})
                    .empty());
}

TEST(DepsEngine, UnresolvedIncludesAreOutOfScope)
{
    // System and out-of-tree headers are never layering findings.
    EXPECT_TRUE(layered({{"src/support/helper.hh",
                          "#pragma once\n"
                          "#include <vector>\n"
                          "#include \"third_party/magic.hh\"\n"}})
                    .empty());
}

TEST(DepsEngine, RelativeIncludeResolvesThroughOwnDirectory)
{
    va::Options options;
    options.layering = kTwoLayers;
    EXPECT_EQ(summary(va::analyze({{"src/app/session.hh", kAppHeader},
                                   {"src/support/helper.hh",
                                    "#pragma once\n"
                                    "#include \"../app/session.hh\"\n"}},
                                  options),
                      "illegal-edge"),
              "helper.hh:2");
}

TEST(DepsEngine, ViolationsAreOrderedAndFormatted)
{
    const std::vector<va::Finding> findings =
        layered({{"src/app/session.hh", kAppHeader},
                 {"src/support/z.hh",
                  "#pragma once\n#include \"app/session.hh\"\n"},
                 {"src/support/a.hh",
                  "#pragma once\n#include \"app/session.hh\"\n"}});
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(va::formatFinding(findings[0]).rfind("src/support/a.hh:2: "
                                                   "[illegal-edge] ",
                                                   0),
              0u);
    EXPECT_EQ(findings[1].file, "src/support/z.hh");
}

// --- call graph ---------------------------------------------------------

TEST(GraphExtract, QualifiedNamesAndOverloads)
{
    // Nothing calls the fixture, so dead-symbol names each node once
    // by its qualified name: the two scale() overloads are one node.
    const va::Result result = run({at("src/demo/overload.cc", "overload.cc")});
    ASSERT_EQ(summary(result, "dead-symbol"), "overload.cc:7 overload.cc:19");
    EXPECT_NE(result.findings[0].message.find("'viva::demo::scale'"),
              std::string::npos);
    EXPECT_NE(result.findings[1].message.find("'viva::demo::entryOverload'"),
              std::string::npos);
}

TEST(GraphExtract, FunctionPointerCallIsUnresolved)
{
    EXPECT_EQ(run({at("src/demo/unresolved.cc", "unresolved.cc")})
                  .unresolvedSites,
              1u);
}

TEST(GraphExtract, OverloadSetCollapsesToOneNode)
{
    // Three definitions, two qualified names, one call edge each way.
    const va::Result result = run({at("src/demo/overload.cc", "overload.cc")});
    EXPECT_EQ(result.symbols, 2u);
    EXPECT_EQ(result.definedSymbols, 2u);
    EXPECT_EQ(result.edges, 1u);
}

TEST(GraphOutput, JsonAndDotIdenticalAcrossJobs)
{
    va::Options serial;
    serial.layering = "layer support src/support/\n"
                      "layer demo    src/demo/\n"
                      "layer tests   tests/\n"
                      "allow demo  -> support\n"
                      "allow tests -> *\n";
    va::Options threaded = serial;
    threaded.jobs = 4;
    const std::vector<va::FileInput> files = graphFixtureSet();
    const va::Result a = va::analyze(files, serial);
    const va::Result b = va::analyze(files, threaded);
    EXPECT_EQ(va::formatJson(a), va::formatJson(b));
    EXPECT_EQ(va::formatDot(a), va::formatDot(b));
    // The demo layer calls into support (fatal, the clock shim).
    EXPECT_NE(va::formatDot(a).find("\"demo\" -> \"support\""),
              std::string::npos);
}

// --- the driver ---------------------------------------------------------

TEST(AnalyzeRegistry, EveryRuleIsRegisteredOnce)
{
    std::set<std::string> ids;
    for (const va::Rule &rule : va::ruleRegistry()) {
        EXPECT_TRUE(ids.insert(rule.id).second) << rule.id;
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
    }
    EXPECT_TRUE(va::ruleApplies("clock-reachable", "bench/x.cc"));
    EXPECT_FALSE(va::ruleApplies("clock-reachable", "src/support/clock.cc"));
    EXPECT_FALSE(va::ruleApplies("no-such-rule", "src/x.cc"));
}

TEST(AnalyzeWaivers, OneGrammarInEveryPass)
{
    // One waiver grammar silences a token, a flow, an include and a
    // call rule alike; prose that merely mentions the marker is none.
    va::Options options;
    options.layering = kTwoLayers;
    const std::string marker = "// viva-analyze: ";
    const va::Result result = va::analyze(
        {at(kApi.first, kApi.second),
         at(kSinks.first, kSinks.second),
         {"src/app/session.hh", kAppHeader},
         {"src/support/helper.hh",
          "#pragma once\n"
          "#include \"app/session.hh\" " + marker +
              "allow(illegal-edge): shim\n"
              "// see viva-analyze: allow(x) in DESIGN.md\n"
              "inline void f(viva::app::Session &s) { " + marker +
              "allow(dead-symbol): demo\n"
              "    int r = rand(); " + marker + "allow(raw-new-delete, "
              "raw-random): demo\n"
              "    s.load(\"a\"); " + marker +
              "allow(unchecked-expected): demo\n"
              "    viva::support::fatal(\"x\"); " + marker +
              "allow(fatal-reachable): demo\n"
              "    (void)r;\n"
              "}\n"}},
        options);
    for (const va::Finding &f : result.findings) {
        EXPECT_NE(f.file, "src/support/helper.hh") << va::formatFinding(f);
        EXPECT_NE(f.rule, "waiver") << va::formatFinding(f);
    }
}
