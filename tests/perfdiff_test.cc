/**
 * @file
 * Tests for the viva-perfdiff library: the "viva-obs-1" parser must
 * round-trip exactly what support::obs::writeJson() emits and reject
 * everything else loudly, and the comparator must flag regressions
 * beyond the threshold while ignoring noise-floor phases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "support/obs.hh"
#include "tools/perfdiff.hh"

namespace obs = viva::support::obs;
namespace pd = viva::perfdiff;
namespace vs = viva::support;

namespace
{

/** A registry export with one of each metric kind, as JSON text. */
std::string
sampleJson()
{
    obs::Registry reg;
    reg.add(reg.counter("t.counter"), 42);
    reg.set(reg.gauge("t.gauge"), -5);
    obs::HistogramId h = reg.histogram("t.phase");
    reg.record(h, 1000);
    reg.record(h, 3000);
    std::ostringstream out;
    obs::writeJson(reg.snapshot(), out);
    return out.str();
}

/** Parse JSON text, asserting success. */
pd::ObsExport
parsed(const std::string &text)
{
    std::istringstream in(text);
    auto result = pd::parseObsJson(in);
    EXPECT_TRUE(result.ok())
        << (result.ok() ? "" : result.error().toString());
    return result.ok() ? *result : pd::ObsExport{};
}

/** An export with a single phase, for comparator tests. */
pd::ObsExport
phaseExport(std::uint64_t count, std::uint64_t sum)
{
    pd::ObsExport e;
    pd::PhaseStats p;
    p.count = count;
    p.sumNanos = sum;
    p.meanNanos = count ? sum / count : 0;
    e.phases["hot.loop"] = p;
    return e;
}

} // namespace

// --- parsing ----------------------------------------------------------------

TEST(PerfDiffParse, RoundTripsWriteJson)
{
    pd::ObsExport e = parsed(sampleJson());
    EXPECT_EQ(e.counters.at("t.counter"), 42u);
    EXPECT_EQ(e.gauges.at("t.gauge"), -5);
    const pd::PhaseStats &p = e.phases.at("t.phase");
    EXPECT_EQ(p.count, 2u);
    EXPECT_EQ(p.sumNanos, 4000u);
    EXPECT_EQ(p.meanNanos, 2000u);
}

TEST(PerfDiffParse, AlwaysSeesTheDropCounter)
{
    // Every registry carries obs.dropped_registrations in slot 0.
    pd::ObsExport e = parsed(sampleJson());
    EXPECT_EQ(e.counters.count("obs.dropped_registrations"), 1u);
}

TEST(PerfDiffParse, RejectsWrongSchema)
{
    std::istringstream in(
        "{\"schema\": \"viva-obs-99\", \"counters\": []}");
    auto result = pd::parseObsJson(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Parse);
}

TEST(PerfDiffParse, RejectsMissingSchema)
{
    std::istringstream in("{\"counters\": []}");
    auto result = pd::parseObsJson(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Parse);
}

TEST(PerfDiffParse, RejectsUnknownKeys)
{
    std::istringstream in(
        "{\"schema\": \"viva-obs-1\", \"surprise\": []}");
    auto result = pd::parseObsJson(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Parse);
}

TEST(PerfDiffParse, RejectsGarbage)
{
    std::istringstream in("not json at all");
    EXPECT_FALSE(pd::parseObsJson(in).ok());
}

TEST(PerfDiffParse, RejectsTruncatedInput)
{
    std::string text = sampleJson();
    std::istringstream in(text.substr(0, text.size() / 2));
    EXPECT_FALSE(pd::parseObsJson(in).ok());
}

TEST(PerfDiffParse, MissingFileIsAnIoError)
{
    auto result = pd::parseObsJsonFile("/no/such/file.json");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
}

// --- comparison -------------------------------------------------------------

TEST(PerfDiffCompare, IdenticalExportsAreClean)
{
    pd::ObsExport e = phaseExport(10, 50000000);
    pd::DiffResult result = pd::diffExports(e, e);
    EXPECT_TRUE(result.regressions.empty());
}

TEST(PerfDiffCompare, FlagsARegressionBeyondTheThreshold)
{
    pd::ObsExport base = phaseExport(10, 50000000);   // mean 5 ms
    pd::ObsExport cand = phaseExport(10, 100000000);  // mean 10 ms
    pd::DiffResult result = pd::diffExports(base, cand);
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_EQ(result.regressions[0].name, "hot.loop");
    EXPECT_DOUBLE_EQ(result.regressions[0].ratio, 2.0);
}

TEST(PerfDiffCompare, ToleratesGrowthWithinTheThreshold)
{
    pd::ObsExport base = phaseExport(10, 50000000);
    pd::ObsExport cand = phaseExport(10, 52000000);  // +4% < 10%
    EXPECT_TRUE(pd::diffExports(base, cand).regressions.empty());
}

TEST(PerfDiffCompare, ThresholdIsConfigurable)
{
    pd::ObsExport base = phaseExport(10, 50000000);
    pd::ObsExport cand = phaseExport(10, 52000000);  // +4%
    pd::DiffOptions strict;
    strict.threshold = 0.01;
    EXPECT_EQ(pd::diffExports(base, cand, strict).regressions.size(),
              1u);
}

TEST(PerfDiffCompare, NoiseFloorSkipsTinyPhases)
{
    // 10x regression, but the baseline total is 4000 ns -- noise.
    pd::ObsExport base = phaseExport(4, 4000);
    pd::ObsExport cand = phaseExport(4, 40000);
    pd::DiffResult result = pd::diffExports(base, cand);
    EXPECT_TRUE(result.regressions.empty());
    ASSERT_EQ(result.notes.size(), 1u);
    EXPECT_NE(result.notes[0].find("noise floor"), std::string::npos);

    pd::DiffOptions no_floor;
    no_floor.minSumNanos = 0;
    EXPECT_EQ(pd::diffExports(base, cand, no_floor).regressions.size(),
              1u);
}

TEST(PerfDiffCompare, MissingAndNewPhasesAreNotedNotFlagged)
{
    pd::ObsExport base = phaseExport(10, 50000000);
    pd::ObsExport cand;
    cand.phases["brand.new"] = base.phases["hot.loop"];
    pd::DiffResult result = pd::diffExports(base, cand);
    EXPECT_TRUE(result.regressions.empty());
    ASSERT_EQ(result.notes.size(), 2u);
    EXPECT_NE(result.notes[0].find("missing"), std::string::npos);
    EXPECT_NE(result.notes[1].find("new"), std::string::npos);
}

TEST(PerfDiffCompare, ReportNamesEveryRegression)
{
    pd::ObsExport base = phaseExport(10, 50000000);
    pd::ObsExport cand = phaseExport(10, 100000000);
    std::ostringstream out;
    pd::writeReport(pd::diffExports(base, cand), out);
    EXPECT_NE(out.str().find("REGRESSION hot.loop"), std::string::npos);

    std::ostringstream clean;
    pd::writeReport(pd::diffExports(base, base), clean);
    EXPECT_NE(clean.str().find("no regressions"), std::string::npos);
}

// --- work counts ------------------------------------------------------------

TEST(PerfDiffCompare, CallCountGrowthIsARegressionAtAnySize)
{
    // Same mean, one more call: more work, even below the noise floor.
    pd::ObsExport base = phaseExport(4, 4000);
    pd::ObsExport cand = phaseExport(5, 5000);
    pd::DiffResult result = pd::diffExports(base, cand);
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_EQ(result.regressions[0].name, "hot.loop");
    EXPECT_EQ(result.regressions[0].measure, pd::Measure::Calls);
    EXPECT_EQ(result.regressions[0].baseline, 4u);
    EXPECT_EQ(result.regressions[0].candidate, 5u);
    EXPECT_DOUBLE_EQ(result.regressions[0].ratio, 1.25);
}

TEST(PerfDiffCompare, CallCountDropIsANote)
{
    pd::ObsExport base = phaseExport(10, 50000000);
    pd::ObsExport cand = phaseExport(8, 40000000);
    pd::DiffResult result = pd::diffExports(base, cand);
    EXPECT_TRUE(result.regressions.empty());
    ASSERT_EQ(result.notes.size(), 1u);
    EXPECT_EQ(result.notes[0], "phase 'hot.loop' calls 10 -> 8 (dropped)");
}

TEST(PerfDiffCompare, CounterGrowthIsARegressionAndADropANote)
{
    pd::ObsExport base;
    base.counters["agg.values"] = 296;
    base.counters["trace.read.records"] = 1677;
    base.counters["was.zero"] = 0;
    pd::ObsExport cand = base;
    cand.counters["agg.values"] = 250;
    cand.counters["trace.read.records"] = 1678;
    cand.counters["was.zero"] = 3;
    pd::DiffResult result = pd::diffExports(base, cand);
    ASSERT_EQ(result.regressions.size(), 2u);
    EXPECT_EQ(result.regressions[0].name, "trace.read.records");
    EXPECT_EQ(result.regressions[0].measure, pd::Measure::Counter);
    EXPECT_EQ(result.regressions[1].name, "was.zero");
    EXPECT_TRUE(std::isinf(result.regressions[1].ratio));
    ASSERT_EQ(result.notes.size(), 1u);
    EXPECT_EQ(result.notes[0], "counter 'agg.values' 296 -> 250 (dropped)");
    EXPECT_TRUE(pd::diffExports(base, base).regressions.empty());
}

TEST(PerfDiffCompare, MissingAndNewCountersAreNotedNotFlagged)
{
    pd::ObsExport base;
    base.counters["old.counter"] = 1;
    pd::ObsExport cand;
    cand.counters["new.counter"] = 1;
    pd::DiffResult result = pd::diffExports(base, cand);
    EXPECT_TRUE(result.regressions.empty());
    ASSERT_EQ(result.notes.size(), 2u);
    EXPECT_EQ(result.notes[0],
              "counter 'old.counter' missing from the candidate");
    EXPECT_EQ(result.notes[1], "counter 'new.counter' new in the candidate");
}

TEST(PerfDiffCompare, ReportNamesTheMeasureThatGrew)
{
    pd::ObsExport base = phaseExport(10, 50000000);
    base.counters["agg.values"] = 5;
    pd::ObsExport cand = phaseExport(12, 60000000);
    cand.counters["agg.values"] = 6;
    std::ostringstream out;
    pd::writeReport(pd::diffExports(base, cand), out);
    EXPECT_NE(out.str().find("REGRESSION hot.loop: calls 10 -> 12"),
              std::string::npos);
    EXPECT_NE(out.str().find("REGRESSION agg.values: counter 5 -> 6"),
              std::string::npos);
    EXPECT_EQ(out.str().find("no regressions"), std::string::npos);
}
