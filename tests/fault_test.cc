/**
 * @file
 * Tests for the fault-tolerance layer: the support::Error/Expected
 * plumbing, the deterministic FaultInjector, rate-limited warnings,
 * parse budgets, and every compiled-in injection point observed
 * through its public entry point (trace read/write, Paje read, viz
 * writers, NaN injection into the force accumulation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <istream>
#include <streambuf>
#include <sstream>
#include <string>
#include <vector>

#include "app/commands.hh"
#include "app/session.hh"
#include "layout/force.hh"
#include "layout/graph.hh"
#include "support/error.hh"
#include "support/fault.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/paje.hh"
#include "viz/chart.hh"
#include "viz/svg.hh"

namespace vap = viva::app;
namespace vl = viva::layout;
namespace vs = viva::support;
namespace vt = viva::trace;

namespace
{

/** RAII: leave no armed point or warn counter behind for other tests. */
struct FaultGuard
{
    FaultGuard() { vs::FaultInjector::global().disarmAll(); }
    ~FaultGuard()
    {
        vs::FaultInjector::global().disarmAll();
        vs::resetWarnLimits();
    }
};

std::string
tempDir()
{
    auto dir = std::filesystem::temp_directory_path() / "viva_fault_test";
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string
serialized(const vt::Trace &t)
{
    std::ostringstream out;
    vt::writeTrace(t, out);
    return out.str();
}

} // namespace

// --- Error / Expected basics ---------------------------------------------------

TEST(Error, CarriesCodeMessageAndContextChain)
{
    vs::Error e = VIVA_ERROR(vs::Errc::Parse, "line 3: bad id");
    unsigned first_line = e.context().back().line;
    e = VIVA_ERROR_CONTEXT(e, "reading 'x.viva'");

    EXPECT_EQ(e.code(), vs::Errc::Parse);
    EXPECT_EQ(e.message(), "line 3: bad id");
    ASSERT_EQ(e.context().size(), 2u);
    EXPECT_EQ(e.context()[0].line, first_line);

    std::string s = e.toString();
    EXPECT_NE(s.find("parse:"), std::string::npos);
    EXPECT_NE(s.find("bad id"), std::string::npos);
    EXPECT_NE(s.find("fault_test.cc"), std::string::npos);
    EXPECT_NE(s.find("reading 'x.viva'"), std::string::npos);
}

TEST(Error, EveryCodeHasAName)
{
    for (vs::Errc c : {vs::Errc::Io, vs::Errc::Parse, vs::Errc::Budget,
                       vs::Errc::NotFound, vs::Errc::Invalid,
                       vs::Errc::Deadline})
        EXPECT_STRNE(vs::errcName(c), "");
}

TEST(Expected, ValueAndErrorSides)
{
    vs::Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 7);

    vs::Expected<int> bad(VIVA_ERROR(vs::Errc::Io, "nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), vs::Errc::Io);

    vs::Expected<void> ok_void;
    EXPECT_TRUE(ok_void.ok());
    vs::Expected<void> bad_void(VIVA_ERROR(vs::Errc::Invalid, "x"));
    EXPECT_FALSE(bad_void.ok());
}

// --- FaultInjector determinism -------------------------------------------------

TEST(FaultInjector, UnarmedNeverFires)
{
    FaultGuard guard;
    auto &inj = vs::FaultInjector::global();
    EXPECT_FALSE(inj.anyArmed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(vs::faultAt("trace.read.stream"));
    EXPECT_EQ(inj.hitCount("trace.read.stream"), 0u);
}

TEST(FaultInjector, SameSeedSameFiringPattern)
{
    FaultGuard guard;
    auto &inj = vs::FaultInjector::global();

    auto pattern = [&](std::uint64_t seed) {
        vs::FaultSpec spec;
        spec.seed = seed;
        spec.probability = 0.3;
        inj.arm("trace.read.stream", spec);
        std::vector<bool> fired;
        for (int i = 0; i < 200; ++i)
            fired.push_back(inj.shouldFail("trace.read.stream"));
        return fired;
    };

    std::vector<bool> a = pattern(42), b = pattern(42), c = pattern(7);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // probability 0.3 over 200 hits: some fire, not all.
    std::size_t fires = std::size_t(std::count(a.begin(), a.end(), true));
    EXPECT_GT(fires, 0u);
    EXPECT_LT(fires, 200u);
}

TEST(FaultInjector, SkipAndMaxFiresWindowTheFailures)
{
    FaultGuard guard;
    auto &inj = vs::FaultInjector::global();
    vs::FaultSpec spec;
    spec.skip = 3;
    spec.maxFires = 2;
    inj.arm("trace.read.stream", spec);

    std::vector<bool> fired;
    for (int i = 0; i < 10; ++i)
        fired.push_back(inj.shouldFail("trace.read.stream"));
    std::vector<bool> expect = {false, false, false, true, true,
                                false, false, false, false, false};
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(inj.hitCount("trace.read.stream"), 10u);
    EXPECT_EQ(inj.fireCount("trace.read.stream"), 2u);
}

TEST(FaultInjector, KnownPointsAreSortedAndComplete)
{
    const auto &points = vs::FaultInjector::knownPoints();
    EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
    for (const char *p :
         {"ckpt.read.stream", "ckpt.write.stream", "layout.force.nan",
          "paje.read.stream", "trace.parse.budget", "trace.read.stream",
          "trace.write.stream", "viz.write.stream"})
        EXPECT_TRUE(std::count(points.begin(), points.end(), p))
            << "missing point " << p;
}

// --- rate-limited warnings -----------------------------------------------------

TEST(WarnLimited, StopsAfterLimitAndCounts)
{
    FaultGuard guard;
    vs::setWarnLimit(3);
    for (int i = 0; i < 10; ++i)
        vs::warnLimited("test.key", "WarnLimited", "warning ", i);
    EXPECT_EQ(vs::warnEmittedCount("test.key"), 3u);
    EXPECT_EQ(vs::warnSuppressedCount("test.key"), 7u);

    // Independent keys have independent budgets.
    vs::warnLimited("test.other", "WarnLimited", "other");
    EXPECT_EQ(vs::warnEmittedCount("test.other"), 1u);
    EXPECT_EQ(vs::warnSuppressedCount("test.other"), 0u);
}

// --- injection points through public entry points ------------------------------

TEST(InjectionPoints, TraceReadStream)
{
    FaultGuard guard;
    vs::FaultInjector::global().arm("trace.read.stream");
    std::istringstream in(serialized(vt::makeFigure1Trace()));
    auto result = vt::readTrace(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
    EXPECT_FALSE(result.error().context().empty());
}

TEST(InjectionPoints, TraceParseBudget)
{
    FaultGuard guard;
    vs::FaultInjector::global().arm("trace.parse.budget");
    std::istringstream in(serialized(vt::makeFigure1Trace()));
    auto result = vt::readTrace(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Budget);
}

TEST(InjectionPoints, TraceWriteStream)
{
    FaultGuard guard;
    vs::FaultInjector::global().arm("trace.write.stream");
    auto result = vt::writeTraceFile(vt::makeFigure1Trace(),
                                     tempDir() + "/inject.viva");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
}

TEST(InjectionPoints, PajeReadStream)
{
    FaultGuard guard;
    std::ostringstream paje;
    vt::writePajeTrace(vt::makeFigure1Trace(), paje);

    vs::FaultInjector::global().arm("paje.read.stream");
    std::istringstream in(paje.str());
    auto result = vt::readPajeTrace(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
}

TEST(InjectionPoints, VizWriteStream)
{
    FaultGuard guard;
    vs::FaultInjector::global().arm("viz.write.stream");
    vap::Session session(vt::makeFigure1Trace());
    auto result = session.renderSvg(tempDir() + "/inject.svg");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Io);
}

TEST(InjectionPoints, LayoutForceNanIsQuarantined)
{
    FaultGuard guard;
    vl::LayoutGraph graph;
    auto a = graph.addNode(1, {0.0, 0.0}, 1.0);
    auto b = graph.addNode(2, {30.0, 0.0}, 1.0);
    graph.addEdge(a, b, 1.0);
    vl::ForceLayout layout(graph);

    vs::FaultSpec spec;
    spec.probability = 0.5;
    spec.seed = 11;
    vs::FaultInjector::global().arm("layout.force.nan", spec);
    for (int i = 0; i < 20; ++i)
        layout.step().value();

    EXPECT_GT(layout.quarantineCount(), 0u);
    for (const vl::Node &n : graph.rawNodes()) {
        EXPECT_TRUE(std::isfinite(n.position.x));
        EXPECT_TRUE(std::isfinite(n.position.y));
        EXPECT_TRUE(std::isfinite(n.velocity.x));
        EXPECT_TRUE(std::isfinite(n.velocity.y));
    }
    EXPECT_GT(vs::warnEmittedCount("layout.nonfinite"), 0u);

    // Disarmed, the layout recovers and keeps stepping cleanly.
    vs::FaultInjector::global().disarmAll();
    std::size_t before = layout.quarantineCount();
    for (int i = 0; i < 20; ++i)
        layout.step().value();
    EXPECT_EQ(layout.quarantineCount(), before);
}

// --- parse budgets -------------------------------------------------------------

TEST(ParseBudget, LineLengthBound)
{
    vt::ParseBudget budget;
    budget.maxLineLength = 64;
    std::string input = "viva-trace 1\ncontainer 1 - host " +
                        std::string(200, 'x') + "\n";
    std::istringstream in(input);
    auto result = vt::readTrace(in, budget);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Budget);
}

namespace
{

/**
 * A stream that serves `prefix` and then one endless line of 'x', one
 * character per underflow, counting the line's characters it served.
 */
class EndlessLine : public std::streambuf
{
  public:
    explicit EndlessLine(std::string head) : prefix(std::move(head)) {}

    std::size_t served = 0;

  protected:
    int_type
    underflow() override
    {
        if (next < prefix.size()) {
            ch = prefix[next++];
        } else {
            ch = 'x';
            ++served;
        }
        setg(&ch, &ch, &ch + 1);
        return traits_type::to_int_type(ch);
    }

  private:
    std::string prefix;
    std::size_t next = 0;
    char ch = 0;
};

} // namespace

TEST(ParseBudget, EndlessLineIsRefusedBeforeItIsRead)
{
    const std::size_t bounds[] = {0, 64, 5000,
                                  vt::ParseBudget{}.maxLineLength};
    for (std::size_t bound : bounds) {
        vt::ParseBudget budget;
        budget.maxLineLength = bound;
        // The header line itself, a line after the header, a Paje line.
        for (int reader = 0; reader < 3; ++reader) {
            EndlessLine source(reader == 1 ? "viva-trace 1\n" : "");
            std::istream in(&source);
            vs::Error error = reader < 2
                                  ? vt::readTrace(in, budget).error()
                                  : vt::readPajeTrace(in, budget).error();
            EXPECT_EQ(error.code(), vs::Errc::Budget) << error.toString();
            EXPECT_LE(source.served, bound + 2)
                << "reader " << reader << ", bound " << bound;
        }
    }
}

TEST(ParseBudget, LinesUpToTheBoundAreRead)
{
    // A name that makes the line exactly maxLineLength bytes long is
    // accepted; one byte more is refused.
    const std::string head = "container 1 - host ";
    for (std::size_t bound : {std::size_t(64), std::size_t(4095),
                              std::size_t(4096), std::size_t(10000)}) {
        vt::ParseBudget budget;
        budget.maxLineLength = bound;
        for (std::size_t extra : {0, 1}) {
            std::string line =
                head + std::string(bound - head.size() + extra, 'n');
            for (const char *end : {"\n", ""}) {
                std::istringstream in("viva-trace 1\n" + line + end);
                auto result = vt::readTrace(in, budget);
                if (extra == 0) {
                    ASSERT_TRUE(result.ok()) << result.error().toString();
                    EXPECT_EQ(result->container(vt::ContainerId{1}).name,
                              line.substr(head.size()));
                } else {
                    ASSERT_FALSE(result.ok());
                    EXPECT_EQ(result.error().code(), vs::Errc::Budget);
                }
            }
        }
    }
}

TEST(ParseBudget, ContainerBound)
{
    vt::ParseBudget budget;
    budget.maxContainers = 4;
    std::ostringstream input;
    input << "viva-trace 1\n";
    for (int i = 1; i <= 8; ++i)
        input << "container " << i << " - host h" << i << "\n";
    std::istringstream in(input.str());
    auto result = vt::readTrace(in, budget);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Budget);
}

TEST(ParseBudget, RecordBound)
{
    vt::ParseBudget budget;
    budget.maxRecords = 5;
    std::ostringstream input;
    input << "viva-trace 1\ncontainer 1 - host h\n"
          << "metric 0 gauge - - m\n";
    for (int i = 0; i < 10; ++i)
        input << "p 1 0 " << i << " 1\n";
    std::istringstream in(input.str());
    auto result = vt::readTrace(in, budget);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Budget);
}

TEST(ParseBudget, PajeBudgetsApply)
{
    std::ostringstream paje;
    vt::writePajeTrace(vt::makeFigure1Trace(), paje);

    vt::ParseBudget tight;
    tight.maxRecords = 2;
    std::istringstream in(paje.str());
    auto result = vt::readPajeTrace(in, tight);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), vs::Errc::Budget);
}

TEST(ParseBudget, DefaultsAcceptRealTraces)
{
    std::istringstream in(serialized(vt::makeFigure1Trace()));
    auto result = vt::readTrace(in);
    ASSERT_TRUE(result.ok()) << result.error().toString();
}

// --- graceful degradation at the session level ---------------------------------

TEST(SessionFault, FailedLoadLeavesSessionUntouched)
{
    FaultGuard guard;
    vap::Session session(vt::makeFigure1Trace());
    ASSERT_TRUE(session.stabilizeLayout(50).value() > 0);
    std::uint64_t digest = session.stateDigest();

    auto missing = session.load(tempDir() + "/does_not_exist.viva");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code(), vs::Errc::Io);
    EXPECT_EQ(session.stateDigest(), digest);

    // A mid-file injected failure is also swallowed without mutation.
    std::string path = tempDir() + "/good.viva";
    ASSERT_TRUE(session.saveTrace(path).ok());
    vs::FaultInjector::global().arm("trace.read.stream");
    auto injected = session.load(path);
    ASSERT_FALSE(injected.ok());
    EXPECT_EQ(session.stateDigest(), digest);
    vs::FaultInjector::global().disarmAll();

    // And the session still works end-to-end afterwards.
    auto loaded = session.load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(session.trace().containerCount(),
              vt::makeFigure1Trace().containerCount());
}

TEST(SessionFault, LoadSwitchesTraceAndRebuildsEverything)
{
    vap::Session session(vt::makeFigure1Trace());
    std::string path = tempDir() + "/two_hosts.viva";
    {
        vt::Trace t;
        auto a = t.addContainer("a", vt::ContainerKind::Host, t.root());
        t.addContainer("b", vt::ContainerKind::Host, t.root());
        auto m = t.addMetric("load", "", vt::MetricNature::Gauge);
        t.variable(a, m).set(0.0, 1.0);
        t.variable(a, m).set(5.0, 0.0);
        ASSERT_TRUE(vt::writeTraceFile(t, path).ok());
    }
    auto loaded = session.load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(session.trace().containerCount(), 3u);
    EXPECT_EQ(session.cut().visibleCount(), 2u);
    EXPECT_EQ(session.layoutGraph().nodeCount(), 2u);
    EXPECT_DOUBLE_EQ(session.timeSlice().begin, 0.0);
    EXPECT_DOUBLE_EQ(session.timeSlice().end, 5.0);
    EXPECT_TRUE(session.auditInvariants().empty());
}

TEST(SessionFault, LoadCommandReportsStructuredErrors)
{
    vap::Session session(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(session);
    std::ostringstream out;
    EXPECT_FALSE(cli.execute("load /no/such/file.viva", out));
    EXPECT_NE(out.str().find("error: io:"), std::string::npos);

    std::string path = tempDir() + "/cmd.viva";
    ASSERT_TRUE(session.saveTrace(path).ok());
    std::ostringstream out2;
    EXPECT_TRUE(cli.execute("load " + path, out2));
    EXPECT_NE(out2.str().find("loaded"), std::string::npos);
}

TEST(SessionFault, RenderErrorsAreRecoverable)
{
    vap::Session session(vt::makeFigure1Trace());
    auto bad_dir = session.renderSvg("/no/such/dir/out.svg");
    ASSERT_FALSE(bad_dir.ok());
    EXPECT_EQ(bad_dir.error().code(), vs::Errc::Io);

    auto bad_metric = session.renderTreemap(tempDir() + "/t.svg",
                                            "no-such-metric");
    ASSERT_FALSE(bad_metric.ok());
    EXPECT_EQ(bad_metric.error().code(), vs::Errc::NotFound);

    auto bad_chart = session.renderChart(tempDir() + "/c.svg",
                                         "no-such-metric");
    ASSERT_FALSE(bad_chart.ok());
    EXPECT_EQ(bad_chart.error().code(), vs::Errc::NotFound);

    auto bad_animate = session.animate(0, tempDir());
    ASSERT_FALSE(bad_animate.ok());
    EXPECT_EQ(bad_animate.error().code(), vs::Errc::Invalid);

    // The session still renders fine after all those failures.
    auto good = session.renderSvg(tempDir() + "/after_errors.svg");
    EXPECT_TRUE(good.ok()) << good.error().toString();
}

// --- observability x fault injection ----------------------------------------
//
// Every armed injection point must leave a visible trail in the metrics
// registry: the generic `fault.fired.<point>` counter plus the error
// counter of the subsystem the fault surfaced through -- and the
// `stats` export must stay well-formed while it happens.

namespace
{

namespace obs = viva::support::obs;

std::uint64_t
counterNow(const std::string &name)
{
    obs::Registry &reg = obs::Registry::global();
    return reg.counterValue(reg.counter(name));
}

/** `stats --json` through a throwaway session; sanity-checked. */
std::string
statsJson()
{
    vap::Session session(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(session);
    std::ostringstream out;
    EXPECT_TRUE(cli.execute("stats --json", out));
    return out.str();
}

/**
 * Arm `point`, run `driver`, and assert the fired counter and the
 * subsystem error counter `errorCounter` both advanced and the JSON
 * export still opens with the schema tag and closes as one object.
 */
template <typename Driver>
void
expectObservedFault(const std::string &point,
                    const std::string &errorCounter, Driver &&driver)
{
    FaultGuard guard;
    std::uint64_t fired_before = counterNow("fault.fired." + point);
    std::uint64_t errors_before = counterNow(errorCounter);

    vs::FaultInjector::global().arm(point);
    driver();

    EXPECT_GT(counterNow("fault.fired." + point), fired_before)
        << point;
    EXPECT_GT(counterNow(errorCounter), errors_before) << errorCounter;

    vs::FaultInjector::global().disarmAll();
    const std::string json = statsJson();
    EXPECT_EQ(json.rfind("{\n  \"schema\": \"viva-obs-1\"", 0), 0u);
    EXPECT_EQ(json.substr(json.size() - 2), "}\n");
    EXPECT_NE(json.find("\"fault.fired." + point + "\""),
              std::string::npos);
}

} // namespace

TEST(ObservedFaults, TraceReadStream)
{
    expectObservedFault("trace.read.stream", "trace.read.errors", [] {
        std::istringstream in(serialized(vt::makeFigure1Trace()));
        EXPECT_FALSE(vt::readTrace(in).ok());
    });
}

TEST(ObservedFaults, TraceParseBudget)
{
    expectObservedFault("trace.parse.budget", "trace.read.errors", [] {
        std::istringstream in(serialized(vt::makeFigure1Trace()));
        EXPECT_FALSE(vt::readTrace(in).ok());
    });
}

TEST(ObservedFaults, TraceWriteStream)
{
    expectObservedFault("trace.write.stream", "trace.write.errors", [] {
        EXPECT_FALSE(vt::writeTraceFile(vt::makeFigure1Trace(),
                                        tempDir() + "/obs_inject.viva")
                         .ok());
    });
}

TEST(ObservedFaults, PajeReadStream)
{
    expectObservedFault("paje.read.stream", "paje.read.errors", [] {
        std::ostringstream paje;
        vt::writePajeTrace(vt::makeFigure1Trace(), paje);
        std::istringstream in(paje.str());
        EXPECT_FALSE(vt::readPajeTrace(in).ok());
    });
}

TEST(ObservedFaults, VizWriteStream)
{
    expectObservedFault("viz.write.stream", "viz.write.errors", [] {
        vap::Session session(vt::makeFigure1Trace());
        EXPECT_FALSE(
            session.renderSvg(tempDir() + "/obs_inject.svg").ok());
    });
}

TEST(ObservedFaults, ChartWriteStream)
{
    expectObservedFault("viz.write.stream", "viz.write.errors", [] {
        EXPECT_FALSE(viva::viz::writeChartSvgFile(
                         {}, tempDir() + "/obs_inject_chart.svg")
                         .ok());
    });
}

TEST(ObservedFaults, LayoutForceNan)
{
    expectObservedFault("layout.force.nan", "layout.quarantine", [] {
        vl::LayoutGraph graph;
        auto a = graph.addNode(1, {0.0, 0.0}, 1.0);
        auto b = graph.addNode(2, {30.0, 0.0}, 1.0);
        graph.addEdge(a, b, 1.0);
        vl::ForceLayout layout(graph);
        vs::FaultSpec spec;
        spec.probability = 0.5;
        spec.seed = 11;
        vs::FaultInjector::global().arm("layout.force.nan", spec);
        for (int i = 0; i < 20; ++i)
            layout.step().value();
        EXPECT_GT(layout.quarantineCount(), 0u);
    });
}
