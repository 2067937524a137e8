/**
 * @file
 * Tests for the resource governor: per-operation deadlines that
 * cooperatively cancel layout / render / animate work with session
 * state bitwise unchanged, the deterministic working-set model, the
 * memory-budget degradation ladder (Eq. 1 aggregation as load
 * shedding), and the governor's observability counters and commands.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "app/commands.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "support/clock.hh"
#include "support/error.hh"
#include "support/governor.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "trace/builder.hh"

namespace vap = viva::app;
namespace vs = viva::support;
namespace vt = viva::trace;

namespace
{

std::string
tempDir()
{
    auto dir =
        std::filesystem::temp_directory_path() / "viva_governor_test";
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** A session over the deeper two-cluster platform hierarchy. */
vap::Session
makePlatformSession()
{
    viva::platform::Platform p =
        viva::platform::makeTwoClusterPlatform();
    vt::Trace t;
    viva::platform::mirrorPlatform(p, t);
    return vap::Session(std::move(t));
}

/**
 * A fake clock whose every read advances far enough that the first
 * deadline poll of a governed operation is already past any small
 * deadline.
 */
struct ExpiredClockFixture
{
    vs::FakeClock fake{0, 1'000'000};  // 1 ms per read
    vs::ClockOverride guard{fake};
};

} // namespace

// --- the deadline channel ------------------------------------------------------

TEST(Governor, DisarmedPollIsFalse)
{
    // No deadline (default or zero budget) never expires, and its poll
    // never reads the clock: the 1 ms-per-read fake stays put.
    vs::FakeClock fake(0, 1'000'000);
    vs::ClockOverride guard(fake);
    for (vs::Deadline none : {vs::Deadline(), vs::Deadline::after(0)}) {
        EXPECT_FALSE(none.armed());
        EXPECT_FALSE(none.expired());
    }
    EXPECT_EQ(fake.nowNanos(), 0u);
}

TEST(Governor, DeadlineArithmeticSaturates)
{
    // 1 + UINT64_MAX wraps to exactly 0, which would mean "none".
    vs::FakeClock fake(1, 0);
    vs::ClockOverride guard(fake);
    vs::Deadline far = vs::Deadline::after(UINT64_MAX);
    EXPECT_TRUE(far.armed());
    EXPECT_FALSE(far.expired());
}

TEST(Governor, HugeDeadlineCommitsTheIdenticalResult)
{
    // now + UINT64_MAX must saturate: a wrapped sum lands in the past
    // and aborts the first poll of an operation that has all the time
    // in the world.
    vs::FakeClock fake(5'000'000'000, 1000);
    vs::ClockOverride guard(fake);
    vap::Session governed(vt::makeFigure1Trace());
    vap::Session plain(vt::makeFigure1Trace());
    governed.setOperationDeadline(UINT64_MAX);

    auto done = governed.stabilizeLayout(50);
    ASSERT_TRUE(done.ok()) << done.error().toString();
    EXPECT_EQ(*done, plain.stabilizeLayout(50).value());
    EXPECT_EQ(governed.deadlineAbortCount(), 0u);
    governed.setOperationDeadline(0);
    EXPECT_EQ(governed.stateDigest(), plain.stateDigest());
}

TEST(Governor, StabilizeAbortLeavesStateBitwiseUnchanged)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);  // 1 ns: expired at the first poll
    const std::uint64_t digest = s.stateDigest();
    const std::uint64_t aborts = s.deadlineAbortCount();

    auto done = s.stabilizeLayout(100);
    ASSERT_FALSE(done.ok());
    EXPECT_EQ(done.error().code(), vs::Errc::Deadline);
    EXPECT_FALSE(done.error().context().empty());
    EXPECT_EQ(s.stateDigest(), digest);
    EXPECT_EQ(s.deadlineAbortCount(), aborts + 1);
}

TEST(Governor, StepAbortLeavesStateBitwiseUnchanged)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();

    auto stepped = s.stepLayout(5);
    ASSERT_FALSE(stepped.ok());
    EXPECT_EQ(stepped.error().code(), vs::Errc::Deadline);
    EXPECT_EQ(s.stateDigest(), digest);
}

TEST(Governor, RenderAbortLeavesStateAndDiskUnchanged)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();
    auto path = tempDir() + "/aborted.svg";
    std::filesystem::remove(path);

    auto rendered = s.renderSvg(path);
    ASSERT_FALSE(rendered.ok());
    EXPECT_EQ(rendered.error().code(), vs::Errc::Deadline);
    EXPECT_EQ(s.stateDigest(), digest);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Governor, AnimateAbortRollsTheWholeOperationBack)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();

    auto frames = s.animate(3, tempDir(), "gov_frame", 10);
    ASSERT_FALSE(frames.ok());
    EXPECT_EQ(frames.error().code(), vs::Errc::Deadline);
    // The rollback covers the slice and the layout: bitwise identical.
    EXPECT_EQ(s.stateDigest(), digest);
}

TEST(Governor, MidOperationAbortRollsBackCommittedIterations)
{
    // The Grid'5000 session at four threads: dozens of repulsion
    // chunks per step race to latch the abort, and the deadline trips
    // only after several iterations have committed.
    vt::Trace t;
    viva::platform::mirrorPlatform(viva::platform::makeGrid5000(), t);
    vap::Session s(std::move(t));
    s.setThreads(4);
    vs::FakeClock fake(0, 1000);
    vs::ClockOverride guard(fake);

    // Measure the clock reads of one step under an armed deadline,
    // then give the operation room for three and a half of them.
    s.setOperationDeadline(1ull << 60);
    std::uint64_t before = fake.nowNanos();
    ASSERT_TRUE(s.stepLayout(1).ok());
    const std::uint64_t per_step = fake.nowNanos() - before;
    s.setOperationDeadline(per_step * 7 / 2);

    namespace obs = vs::obs;
    obs::Registry &reg = obs::Registry::global();
    const obs::CounterId iterations = reg.counter("layout.force.iterations");
    const std::uint64_t digest = s.stateDigest();
    const std::uint64_t aborts = s.deadlineAbortCount();
    const std::uint64_t engine_before = s.layoutEngine().iterations();
    const std::uint64_t registry_before = reg.counterValue(iterations);

    auto done = s.stabilizeLayout(300);
    ASSERT_FALSE(done.ok());
    EXPECT_EQ(done.error().code(), vs::Errc::Deadline);
    const std::uint64_t performed =
        reg.counterValue(iterations) - registry_before;
    EXPECT_GE(performed, 1u) << "the abort must follow committed work";
    EXPECT_EQ(s.layoutEngine().iterations() - engine_before, performed);
    EXPECT_EQ(s.deadlineAbortCount(), aborts + 1);
    EXPECT_EQ(s.stateDigest(), digest);
}

TEST(Governor, ExpiredDeadlineCancelsNothingReadOnly)
{
    vap::Session plain(vt::makeFigure1Trace());
    const viva::agg::View expected = plain.view(true);
    const std::size_t expected_shapes = plain.scene().nodes.size();

    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);

    viva::agg::View v = s.view(true);
    ASSERT_EQ(v.nodes.size(), s.cut().visibleCount());
    ASSERT_EQ(v.nodes.size(), expected.nodes.size());
    EXPECT_EQ(v.edges.size(), expected.edges.size());
    for (std::size_t i = 0; i < v.nodes.size(); ++i) {
        EXPECT_EQ(v.nodes[i].id, expected.nodes[i].id);
        EXPECT_EQ(v.nodes[i].values, expected.nodes[i].values);
    }
    EXPECT_EQ(s.scene().nodes.size(), expected_shapes);
    EXPECT_TRUE(s.auditInvariants().empty());
    EXPECT_EQ(s.deadlineAbortCount(), 0u);
}

TEST(Governor, GenerousDeadlineCommitsTheIdenticalResult)
{
    // A frozen fake clock never expires any deadline, so the governed
    // staged-copy path must commit exactly what the ungoverned path
    // computes.
    vs::FakeClock fake;  // tick 0: time stands still
    vs::ClockOverride guard(fake);

    vap::Session governed(vt::makeFigure1Trace());
    vap::Session plain(vt::makeFigure1Trace());
    governed.setOperationDeadline(3'600'000'000'000ull);

    ASSERT_TRUE(governed.stabilizeLayout(50).ok());
    plain.stabilizeLayout(50).value();
    EXPECT_NE(governed.stateDigest(), plain.stateDigest())
        << "the deadline setting itself is part of the digest";
    governed.setOperationDeadline(0);
    EXPECT_EQ(governed.stateDigest(), plain.stateDigest());

    ASSERT_TRUE(governed.renderSvg(tempDir() + "/gov_ok.svg").ok());
}

// --- the working-set model and the degradation ladder --------------------------

TEST(Governor, WorkingSetModelIsDeterministicAndMonotonic)
{
    vap::Session s = makePlatformSession();
    const std::uint64_t full = s.workingSetBytes();
    EXPECT_GT(full, 0u);
    EXPECT_EQ(s.workingSetBytes(), full);

    // Coarsening the cut sheds visible nodes, never grows the model.
    s.aggregateToDepth(0);
    EXPECT_LT(s.workingSetBytes(), full);
}

TEST(Governor, MemoryBudgetCoarsensTheCutOneLevelAtATime)
{
    vap::Session s = makePlatformSession();
    const std::size_t full_visible = s.cut().visibleCount();
    const std::uint64_t full_bytes = s.workingSetBytes();

    // A budget below the fully-degraded floor: the ladder walks all
    // the way to the root level and stops there (no infinite loop).
    s.setMemoryBudget(1);
    EXPECT_GT(s.degradationCount(), 1u)
        << "the deep hierarchy must take several ladder steps";
    EXPECT_LT(s.cut().visibleCount(), full_visible);
    EXPECT_LT(s.workingSetBytes(), full_bytes);
    EXPECT_TRUE(s.auditInvariants().empty());

    // A generous budget degrades nothing further.
    const std::uint64_t steps = s.degradationCount();
    s.setMemoryBudget(1ull << 40);
    EXPECT_EQ(s.degradationCount(), steps);
}

TEST(Governor, BudgetAppliesToCutMutationsToo)
{
    vap::Session s = makePlatformSession();
    s.setMemoryBudget(1);
    const std::uint64_t steps = s.degradationCount();

    // Disaggregating regrows the working set past the budget; the
    // governor immediately sheds it again.
    s.resetAggregation();
    EXPECT_GT(s.degradationCount(), steps);
    EXPECT_TRUE(s.auditInvariants().empty());
}

TEST(Governor, CutCyclesDoNotDegradeAFittingBudget)
{
    vt::Trace t;
    viva::platform::mirrorPlatform(viva::platform::makeGrid5000(), t);
    vap::Session s(std::move(t));
    const std::size_t host_level = s.cut().visibleCount();

    // Room for the host-level view and half again: coming back to it
    // must fit every time, however many cut changes came before.
    s.setMemoryBudget(s.workingSetBytes() * 3 / 2);
    for (int cycle = 0; cycle < 10; ++cycle) {
        s.aggregateToDepth(0);
        s.resetAggregation();
    }
    EXPECT_EQ(s.degradationCount(), 0u);
    EXPECT_EQ(s.cut().visibleCount(), host_level);
}

TEST(Governor, ZeroBudgetDisablesDegradation)
{
    vap::Session s = makePlatformSession();
    const std::size_t visible = s.cut().visibleCount();
    s.setMemoryBudget(0);
    EXPECT_EQ(s.cut().visibleCount(), visible);
    EXPECT_EQ(s.degradationCount(), 0u);
}

// --- observability -------------------------------------------------------------

TEST(Governor, CountersSurfaceInTheRegistry)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    s.setOperationDeadline(1);
    ASSERT_FALSE(s.stabilizeLayout(10).ok());
    s.setMemoryBudget(1);

    namespace obs = vs::obs;
    obs::StatsSnapshot snap = obs::Registry::global().snapshot();
    std::uint64_t aborts = 0, degradations = 0;
    for (const obs::CounterValue &c : snap.counters) {
        if (c.name == "governor.deadline_aborts")
            aborts = c.value;
        if (c.name == "governor.degradations")
            degradations = c.value;
    }
    EXPECT_GT(aborts, 0u);
    EXPECT_GT(degradations, 0u);
}

// --- commands ------------------------------------------------------------------

TEST(GovernorCommands, SettingsAndStatusRoundTrip)
{
    vap::Session s = makePlatformSession();
    vap::CommandInterpreter cli(s);
    std::ostringstream out;

    ASSERT_TRUE(cli.execute("set deadline-ms 250", out));
    EXPECT_EQ(s.operationDeadline(), 250ull * 1000000ull);
    ASSERT_TRUE(cli.execute("set mem-budget 1", out));
    EXPECT_EQ(s.memoryBudget(), 1u);
    EXPECT_GT(s.degradationCount(), 0u);

    std::ostringstream status;
    ASSERT_TRUE(cli.execute("status", status));
    EXPECT_NE(status.str().find("degradation(s)"), std::string::npos);
    EXPECT_NE(status.str().find("deadline"), std::string::npos);

    std::ostringstream err;
    EXPECT_FALSE(cli.execute("set mem-budget", err));
    EXPECT_FALSE(cli.execute("set deadline-ms nope", err));
    // 18446744073710 ms is past UINT64_MAX ns: rejected, not wrapped.
    EXPECT_FALSE(cli.execute("set deadline-ms 18446744073710", err));
    EXPECT_NE(err.str().find("error: deadline-ms 18446744073710"),
              std::string::npos);
    EXPECT_EQ(s.operationDeadline(), 250ull * 1000000ull);
}

TEST(GovernorCommands, StabilizeCommandSurfacesTheDeadlineError)
{
    ExpiredClockFixture clock;
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;
    ASSERT_TRUE(cli.execute("set deadline-ms 0", out));
    s.setOperationDeadline(1);
    const std::uint64_t digest = s.stateDigest();

    std::ostringstream err;
    EXPECT_FALSE(cli.execute("stabilize 50", err));
    EXPECT_NE(err.str().find("deadline"), std::string::npos);
    EXPECT_EQ(s.stateDigest(), digest);
}
