/**
 * @file
 * Tests for the Paje format subset: hand-written traces in the classic
 * format, error handling, and the writer round trip.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/paje.hh"

namespace vt = viva::trace;

namespace
{

/** One state record to add to Figure 1's trace. */
struct StateLine
{
    std::string host;
    double begin;
    double end;
    std::string state;
};

/**
 * Figure 1's trace with extra state records, in the given order. A
 * frozen trace takes no more states, so they go through the native
 * format: its reader appends them to the state log as they come.
 */
vt::Trace
figure1WithStates(const std::vector<StateLine> &states)
{
    const vt::Trace base = vt::makeFigure1Trace();
    std::ostringstream text;
    vt::writeTrace(base, text);
    for (const StateLine &s : states)
        text << "state " << base.findByName(s.host) << ' ' << s.begin << ' '
             << s.end << ' ' << s.state << '\n';
    std::istringstream in(text.str());
    return vt::readTrace(in).value();
}

/** A minimal, classic hand-written Paje trace. */
const char *kClassicTrace = R"(
%EventDef PajeDefineContainerType 0
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeDefineVariableType 1
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeDefineStateType 2
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeCreateContainer 3
%  Time date
%  Alias string
%  Type string
%  Container string
%  Name string
%EndEventDef
%EventDef PajeSetVariable 4
%  Time date
%  Type string
%  Container string
%  Value double
%EndEventDef
%EventDef PajeAddVariable 5
%  Time date
%  Type string
%  Container string
%  Value double
%EndEventDef
%EventDef PajeSetState 6
%  Time date
%  Type string
%  Container string
%  Value string
%EndEventDef
%EventDef PajeStartLink 7
%  Time date
%  Type string
%  Container string
%  Value string
%  StartContainer string
%  Key string
%EndEventDef
%EventDef PajeEndLink 8
%  Time date
%  Type string
%  Container string
%  Value string
%  EndContainer string
%  Key string
%EndEventDef
0 CL 0 "Cluster"
0 H CL "Host"
1 P H "power"
1 U H "power_used"
2 ST H "State"
3 0 c1 CL 0 "cluster0"
3 0 h1 H c1 "host one"
3 0 h2 H c1 "host-2"
4 0 P h1 100.5
4 0 P h2 50
5 2 P h1 10
6 0 ST h1 "compute"
6 3 ST h1 "wait"
6 5 ST h1 "compute"
7 0 L 0 "comm" h1 k0
8 1 L 0 "comm" h2 k0
)";

} // namespace

TEST(Paje, ClassicTraceParses)
{
    std::istringstream in(kClassicTrace);
        auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.has_value()) << result.error().toString();
    const vt::Trace &t = result->trace;

    // Hierarchy and kinds.
    auto cluster = t.findByName("cluster0");
    auto h1 = t.findByName("host one");
    auto h2 = t.findByName("host-2");
    ASSERT_NE(cluster, vt::kNoContainer);
    ASSERT_NE(h1, vt::kNoContainer);
    EXPECT_EQ(t.container(cluster).kind, vt::ContainerKind::Cluster);
    EXPECT_EQ(t.container(h1).kind, vt::ContainerKind::Host);
    EXPECT_EQ(t.container(h1).parent, cluster);

    // Metrics inferred with natures.
    auto power = t.findMetric("power");
    auto used = t.findMetric("power_used");
    ASSERT_NE(power, vt::kNoMetric);
    EXPECT_EQ(t.metric(power).nature, vt::MetricNature::Capacity);
    EXPECT_EQ(t.metric(used).nature, vt::MetricNature::Utilization);

    // Variables: Set then Add.
    EXPECT_DOUBLE_EQ(t.findVariable(h1, power)->valueAt(1.0), 100.5);
    EXPECT_DOUBLE_EQ(t.findVariable(h1, power)->valueAt(3.0), 110.5);
    EXPECT_DOUBLE_EQ(t.findVariable(h2, power)->valueAt(1.0), 50.0);

    // States: SetState closes the previous one; the last closes at the
    // final observed time (5).
    ASSERT_EQ(t.states().size(), 2u);
    EXPECT_EQ(t.states()[0].state, "compute");
    EXPECT_DOUBLE_EQ(t.states()[0].begin, 0.0);
    EXPECT_DOUBLE_EQ(t.states()[0].end, 3.0);
    EXPECT_EQ(t.states()[1].state, "wait");
    EXPECT_DOUBLE_EQ(t.states()[1].end, 5.0);

    // The link became a relation.
    ASSERT_EQ(t.relations().size(), 1u);
    EXPECT_EQ(t.neighbors(h1), (std::vector<vt::ContainerId>{h2}));

    EXPECT_GT(result->eventCount, 10u);
    EXPECT_TRUE(result->warnings.empty());
}

TEST(Paje, PushPopNesting)
{
    std::string header = R"(
%EventDef PajeDefineContainerType 0
%  Alias string
%  Type string
%  Name string
%EndEventDef
%EventDef PajeCreateContainer 3
%  Time date
%  Alias string
%  Type string
%  Container string
%  Name string
%EndEventDef
%EventDef PajePushState 5
%  Time date
%  Type string
%  Container string
%  Value string
%EndEventDef
%EventDef PajePopState 6
%  Time date
%  Type string
%  Container string
%EndEventDef
0 H 0 "Host"
3 0 h H 0 "h"
5 0 S h "run"
5 2 S h "io"
6 3 S h
6 8 S h
)";
    std::istringstream in(header);
        auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.has_value()) << result.error().toString();
    const vt::Trace &t = result->trace;

    // run [0,2), io [2,3), run resumes [3,8).
    ASSERT_EQ(t.states().size(), 3u);
    EXPECT_EQ(t.states()[0].state, "run");
    EXPECT_DOUBLE_EQ(t.states()[0].end, 2.0);
    EXPECT_EQ(t.states()[1].state, "io");
    EXPECT_DOUBLE_EQ(t.states()[1].begin, 2.0);
    EXPECT_DOUBLE_EQ(t.states()[1].end, 3.0);
    EXPECT_EQ(t.states()[2].state, "run");
    EXPECT_DOUBLE_EQ(t.states()[2].begin, 3.0);
    EXPECT_DOUBLE_EQ(t.states()[2].end, 8.0);
}

TEST(Paje, UnknownEventIdFails)
{
    std::istringstream in("42 foo bar\n");
    auto result = vt::readPajeTrace(in);
    ASSERT_FALSE(result.has_value());
    EXPECT_NE(result.error().toString().find("unknown event id"),
              std::string::npos);
}

TEST(Paje, UnterminatedQuoteFails)
{
    std::string text = "%EventDef PajeCreateContainer 3\n"
                       "%  Time date\n%  Alias string\n%  Type string\n"
                       "%  Container string\n%  Name string\n"
                       "%EndEventDef\n"
                       "3 0 a T 0 \"oops\n";
    std::istringstream in(text);
    auto result = vt::readPajeTrace(in);
    ASSERT_FALSE(result.has_value());
    EXPECT_NE(result.error().toString().find("quote"),
              std::string::npos);
}

TEST(Paje, UnterminatedEventDefFails)
{
    std::istringstream in("%EventDef PajeSetVariable 4\n%  Time date\n");
    EXPECT_FALSE(vt::readPajeTrace(in).has_value());
}

TEST(Paje, UnknownEventKindSkippedWithWarning)
{
    std::string text = "%EventDef PajeExoticEvent 9\n"
                       "%  Time date\n"
                       "%EndEventDef\n"
                       "9 1.5\n";
    std::istringstream in(text);
        auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.has_value()) << result.error().toString();
    EXPECT_EQ(result->eventCount, 0u);
    ASSERT_EQ(result->warnings.size(), 1u);
    EXPECT_NE(result->warnings[0].find("PajeExoticEvent"),
              std::string::npos);
}

TEST(Paje, VariableOnUnknownContainerWarns)
{
    std::string text = "%EventDef PajeDefineVariableType 1\n"
                       "%  Alias string\n%  Type string\n%  Name string\n"
                       "%EndEventDef\n"
                       "%EventDef PajeSetVariable 4\n"
                       "%  Time date\n%  Type string\n"
                       "%  Container string\n%  Value double\n"
                       "%EndEventDef\n"
                       "1 P 0 \"power\"\n"
                       "4 0 P nosuch 1\n";
    std::istringstream in(text);
        auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.has_value()) << result.error().toString();
    EXPECT_FALSE(result->warnings.empty());
}

TEST(Paje, WriterRoundTripsFigure1)
{
    const vt::Trace original = figure1WithStates(
        {{"HostA", 0.0, 4.0, "busy"}, {"HostA", 4.0, 8.0, "idle"}});

    std::ostringstream out;
    vt::writePajeTrace(original, out);

    std::istringstream in(out.str());
        auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.has_value()) << result.error().toString();
    const vt::Trace &back = result->trace;

    EXPECT_EQ(back.containerCount(), original.containerCount());
    EXPECT_EQ(back.metricCount(), original.metricCount());
    EXPECT_EQ(back.relations().size(), original.relations().size());
    EXPECT_EQ(back.pointCount(), original.pointCount());
    EXPECT_EQ(back.states().size(), original.states().size());

    auto host_a = back.findByName("HostA");
    ASSERT_NE(host_a, vt::kNoContainer);
    EXPECT_EQ(back.container(host_a).kind, vt::ContainerKind::Host);
    auto power = back.findMetric("power");
    EXPECT_DOUBLE_EQ(back.findVariable(host_a, power)->valueAt(5.0),
                     10.0);
    EXPECT_DOUBLE_EQ(back.states()[0].begin, 0.0);
    EXPECT_DOUBLE_EQ(back.states()[0].end, 4.0);
}

TEST(Paje, WriterOrdersEqualTimeStatesCanonically)
{
    // Equal-time pushes and pops across two containers and within one
    // (twelve states of HostA all start at 0), in a record order that
    // interleaves the containers: enough events that an unstable sort
    // on (time, kind) alone would pick its own order among the ties.
    std::vector<StateLine> states;
    for (int i = 0; i < 12; ++i) {
        states.push_back({"HostB", 0.0, 2.0, "b" + std::to_string(i)});
        states.push_back({"HostA", 0.0, 2.0, "a" + std::to_string(i)});
    }
    states.push_back({"HostB", 2.0, 3.0, "b-next"});
    states.push_back({"HostA", 2.0, 3.0, "a-next"});
    const vt::Trace t = figure1WithStates(states);
    const vt::ContainerId a = t.findByName("HostA");
    const vt::ContainerId b = t.findByName("HostB");
    ASSERT_LT(a, b);

    // Ties break by container, then by state record.
    std::vector<std::string> expect;
    auto push = [&](vt::ContainerId c, const std::string &time,
                    const std::string &value) {
        std::ostringstream line;
        line << "5 " << time << " S c" << c << " \"" << value << '"';
        expect.push_back(line.str());
    };
    auto pop = [&](vt::ContainerId c, const std::string &time) {
        std::ostringstream line;
        line << "6 " << time << " S c" << c;
        expect.push_back(line.str());
    };
    for (int i = 0; i < 12; ++i)
        push(a, "0", "a" + std::to_string(i));
    for (int i = 0; i < 12; ++i)
        push(b, "0", "b" + std::to_string(i));
    for (int i = 0; i < 12; ++i)
        pop(a, "2");
    for (int i = 0; i < 12; ++i)
        pop(b, "2");
    push(a, "2", "a-next");
    push(b, "2", "b-next");
    pop(a, "3");
    pop(b, "3");

    std::ostringstream out;
    vt::writePajeTrace(t, out);
    std::vector<std::string> events;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("5 ", 0) == 0 || line.rfind("6 ", 0) == 0)
            events.push_back(line);
    EXPECT_EQ(events, expect);
}

TEST(Paje, WriterRoundTripsPlatformMirror)
{
    viva::platform::Platform p =
        viva::platform::makeTwoClusterPlatform();
    vt::Trace original;
    viva::platform::mirrorPlatform(p, original);

    std::ostringstream out;
    vt::writePajeTrace(original, out);
    std::istringstream in(out.str());
        auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.has_value()) << result.error().toString();
    const vt::Trace &back = result->trace;

    EXPECT_EQ(back.containerCount(), original.containerCount());
    EXPECT_EQ(back.relations().size(), original.relations().size());
    // Hierarchy paths survive.
    EXPECT_NE(back.findByPath("hpc/testbed/adonis/adonis-3"),
              vt::kNoContainer);
    // Kinds survive through the container-type names.
    EXPECT_EQ(back.container(back.findByName("backbone")).kind,
              vt::ContainerKind::Link);
}

TEST(Paje, NamesWithSpacesSurviveRoundTrip)
{
    vt::TraceBuilder b;
    auto power = b.powerMetric();
    auto h = b.trace().addContainer("my weird host",
                                    vt::ContainerKind::Host,
                                    b.trace().root());
    b.trace().variable(h, power).set(0.0, 5.0);
    vt::Trace original = b.take();

    std::ostringstream out;
    vt::writePajeTrace(original, out);
    std::istringstream in(out.str());
        auto result = vt::readPajeTrace(in);
    ASSERT_TRUE(result.has_value()) << result.error().toString();
    EXPECT_NE(result->trace.findByName("my weird host"),
              vt::kNoContainer);
}
