/**
 * @file
 * Tests for the crash-safe checkpoint layer: the `viva-ckpt-1` binary
 * format (serialize/parse round trip, the strictly bounded reader),
 * the write-temp -> flush -> atomic-rename writer protocol under fault
 * injection, Session::checkpoint / Session::restore digest equality,
 * the retry policy around transient checkpoint I/O, and the
 * interpreter's checkpoint / restore / auto-checkpoint commands.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/checkpoint.hh"
#include "app/commands.hh"
#include "app/session.hh"
#include "platform/builders.hh"
#include "platform/platform_trace.hh"
#include "support/clock.hh"
#include "support/error.hh"
#include "support/fault.hh"
#include "support/logging.hh"
#include "trace/builder.hh"
#include "trace/io.hh"

namespace vap = viva::app;
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

std::filesystem::path
tempDir()
{
    auto dir =
        std::filesystem::temp_directory_path() / "viva_checkpoint_test";
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * A session with every checkpointed degree of freedom exercised:
 * a non-trivial slice, a coarsened cut, touched force and size
 * sliders, a moved and a pinned node, explicit threads and governor
 * budgets, and a relaxed layout.
 */
vap::Session
makeBusySession()
{
    vap::Session s(vt::makeFigure1Trace());
    s.setSliceOf(viva::agg::SliceIndex{1}, 3);
    s.forceParams().charge *= 1.5;
    s.forceParams().spring *= 0.8;
    auto power = s.trace().findMetric("power");
    s.scaling().setSlider(power, 2.5);
    s.setThreads(2);
    s.stabilizeLayout(40).value();
    EXPECT_TRUE(s.moveNode("HostA", 321.0, 123.0));
    EXPECT_TRUE(s.pinNode("HostB", true));
    s.setMemoryBudget(1ull << 30);  // generous: no degradation
    s.setOperationDeadline(0);
    return s;
}

/** A small but fully populated image for format-level tests. */
vap::CheckpointImage
makeImage()
{
    vap::Session s = makeBusySession();
    // One file per test: ctest runs the tests that call this as
    // concurrent processes, and a shared file can be read mid-write.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    auto path = (tempDir() / (name + ".image_source.ckpt")).string();
    EXPECT_TRUE(s.checkpoint(path).ok());
    auto image = vap::readCheckpointFile(path);
    EXPECT_TRUE(image.ok()) << image.error().toString();
    return *image;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

} // namespace

// --- format round trip ---------------------------------------------------------

TEST(CheckpointFormat, SerializeParseRoundTripPreservesEveryField)
{
    vap::CheckpointImage image = makeImage();
    ASSERT_FALSE(image.traceText.empty());
    ASSERT_FALSE(image.nodes.empty());
    ASSERT_FALSE(image.sliders.empty());

    std::string bytes = vap::serializeCheckpoint(image);
    auto parsed = vap::parseCheckpoint(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();

    EXPECT_EQ(parsed->traceText, image.traceText);
    EXPECT_EQ(parsed->cutFlags, image.cutFlags);
    EXPECT_EQ(parsed->sliceBegin, image.sliceBegin);
    EXPECT_EQ(parsed->sliceEnd, image.sliceEnd);
    EXPECT_EQ(parsed->force.charge, image.force.charge);
    EXPECT_EQ(parsed->force.spring, image.force.spring);
    EXPECT_EQ(parsed->threads, image.threads);
    EXPECT_EQ(parsed->maxPixel, image.maxPixel);
    ASSERT_EQ(parsed->sliders.size(), image.sliders.size());
    for (std::size_t i = 0; i < image.sliders.size(); ++i) {
        EXPECT_EQ(parsed->sliders[i].first, image.sliders[i].first);
        EXPECT_EQ(parsed->sliders[i].second, image.sliders[i].second);
    }
    EXPECT_EQ(parsed->memBudgetBytes, image.memBudgetBytes);
    EXPECT_EQ(parsed->opDeadlineNanos, image.opDeadlineNanos);
    ASSERT_EQ(parsed->nodes.size(), image.nodes.size());
    for (std::size_t i = 0; i < image.nodes.size(); ++i) {
        EXPECT_EQ(parsed->nodes[i].key, image.nodes[i].key);
        EXPECT_EQ(parsed->nodes[i].px, image.nodes[i].px);
        EXPECT_EQ(parsed->nodes[i].vy, image.nodes[i].vy);
        EXPECT_EQ(parsed->nodes[i].pinned, image.nodes[i].pinned);
    }
}

TEST(CheckpointFormat, SerializationIsDeterministic)
{
    vap::CheckpointImage image = makeImage();
    EXPECT_EQ(vap::serializeCheckpoint(image),
              vap::serializeCheckpoint(image));
}

// --- the bounded reader --------------------------------------------------------

TEST(CheckpointFormat, EveryTruncationIsARejectedParseNotACrash)
{
    std::string bytes = vap::serializeCheckpoint(makeImage());
    ASSERT_GT(bytes.size(), 64u);
    // Every prefix of the first chunk, then a stride through the rest:
    // header truncations, mid-section truncations, missing-footer
    // truncations are all covered.
    for (std::size_t cut = 0; cut < bytes.size();
         cut += (cut < 64 ? 1 : 7)) {
        auto parsed = vap::parseCheckpoint(bytes.substr(0, cut));
        ASSERT_FALSE(parsed.ok()) << "cut at " << cut;
        EXPECT_FALSE(parsed.error().context().empty())
            << "cut at " << cut;
    }
}

TEST(CheckpointFormat, ChecksumMismatchIsRejected)
{
    std::string bytes = vap::serializeCheckpoint(makeImage());
    // Flip one payload byte: the FNV footer no longer matches.
    bytes[bytes.size() / 2] ^= 0x01;
    auto parsed = vap::parseCheckpoint(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), vs::Errc::Parse);
    EXPECT_NE(parsed.error().toString().find("checksum"),
              std::string::npos);
}

TEST(CheckpointFormat, VersionSkewIsRejected)
{
    std::string bytes = vap::serializeCheckpoint(makeImage());
    ASSERT_EQ(bytes.compare(0, vap::kCheckpointMagic.size(),
                            vap::kCheckpointMagic),
              0);
    bytes[10] = '9';  // "viva-ckpt-9\n"
    auto parsed = vap::parseCheckpoint(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), vs::Errc::Parse);
}

TEST(CheckpointFormat, TrailingBytesAreRejected)
{
    std::string bytes = vap::serializeCheckpoint(makeImage());
    auto parsed = vap::parseCheckpoint(bytes + "x");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), vs::Errc::Parse);
}

TEST(CheckpointFormat, HugeLengthFieldsNeverAllocate)
{
    std::string bytes = vap::serializeCheckpoint(makeImage());
    // Overwrite the payload-length field with an absurd value: the
    // reader must reject it against kMaxCheckpointPayload before
    // sizing any buffer.
    for (std::size_t i = 12; i < 20; ++i)
        bytes[i] = char(0xFF);
    auto parsed = vap::parseCheckpoint(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), vs::Errc::Budget);
}

TEST(CheckpointFormat, BudgetCeilingsApplyBeforeAllocation)
{
    std::string bytes = vap::serializeCheckpoint(makeImage());
    vt::ParseBudget tiny;
    tiny.maxContainers = 1;  // fewer than the cut flags in the image
    auto parsed = vap::parseCheckpoint(bytes, tiny);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), vs::Errc::Budget);
}

// --- the crash-safe writer -----------------------------------------------------

TEST(CheckpointWriter, FaultedWriteLeavesTheOldCheckpointIntact)
{
    FaultGuard guard;
    auto path = (tempDir() / "atomic.ckpt").string();

    vap::Session first = makeBusySession();
    ASSERT_TRUE(first.checkpoint(path).ok());
    const std::string before = readFile(path);
    const std::uint64_t first_digest = first.stateDigest();

    // A different state, whose write dies mid-stream on every attempt.
    vap::Session second = makeBusySession();
    second.setSliceOf(viva::agg::SliceIndex{0}, 3);
    second.retryPolicy().maxAttempts = 2;
    vs::FakeClock fake;
    vs::ClockOverride clock_guard(fake);
    vs::FaultInjector::global().arm("ckpt.write.stream");
    auto written = second.checkpoint(path);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code(), vs::Errc::Io);

    // Old bytes untouched, no temp litter, and the old file still
    // restores to the first session's exact state.
    EXPECT_EQ(readFile(path), before);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    vap::Session restored(vt::makeFigure1Trace());
    ASSERT_TRUE(restored.restore(path).ok());
    EXPECT_EQ(restored.stateDigest(), first_digest);
}

TEST(CheckpointWriter, TransientWriteFaultIsRetriedToSuccess)
{
    FaultGuard guard;
    auto path = (tempDir() / "retried.ckpt").string();

    vap::Session s = makeBusySession();
    s.retryPolicy().maxAttempts = 3;
    vs::FakeClock fake;
    vs::ClockOverride clock_guard(fake);

    // Exactly one fault: the first attempt dies, the retry succeeds.
    vs::FaultSpec spec;
    spec.maxFires = 1;
    vs::FaultInjector::global().arm("ckpt.write.stream", spec);

    ASSERT_TRUE(s.checkpoint(path).ok());
    EXPECT_GT(fake.nowNanos(), 0u) << "the retry backoff never slept";

    vap::Session restored(vt::makeFigure1Trace());
    ASSERT_TRUE(restored.restore(path).ok());
    EXPECT_EQ(restored.stateDigest(), s.stateDigest());
}

TEST(CheckpointWriter, ChunkedWritesProduceIdenticalBytes)
{
    auto whole = (tempDir() / "whole.ckpt").string();
    auto chunked = (tempDir() / "chunked.ckpt").string();
    vap::CheckpointImage image = makeImage();
    ASSERT_TRUE(vap::writeCheckpointFile(image, whole).ok());
    ASSERT_TRUE(vap::writeCheckpointFile(image, chunked, 64).ok());
    EXPECT_EQ(readFile(whole), readFile(chunked));
}

// --- session restore -----------------------------------------------------------

TEST(CheckpointRestore, RestoreIsBitwiseEquivalentToTheCheckpoint)
{
    auto path = (tempDir() / "roundtrip.ckpt").string();
    vap::Session original = makeBusySession();
    const std::uint64_t digest = original.stateDigest();
    ASSERT_TRUE(original.checkpoint(path).ok());

    vap::Session restored(vt::makeFigure1Trace());
    EXPECT_NE(restored.stateDigest(), digest);
    auto ok = restored.restore(path);
    ASSERT_TRUE(ok.ok()) << ok.error().toString();
    EXPECT_EQ(restored.stateDigest(), digest);

    // The restored session is fully alive: governance settings came
    // back, audits pass and it renders.
    EXPECT_EQ(restored.threads(), original.threads());
    EXPECT_EQ(restored.memoryBudget(), original.memoryBudget());
    EXPECT_TRUE(restored.auditInvariants().empty());
    auto svg =
        restored.renderSvg((tempDir() / "restored.svg").string());
    EXPECT_TRUE(svg.ok()) << svg.error().toString();
}

TEST(CheckpointRestore, RoundTripsAcrossAggregationStates)
{
    // The deeper two-cluster platform: checkpoint/restore at several
    // points of the aggregation ladder, digest-identical each time.
    viva::platform::Platform p =
        viva::platform::makeTwoClusterPlatform();
    vt::Trace t;
    viva::platform::mirrorPlatform(p, t);
    vap::Session s(std::move(t));
    auto path = (tempDir() / "ladder.ckpt").string();

    for (std::uint16_t depth = 3; depth > 0; --depth) {
        s.aggregateToDepth(std::uint16_t(depth - 1));
        s.stabilizeLayout(20).value();
        const std::uint64_t digest = s.stateDigest();
        ASSERT_TRUE(s.checkpoint(path).ok()) << "depth " << depth;

        vap::Session restored(vt::makeFigure1Trace());
        ASSERT_TRUE(restored.restore(path).ok()) << "depth " << depth;
        EXPECT_EQ(restored.stateDigest(), digest) << "depth " << depth;
        EXPECT_EQ(restored.cut().visibleCount(), s.cut().visibleCount());
    }
}

TEST(CheckpointRestore, FailedRestoreLeavesTheSessionUnchanged)
{
    FaultGuard guard;
    auto good = (tempDir() / "good.ckpt").string();
    auto bad = (tempDir() / "bad.ckpt").string();
    vap::Session source = makeBusySession();
    ASSERT_TRUE(source.checkpoint(good).ok());
    std::string bytes = readFile(good);
    bytes[bytes.size() / 2] ^= 0x10;
    writeFile(bad, bytes);

    vap::Session s = makeBusySession();
    const std::uint64_t digest = s.stateDigest();

    auto corrupt = s.restore(bad);
    ASSERT_FALSE(corrupt.ok());
    EXPECT_FALSE(corrupt.error().context().empty());
    EXPECT_EQ(s.stateDigest(), digest);

    auto missing = s.restore((tempDir() / "nope.ckpt").string());
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(s.stateDigest(), digest);

    vs::FaultInjector::global().arm("ckpt.read.stream");
    s.retryPolicy().maxAttempts = 1;
    auto faulted = s.restore(good);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.error().code(), vs::Errc::Io);
    EXPECT_EQ(s.stateDigest(), digest);
    vs::FaultInjector::global().disarmAll();

    // After the gauntlet the session still restores the good file.
    ASSERT_TRUE(s.restore(good).ok());
    EXPECT_EQ(s.stateDigest(), source.stateDigest());
}

TEST(CheckpointRestore, RejectsANodeSetTheCutDoesNotShow)
{
    // Each image below is well formed and freshly checksummed, so only
    // the node-set validation can reject it.
    viva::platform::Platform p =
        viva::platform::makeTwoClusterPlatform();
    vt::Trace t;
    viva::platform::mirrorPlatform(p, t);
    vap::Session source(std::move(t));
    ASSERT_TRUE(source.aggregate("adonis"));
    auto good = (tempDir() / "node_set_good.ckpt").string();
    ASSERT_TRUE(source.checkpoint(good).ok());
    auto read = vap::readCheckpointFile(good);
    ASSERT_TRUE(read.ok()) << read.error().toString();
    const vap::CheckpointImage image = *read;
    ASSERT_GE(image.nodes.size(), 2u);

    const viva::agg::HierarchyCut &cut = source.cut();
    const std::size_t count = source.trace().containerCount();
    std::uint64_t hidden = count;
    for (std::size_t i = 0; i < count && hidden == count; ++i) {
        const vt::ContainerId id = vt::ContainerId::fromIndex(i);
        if (cut.representative(id) != id)
            hidden = i;
    }
    ASSERT_LT(hidden, count) << "the cut hides nothing";

    auto sorted = [](std::vector<vap::CheckpointNode> nodes) {
        std::sort(nodes.begin(), nodes.end(),
                  [](const vap::CheckpointNode &a,
                     const vap::CheckpointNode &b) {
                      return a.key < b.key;
                  });
        return nodes;
    };
    struct Fault
    {
        const char *what;
        std::vector<vap::CheckpointNode> nodes;
        const char *message;
    };
    std::vector<Fault> faults;
    faults.push_back({"key past the container count", image.nodes,
                      "which the cut does not make visible"});
    faults.back().nodes.back().key = count;
    faults.push_back({"key of a hidden container", image.nodes,
                      "which the cut does not make visible"});
    faults.back().nodes.front().key = hidden;
    faults.back().nodes = sorted(faults.back().nodes);
    faults.push_back({"keys out of order", image.nodes,
                      "not strictly sorted"});
    std::swap(faults.back().nodes[0], faults.back().nodes[1]);
    faults.push_back({"one node too few", image.nodes,
                      "layout node(s) for a cut with"});
    faults.back().nodes.pop_back();

    vap::Session s = makeBusySession();
    const std::uint64_t digest = s.stateDigest();
    for (const Fault &fault : faults) {
        vap::CheckpointImage bad = image;
        bad.nodes = fault.nodes;
        auto path = (tempDir() / "node_set_bad.ckpt").string();
        ASSERT_TRUE(vap::writeCheckpointFile(bad, path).ok())
            << fault.what;
        auto restored = s.restore(path);
        ASSERT_FALSE(restored.ok()) << fault.what;
        EXPECT_EQ(restored.error().code(), vs::Errc::Parse) << fault.what;
        EXPECT_NE(restored.error().toString().find(fault.message),
                  std::string::npos)
            << fault.what << ": " << restored.error().toString();
        EXPECT_EQ(s.stateDigest(), digest) << fault.what;
    }

    // The untouched image still restores.
    ASSERT_TRUE(s.restore(good).ok());
    EXPECT_EQ(s.stateDigest(), source.stateDigest());
}

// --- interpreter commands ------------------------------------------------------

TEST(CheckpointCommands, CheckpointAndRestoreRoundTripThroughTheCli)
{
    auto path = (tempDir() / "cli.ckpt").string();
    vap::Session s = makeBusySession();
    const std::uint64_t digest = s.stateDigest();
    vap::CommandInterpreter cli(s);

    std::ostringstream out;
    ASSERT_TRUE(cli.execute("checkpoint " + path, out));
    EXPECT_NE(out.str().find("checkpoint"), std::string::npos);

    ASSERT_TRUE(cli.execute("slice-of 0 3", out));
    EXPECT_NE(s.stateDigest(), digest);
    ASSERT_TRUE(cli.execute("restore " + path, out));
    EXPECT_EQ(s.stateDigest(), digest);

    std::ostringstream err;
    EXPECT_FALSE(cli.execute("restore /no/such/file.ckpt", err));
    EXPECT_EQ(s.stateDigest(), digest);
}

TEST(CheckpointCommands, AutoCheckpointWritesEveryNthCommand)
{
    auto path = (tempDir() / "auto.ckpt").string();
    std::filesystem::remove(path);
    vap::Session s(vt::makeFigure1Trace());
    vap::CommandInterpreter cli(s);
    std::ostringstream out;

    ASSERT_TRUE(cli.execute("set autockpt 2 " + path, out));
    ASSERT_TRUE(cli.execute("slice-of 0 3", out));
    EXPECT_FALSE(std::filesystem::exists(path)) << "one command in";
    ASSERT_TRUE(cli.execute("slice-of 1 3", out));
    ASSERT_TRUE(std::filesystem::exists(path)) << "two commands in";

    // The auto-checkpoint captured the state after the second command.
    const std::uint64_t digest = s.stateDigest();
    ASSERT_TRUE(cli.execute("slice-of 2 3", out));
    vap::Session restored(vt::makeFigure1Trace());
    ASSERT_TRUE(restored.restore(path).ok());
    EXPECT_EQ(restored.stateDigest(), digest);

    // Comments are not counted; 0 disables.
    ASSERT_TRUE(cli.execute("set autockpt 0", out));
    std::filesystem::remove(path);
    ASSERT_TRUE(cli.execute("slice-of 0 3", out));
    ASSERT_TRUE(cli.execute("slice-of 1 3", out));
    EXPECT_FALSE(std::filesystem::exists(path));
}
