/**
 * @file
 * The corrupted-trace corpus: a deterministic generator that mutates
 * well-formed serialized traces -- truncation, byte flips, field drops,
 * line duplication -- in both on-disk formats, and the robustness
 * properties every mutant must satisfy. A reader faced with any mutant
 * must either accept it or return a structured support::Error with a
 * file:line context chain; it must never crash, assert or fatal(). A
 * Session::load that rejects a mutant must leave the session bitwise
 * unchanged (proven by stateDigest()).
 *
 * The corpus is seed-driven through support::Rng, so a failing mutant
 * is reproducible from the (format, kind, seed) triple printed in the
 * assertion message.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/checkpoint.hh"
#include "app/session.hh"
#include "support/error.hh"
#include "support/random.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/paje.hh"

namespace vap = viva::app;
namespace vs = viva::support;
namespace vt = viva::trace;

namespace
{

enum class Format
{
    Native,
    Paje,
};

enum class Mutation
{
    Truncate,       ///< cut the document at a random byte
    ByteFlip,       ///< XOR a handful of random bytes
    FieldDrop,      ///< delete one whitespace-separated token of a line
    DuplicateLine,  ///< repeat a random line (duplicated definitions)
};

constexpr Format kFormats[] = {Format::Native, Format::Paje};
constexpr Mutation kMutations[] = {Mutation::Truncate, Mutation::ByteFlip,
                                   Mutation::FieldDrop,
                                   Mutation::DuplicateLine};
constexpr std::uint64_t kSeedsPerCell = 30;  // 2 x 4 x 30 = 240 mutants

const char *
formatName(Format f)
{
    return f == Format::Native ? "native" : "paje";
}

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::Truncate: return "truncate";
      case Mutation::ByteFlip: return "byte-flip";
      case Mutation::FieldDrop: return "field-drop";
      case Mutation::DuplicateLine: return "duplicate-line";
    }
    return "?";
}

/** The pristine document a corpus cell starts from. */
std::string
pristine(Format f)
{
    std::ostringstream out;
    if (f == Format::Native)
        vt::writeTrace(vt::makeFigure1Trace(), out);
    else
        vt::writePajeTrace(vt::makeFigure1Trace(), out);
    return out.str();
}

std::vector<std::string>
splitLines(const std::string &doc)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : doc) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string doc;
    for (const std::string &l : lines) {
        doc += l;
        doc += '\n';
    }
    return doc;
}

/** Apply one seeded mutation; always changes the document. */
std::string
mutate(const std::string &doc, Mutation kind, std::uint64_t seed)
{
    vs::Rng rng(seed * 2654435761ull + std::uint64_t(kind) + 1);
    switch (kind) {
      case Mutation::Truncate: {
          // Cut anywhere, including mid-line and mid-token.
          std::size_t at = rng.index(doc.size());
          return doc.substr(0, at);
      }
      case Mutation::ByteFlip: {
          std::string out = doc;
          std::size_t flips = 1 + rng.index(8);
          for (std::size_t i = 0; i < flips; ++i) {
              std::size_t at = rng.index(out.size());
              out[at] = char(out[at] ^ char(1 << rng.index(7)));
          }
          return out;
      }
      case Mutation::FieldDrop: {
          std::vector<std::string> lines = splitLines(doc);
          std::size_t at = rng.index(lines.size());
          std::vector<std::string> tokens;
          std::istringstream in(lines[at]);
          std::string tok;
          while (in >> tok)
              tokens.push_back(tok);
          if (tokens.size() > 1)
              tokens.erase(tokens.begin() +
                           std::ptrdiff_t(rng.index(tokens.size())));
          else
              lines[at].clear();
          std::string rebuilt;
          for (std::size_t i = 0; i < tokens.size(); ++i) {
              if (i)
                  rebuilt += ' ';
              rebuilt += tokens[i];
          }
          lines[at] = rebuilt;
          return joinLines(lines);
      }
      case Mutation::DuplicateLine: {
          std::vector<std::string> lines = splitLines(doc);
          std::size_t at = rng.index(lines.size());
          lines.insert(lines.begin() + std::ptrdiff_t(at), lines[at]);
          return joinLines(lines);
      }
    }
    return doc;
}

/**
 * Feed one mutant to its reader. Crashes/aborts fail the whole suite;
 * rejections must carry a structured, contextful Error.
 * @return true when the mutant was accepted
 */
bool
digestOne(Format f, const std::string &mutant, const std::string &label)
{
    std::istringstream in(mutant);
    if (f == Format::Native) {
        auto result = vt::readTrace(in);
        if (result.ok())
            return true;
        EXPECT_FALSE(result.error().context().empty()) << label;
        EXPECT_FALSE(result.error().toString().empty()) << label;
        return false;
    }
    auto result = vt::readPajeTrace(in);
    if (result.ok())
        return true;
    EXPECT_FALSE(result.error().context().empty()) << label;
    EXPECT_FALSE(result.error().toString().empty()) << label;
    return false;
}

std::filesystem::path
corpusDir()
{
    auto dir = std::filesystem::temp_directory_path() / "viva_corpus_test";
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

/** The corpus is a pure function of its seeds. */
TEST(Corpus, GeneratorIsDeterministic)
{
    std::string doc = pristine(Format::Native);
    for (Mutation m : kMutations)
        for (std::uint64_t seed = 0; seed < 5; ++seed)
            EXPECT_EQ(mutate(doc, m, seed), mutate(doc, m, seed));
}

/** Every mutation actually perturbs the document. */
TEST(Corpus, MutantsDifferFromThePristineDocument)
{
    for (Format f : kFormats) {
        std::string doc = pristine(f);
        std::size_t changed = 0, total = 0;
        for (Mutation m : kMutations) {
            for (std::uint64_t seed = 0; seed < kSeedsPerCell; ++seed) {
                ++total;
                if (mutate(doc, m, seed) != doc)
                    ++changed;
            }
        }
        // Duplicating a blank line can be a no-op; nearly all others
        // must differ.
        EXPECT_GE(changed, total - 5) << formatName(f);
    }
}

/**
 * The acceptance gate: >= 200 deterministic mutants, in both formats,
 * and not one of them crashes a reader. Every rejection is a
 * structured Error.
 */
TEST(Corpus, NoMutantCrashesAReader)
{
    std::size_t total = 0, accepted = 0, rejected = 0;
    for (Format f : kFormats) {
        std::string doc = pristine(f);
        ASSERT_FALSE(doc.empty());
        for (Mutation m : kMutations) {
            for (std::uint64_t seed = 0; seed < kSeedsPerCell; ++seed) {
                std::string label = std::string(formatName(f)) + "/" +
                                    mutationName(m) + "/seed " +
                                    std::to_string(seed);
                std::string mutant = mutate(doc, m, seed);
                ++total;
                if (digestOne(f, mutant, label))
                    ++accepted;
                else
                    ++rejected;
            }
        }
    }
    EXPECT_GE(total, 200u);
    // Sanity on corpus quality: the mutations are harsh enough that a
    // good share get rejected, yet some survive (the readers are not
    // rejecting everything out of hand).
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
}

/**
 * Session-level degradation: loading any rejected mutant from disk
 * leaves the session bitwise unchanged, and the session keeps working
 * afterwards.
 */
TEST(Corpus, FailedLoadsNeverMutateTheSession)
{
    auto dir = corpusDir();
    // Baseline: the pristine trace loaded from disk, layout settled.
    // Re-establishing it is deterministic, so the digest is a fixed
    // point we can return to after any accepted mutant.
    std::string pristinePath = (dir / "pristine.viva").string();
    ASSERT_TRUE(
        vt::writeTraceFile(vt::makeFigure1Trace(), pristinePath).ok());
    vap::Session session(vt::makeFigure1Trace());
    auto rebaseline = [&] {
        auto ok = session.load(pristinePath);
        ASSERT_TRUE(ok.ok()) << ok.error().toString();
        session.stabilizeLayout(50).value();
    };
    rebaseline();
    const std::uint64_t digest = session.stateDigest();

    std::size_t failed_loads = 0;
    for (Format f : kFormats) {
        std::string doc = pristine(f);
        const char *ext = f == Format::Native ? ".viva" : ".paje";
        for (Mutation m : kMutations) {
            // A slice of the corpus is enough here: the per-mutant
            // reader sweep above covers the full set.
            for (std::uint64_t seed = 0; seed < 8; ++seed) {
                std::string label = std::string(formatName(f)) + "/" +
                                    mutationName(m) + "/seed " +
                                    std::to_string(seed);
                auto path = dir / (std::string(formatName(f)) + "_" +
                                   mutationName(m) + "_" +
                                   std::to_string(seed) + ext);
                {
                    std::ofstream out(path);
                    out << mutate(doc, m, seed);
                }
                auto loaded = session.load(path.string());
                if (loaded.ok()) {
                    // Accepted mutants legitimately change the session;
                    // restore the baseline before the next probe.
                    rebaseline();
                    ASSERT_EQ(session.stateDigest(), digest) << label;
                    continue;
                }
                ++failed_loads;
                EXPECT_FALSE(loaded.error().context().empty()) << label;
                EXPECT_EQ(session.stateDigest(), digest)
                    << label << ": failed load mutated the session; "
                    << loaded.error().toString();
            }
        }
    }
    EXPECT_GT(failed_loads, 0u);

    // After the whole gauntlet the session still analyses and renders.
    EXPECT_TRUE(session.auditInvariants().empty());
    auto svg = session.renderSvg((dir / "after_corpus.svg").string());
    EXPECT_TRUE(svg.ok()) << svg.error().toString();
}

/** Digest changes when state actually changes (it is not a constant). */
TEST(Corpus, DigestReactsToStateChanges)
{
    vap::Session session(vt::makeFigure1Trace());
    std::uint64_t before = session.stateDigest();
    session.forceParams().charge *= 2.0;
    std::uint64_t after = session.stateDigest();
    EXPECT_NE(before, after);

    session.setSliceOf(viva::agg::SliceIndex{0}, 4);
    EXPECT_NE(session.stateDigest(), after);
}

// --- the checkpoint-file corpus ------------------------------------------------

namespace
{

enum class CkptMutation
{
    Truncate,      ///< cut the file at a random byte
    ByteFlip,      ///< XOR a handful of random bytes
    ChecksumFlip,  ///< corrupt the FNV footer only
    VersionSkew,   ///< rewrite the version digit in the magic
};

constexpr CkptMutation kCkptMutations[] = {
    CkptMutation::Truncate, CkptMutation::ByteFlip,
    CkptMutation::ChecksumFlip, CkptMutation::VersionSkew};

const char *
ckptMutationName(CkptMutation m)
{
    switch (m) {
      case CkptMutation::Truncate: return "truncate";
      case CkptMutation::ByteFlip: return "byte-flip";
      case CkptMutation::ChecksumFlip: return "checksum-flip";
      case CkptMutation::VersionSkew: return "version-skew";
    }
    return "?";
}

/**
 * Apply one seeded checkpoint mutation. Every kind guarantees a real
 * change, so (checksum + magic + exact-length enforcement) must reject
 * every mutant deterministically.
 */
std::string
mutateCkpt(const std::string &bytes, CkptMutation kind,
           std::uint64_t seed)
{
    vs::Rng rng(seed * 2654435761ull + std::uint64_t(kind) + 17);
    std::string out = bytes;
    switch (kind) {
      case CkptMutation::Truncate:
          return out.substr(0, rng.index(out.size()));
      case CkptMutation::ByteFlip: {
          std::size_t flips = 1 + rng.index(8);
          for (std::size_t i = 0; i < flips; ++i) {
              std::size_t at = rng.index(out.size());
              out[at] = char(out[at] ^ char(1 << rng.index(7)));
          }
          return out;
      }
      case CkptMutation::ChecksumFlip: {
          std::size_t at = out.size() - 1 - rng.index(8);
          out[at] = char(out[at] ^ 0x40);
          return out;
      }
      case CkptMutation::VersionSkew: {
          out[10] = char('2' + rng.index(8));  // "viva-ckpt-N\n"
          return out;
      }
    }
    return out;
}

/** The pristine checkpoint bytes of a non-trivially configured session. */
std::string
pristineCkpt()
{
    vap::Session session(vt::makeFigure1Trace());
    session.setSliceOf(viva::agg::SliceIndex{1}, 3);
    session.forceParams().charge *= 1.25;
    session.stabilizeLayout(30).value();
    session.pinNode("HostA", true);
    return vap::serializeCheckpoint([&] {
        // One file per test: ctest runs the tests that call this in
        // parallel processes, which must not write one shared path.
        auto dir = corpusDir();
        auto path = (dir / ("pristine-" +
                            std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()) +
                            ".ckpt"))
                        .string();
        EXPECT_TRUE(session.checkpoint(path).ok());
        auto image = vap::readCheckpointFile(path);
        EXPECT_TRUE(image.ok());
        return *image;
    }());
}

} // namespace

/** >= 100 deterministic checkpoint mutants; not one crashes the parser. */
TEST(Corpus, NoCheckpointMutantCrashesTheReader)
{
    const std::string doc = pristineCkpt();
    ASSERT_GT(doc.size(), 64u);
    std::size_t total = 0, rejected = 0;
    for (CkptMutation m : kCkptMutations) {
        for (std::uint64_t seed = 0; seed < kSeedsPerCell; ++seed) {
            std::string label = std::string("ckpt/") +
                                ckptMutationName(m) + "/seed " +
                                std::to_string(seed);
            std::string mutant = mutateCkpt(doc, m, seed);
            ASSERT_NE(mutant, doc) << label;
            ++total;
            auto parsed = vap::parseCheckpoint(mutant);
            ASSERT_FALSE(parsed.ok())
                << label << ": the checksum/magic/length gauntlet "
                            "accepted a corrupt checkpoint";
            ++rejected;
            EXPECT_FALSE(parsed.error().context().empty()) << label;
            EXPECT_FALSE(parsed.error().toString().empty()) << label;
        }
    }
    EXPECT_GE(total, 100u);
    EXPECT_EQ(rejected, total);
}

/** Failed restores from mutant files leave the session bitwise intact. */
TEST(Corpus, FailedRestoresNeverMutateTheSession)
{
    auto dir = corpusDir();
    const std::string doc = pristineCkpt();
    const std::string goodPath = (dir / "restore_good.ckpt").string();
    {
        std::ofstream out(goodPath, std::ios::binary);
        out.write(doc.data(), std::streamsize(doc.size()));
    }

    vap::Session session(vt::makeFigure1Trace());
    ASSERT_TRUE(session.restore(goodPath).ok());
    const std::uint64_t digest = session.stateDigest();

    std::size_t failed = 0;
    for (CkptMutation m : kCkptMutations) {
        // A slice of the corpus: the parser-level sweep above covers
        // the full seed range.
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            std::string label = std::string("ckpt/") +
                                ckptMutationName(m) + "/seed " +
                                std::to_string(seed);
            auto path = dir / (std::string("ckpt_") +
                               ckptMutationName(m) + "_" +
                               std::to_string(seed) + ".ckpt");
            {
                std::ofstream out(path, std::ios::binary);
                std::string mutant = mutateCkpt(doc, m, seed);
                out.write(mutant.data(),
                          std::streamsize(mutant.size()));
            }
            auto restored = session.restore(path.string());
            ASSERT_FALSE(restored.ok()) << label;
            ++failed;
            EXPECT_FALSE(restored.error().context().empty()) << label;
            EXPECT_EQ(session.stateDigest(), digest)
                << label << ": failed restore mutated the session; "
                << restored.error().toString();
        }
    }
    EXPECT_GE(failed, 32u);

    // After the gauntlet the session still restores and renders.
    ASSERT_TRUE(session.restore(goodPath).ok());
    EXPECT_EQ(session.stateDigest(), digest);
    auto svg =
        session.renderSvg((dir / "after_ckpt_corpus.svg").string());
    EXPECT_TRUE(svg.ok()) << svg.error().toString();
}
