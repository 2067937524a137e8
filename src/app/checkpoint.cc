/**
 * @file
 * Implementation of the `viva-ckpt-1` checkpoint format.
 */

#include "app/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/atomic_file.hh"
#include "support/fault.hh"

namespace viva::app
{

namespace
{

/** FNV-1a over a byte range; the format's content checksum. */
std::uint64_t
fnv1a(const char *data, std::size_t size)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= std::uint8_t(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

// --- little-endian encoding ---------------------------------------------

void
putU64(std::string &out, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        out.push_back(char((v >> (8 * b)) & 0xffu));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (unsigned b = 0; b < 4; ++b)
        out.push_back(char((v >> (8 * b)) & 0xffu));
}

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(char(v));
}

void
putF64(std::string &out, double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    putU64(out, bits);
}

/**
 * Bounded cursor over the payload: every read checks the remaining
 * bytes first, so a corrupt length field can never walk off the end.
 */
struct Reader
{
    const char *data;
    std::size_t size;
    std::size_t pos = 0;

    std::size_t remaining() const { return size - pos; }

    support::Expected<void>
    need(std::size_t n, const char *what)
    {
        if (remaining() >= n)
            return {};
        return VIVA_ERROR(support::Errc::Parse, "truncated checkpoint: ",
                          what, " needs ", n, " byte(s), ", remaining(),
                          " left at offset ", pos);
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (unsigned b = 0; b < 8; ++b)
            v |= std::uint64_t(std::uint8_t(data[pos++])) << (8 * b);
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (unsigned b = 0; b < 4; ++b)
            v |= std::uint32_t(std::uint8_t(data[pos++])) << (8 * b);
        return v;
    }

    std::uint8_t u8() { return std::uint8_t(data[pos++]); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    }
};

} // namespace

std::string
serializeCheckpoint(const CheckpointImage &image)
{
    std::string payload;
    payload.reserve(image.traceText.size() + image.cutFlags.size() +
                    image.nodes.size() * 41 + 256);

    putU64(payload, image.traceText.size());
    payload.append(image.traceText);

    putU64(payload, image.cutFlags.size());
    for (std::uint8_t f : image.cutFlags)
        putU8(payload, f);

    putF64(payload, image.sliceBegin);
    putF64(payload, image.sliceEnd);

    putF64(payload, image.force.charge);
    putF64(payload, image.force.spring);
    putF64(payload, image.force.restLength);
    putF64(payload, image.force.damping);
    putF64(payload, image.force.timestep);
    putF64(payload, image.force.maxDisplacement);
    putF64(payload, image.force.theta);
    putU8(payload, image.force.useBarnesHut ? 1 : 0);

    putU64(payload, image.threads);

    putF64(payload, image.maxPixel);
    putU64(payload, image.sliders.size());
    for (const auto &[metric, value] : image.sliders) {
        putU32(payload, metric.value());
        putF64(payload, value);
    }

    putU64(payload, image.memBudgetBytes);
    putU64(payload, image.opDeadlineNanos);

    putU64(payload, image.nodes.size());
    for (const CheckpointNode &n : image.nodes) {
        putU64(payload, n.key);
        putF64(payload, n.px);
        putF64(payload, n.py);
        putF64(payload, n.vx);
        putF64(payload, n.vy);
        putU8(payload, n.pinned ? 1 : 0);
    }

    std::string out;
    out.reserve(kCheckpointMagic.size() + 16 + payload.size());
    out.append(kCheckpointMagic);
    putU64(out, payload.size());
    out.append(payload);
    putU64(out, fnv1a(payload.data(), payload.size()));
    return out;
}

support::Expected<CheckpointImage>
parseCheckpoint(const std::string &bytes, const trace::ParseBudget &budget)
{
    const std::size_t header = kCheckpointMagic.size() + 8;
    if (bytes.size() < header)
        return VIVA_ERROR(support::Errc::Parse,
                          "checkpoint too short for its header: ",
                          bytes.size(), " byte(s)");
    if (bytes.compare(0, kCheckpointMagic.size(), kCheckpointMagic) != 0)
        return VIVA_ERROR(support::Errc::Parse,
                          "bad checkpoint magic (want 'viva-ckpt-1'): "
                          "wrong file type or unsupported version");

    Reader r{bytes.data(), bytes.size(), kCheckpointMagic.size()};
    std::uint64_t payload_len = r.u64();
    if (payload_len > kMaxCheckpointPayload)
        return VIVA_ERROR(support::Errc::Budget, "checkpoint payload of ",
                          payload_len, " byte(s) exceeds the ",
                          kMaxCheckpointPayload, "-byte ceiling");
    if (bytes.size() != header + payload_len + 8)
        return VIVA_ERROR(support::Errc::Parse,
                          "checkpoint length mismatch: header says ",
                          payload_len, " payload byte(s), file has ",
                          bytes.size() - header >= 8
                              ? bytes.size() - header - 8
                              : 0,
                          " (truncated or trailing bytes)");

    std::uint64_t want = fnv1a(bytes.data() + header, payload_len);
    Reader footer{bytes.data(), bytes.size(), header + payload_len};
    std::uint64_t got = footer.u64();
    if (want != got)
        return VIVA_ERROR(support::Errc::Parse,
                          "checkpoint checksum mismatch: payload hashes "
                          "to ", want, ", footer says ", got,
                          " (corrupt or torn file)");

    // Bounded payload walk: the cursor covers exactly the payload.
    r = Reader{bytes.data() + header, std::size_t(payload_len), 0};
    CheckpointImage image;

    if (auto ok = r.need(8, "trace length"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    std::uint64_t trace_len = r.u64();
    if (auto ok = r.need(trace_len, "trace text"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    image.traceText.assign(r.data + r.pos, trace_len);
    r.pos += trace_len;

    if (auto ok = r.need(8, "cut flag count"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    std::uint64_t flag_count = r.u64();
    if (flag_count > budget.maxContainers)
        return VIVA_ERROR(support::Errc::Budget, "checkpoint cut of ",
                          flag_count, " container(s) exceeds the budget "
                          "of ", budget.maxContainers);
    if (auto ok = r.need(flag_count, "cut flags"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    image.cutFlags.reserve(flag_count);
    for (std::uint64_t i = 0; i < flag_count; ++i)
        image.cutFlags.push_back(r.u8());

    if (auto ok = r.need(8 * 2 + 8 * 7 + 1 + 8 + 8 + 8, "settings"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    image.sliceBegin = r.f64();
    image.sliceEnd = r.f64();
    image.force.charge = r.f64();
    image.force.spring = r.f64();
    image.force.restLength = r.f64();
    image.force.damping = r.f64();
    image.force.timestep = r.f64();
    image.force.maxDisplacement = r.f64();
    image.force.theta = r.f64();
    image.force.useBarnesHut = r.u8() != 0;
    image.threads = r.u64();
    image.maxPixel = r.f64();

    std::uint64_t slider_count = r.u64();
    if (slider_count > budget.maxMetrics)
        return VIVA_ERROR(support::Errc::Budget, "checkpoint with ",
                          slider_count, " slider(s) exceeds the metric "
                          "budget of ", budget.maxMetrics);
    if (auto ok = r.need(slider_count * 12, "sliders"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    image.sliders.reserve(slider_count);
    for (std::uint64_t i = 0; i < slider_count; ++i) {
        std::uint32_t metric = r.u32();
        double value = r.f64();
        if (metric > 0xFFFFu)
            return VIVA_ERROR(support::Errc::Parse,
                              "checkpoint slider metric id ", metric,
                              " is out of the 16-bit id space");
        image.sliders.emplace_back(
            trace::MetricId{std::uint16_t(metric)}, value);
    }

    if (auto ok = r.need(8 + 8 + 8, "budgets and node count"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    image.memBudgetBytes = r.u64();
    image.opDeadlineNanos = r.u64();

    std::uint64_t node_count = r.u64();
    if (node_count > budget.maxContainers)
        return VIVA_ERROR(support::Errc::Budget, "checkpoint with ",
                          node_count, " layout node(s) exceeds the "
                          "container budget of ", budget.maxContainers);
    if (auto ok = r.need(node_count * 41, "layout nodes"); !ok)
        return VIVA_ERROR_CONTEXT(ok.error(), "checkpoint payload");
    image.nodes.reserve(node_count);
    for (std::uint64_t i = 0; i < node_count; ++i) {
        CheckpointNode n;
        n.key = r.u64();
        n.px = r.f64();
        n.py = r.f64();
        n.vx = r.f64();
        n.vy = r.f64();
        n.pinned = r.u8() != 0;
        image.nodes.push_back(n);
    }

    if (r.remaining() != 0)
        return VIVA_ERROR(support::Errc::Parse, "checkpoint payload has ",
                          r.remaining(), " trailing byte(s) past the "
                          "last section");
    return image;
}

support::Expected<void>
writeCheckpointFile(const CheckpointImage &image, const std::string &path,
                    std::size_t chunk_bytes)
{
    std::string bytes = serializeCheckpoint(image);
    std::string temp = path + ".tmp";

    {
        std::ofstream out(temp,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            return VIVA_ERROR(support::Errc::Io, "cannot open '", temp,
                              "' for writing");
        }
        std::size_t chunk = chunk_bytes ? chunk_bytes : bytes.size();
        for (std::size_t off = 0; off < bytes.size(); off += chunk) {
            std::size_t n = std::min(chunk, bytes.size() - off);
            out.write(bytes.data() + off, std::streamsize(n));
            out.flush();
            if (!out || support::faultAt("ckpt.write.stream")) {
                out.close();
                std::remove(temp.c_str());
                return VIVA_ERROR(support::Errc::Io,
                                  "write failed for '", temp,
                                  "' at byte ", off, " of ",
                                  bytes.size());
            }
        }
        out.flush();
        out.close();
        if (!out) {
            std::remove(temp.c_str());
            return VIVA_ERROR(support::Errc::Io, "flush failed for '",
                              temp, "'");
        }
    }

    // The only rename in the codebase (viva-analyze raw-rename enforces
    // this): old-or-new atomicity lives entirely behind this call.
    support::Expected<void> swapped = support::atomicReplace(temp, path);
    if (!swapped) {
        std::remove(temp.c_str());
        return VIVA_ERROR_CONTEXT(swapped.error(),
                                  "checkpoint commit of '", path, "'");
    }
    return {};
}

support::Expected<CheckpointImage>
readCheckpointFile(const std::string &path,
                   const trace::ParseBudget &budget)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return VIVA_ERROR(support::Errc::Io, "cannot open '", path,
                          "' for reading");

    // Header first: the payload length is validated before any
    // payload-sized allocation happens.
    const std::size_t header = kCheckpointMagic.size() + 8;
    std::string head(header, '\0');
    in.read(head.data(), std::streamsize(header));
    if (in.gcount() != std::streamsize(header) ||
        support::faultAt("ckpt.read.stream"))
        return VIVA_ERROR(support::Errc::Io, "read failed for '", path,
                          "': short header");
    if (head.compare(0, kCheckpointMagic.size(), kCheckpointMagic) != 0)
        return VIVA_ERROR(support::Errc::Parse, "'", path,
                          "': bad checkpoint magic (want 'viva-ckpt-1')");
    Reader r{head.data(), head.size(), kCheckpointMagic.size()};
    std::uint64_t payload_len = r.u64();
    if (payload_len > kMaxCheckpointPayload)
        return VIVA_ERROR(support::Errc::Budget, "'", path,
                          "': payload of ", payload_len,
                          " byte(s) exceeds the ", kMaxCheckpointPayload,
                          "-byte ceiling");

    std::string rest(std::size_t(payload_len) + 8, '\0');
    in.read(rest.data(), std::streamsize(rest.size()));
    if (in.gcount() != std::streamsize(rest.size()) ||
        support::faultAt("ckpt.read.stream"))
        return VIVA_ERROR(support::Errc::Io, "read failed for '", path,
                          "': wanted ", rest.size(),
                          " byte(s) past the header, got ", in.gcount());
    // A longer file than the header promises is as corrupt as a short
    // one; peek for one extra byte.
    if (in.peek() != std::char_traits<char>::eof())
        return VIVA_ERROR(support::Errc::Parse, "'", path,
                          "': trailing bytes past the checksum");

    support::Expected<CheckpointImage> image =
        parseCheckpoint(head + rest, budget);
    if (!image)
        return VIVA_ERROR_CONTEXT(image.error(), "checkpoint '", path,
                                  "'");
    return image;
}

} // namespace viva::app
