#include "telemetry/chrome_trace.hh"

namespace noc
{

void
ChromeTraceWriter::nameTracks(std::uint32_t pid, std::string_view process,
                              std::size_t num_nodes)
{
    append([&](JsonWriter &w) {
        w.field("name", "process_name").field("ph", "M").field("pid", pid);
        w.key("args").beginObject().field("name", process).endObject();
    });
    for (std::size_t n = 0; n < num_nodes; ++n) {
        append([&](JsonWriter &w) {
            w.field("name", "thread_name").field("ph", "M");
            w.field("pid", pid).field("tid", n).key("args").beginObject();
            w.field("name", "node " + std::to_string(n)).endObject();
        });
    }
}

std::string
chromeTraceJson(const std::vector<const ChromeTraceWriter *> &writers,
                std::uint32_t mesh_width, std::uint32_t mesh_height)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray();
    std::uint64_t dropped = 0;
    for (const ChromeTraceWriter *cw : writers) {
        if (!cw)
            continue;
        dropped += cw->dropped();
        // The break keeps the ",\n" event separator between buffers.
        if (cw->size())
            w.rawValue(cw->events()).lineBreak();
    }
    w.endArray().field("displayTimeUnit", "ms").key("otherData");
    w.beginObject().field("dropped_events", dropped);
    w.field("mesh", std::to_string(mesh_width) + "x" +
                        std::to_string(mesh_height));
    w.endObject().endObject();
    out += '\n';
    return out;
}

std::string
chromeTraceJson(const ChromeTraceWriter &writer, std::uint32_t mesh_width,
                std::uint32_t mesh_height)
{
    return chromeTraceJson({&writer}, mesh_width, mesh_height);
}

} // namespace noc
