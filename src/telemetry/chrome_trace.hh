/**
 * @file
 * Shared Chrome trace-event JSON writer.
 *
 * Both the telemetry collector (packet lifecycle spans) and the trace
 * subsystem (stage/blame spans, src/trace) emit trace-event objects
 * that must land in ONE file loadable by Perfetto / about:tracing.
 * This class owns the buffering (with the bounded-capacity drop
 * accounting) and `chromeTraceJson()` merges any number of writers
 * into a single document. The events live in one contiguous string,
 * ",\n"-separated; callers write each one in place through a
 * JsonWriter (sim/json.hh), and an event over the cap is counted and
 * never formatted.
 */

#ifndef NOC_TELEMETRY_CHROME_TRACE_HH
#define NOC_TELEMETRY_CHROME_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json.hh"

namespace noc
{

class ChromeTraceWriter
{
  public:
    /** @param max_events hard cap on buffered events (0 = unbounded);
     *  overflowing events are counted in dropped(), not stored. */
    explicit ChromeTraceWriter(std::size_t max_events = 0)
        : maxEvents_(max_events)
    {
    }

    /** Append one event, subject to the cap: @p fill writes the
     *  members of the event object through the JsonWriter it gets. */
    template <typename Fill>
    void
    add(Fill &&fill)
    {
        if (maxEvents_ && size_ >= maxEvents_)
            ++dropped_;
        else
            append(fill);
    }

    /** Metadata ("M" phase) naming process @p pid @p process and its
     *  tracks 0..num_nodes-1 "node <tid>". Exempt from the cap, so a
     *  tiny cap cannot strip the track names the viewer needs. */
    void nameTracks(std::uint32_t pid, std::string_view process,
                    std::size_t num_nodes);

    /** Events buffered (metadata included). */
    std::size_t size() const { return size_; }
    std::uint64_t dropped() const { return dropped_; }
    /** The buffered events, ",\n"-separated. */
    const std::string &events() const { return events_; }

  private:
    template <typename Fill>
    void
    append(Fill &&fill)
    {
        if (!events_.empty())
            events_ += ",\n";
        JsonWriter w(events_);
        w.beginObject();
        fill(w);
        w.endObject();
        ++size_;
    }

    std::string events_;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::size_t maxEvents_;
};

/**
 * Wrap the events of all @p writers (concatenated in argument order)
 * into one trace-event document:
 * `{"traceEvents":[...],"displayTimeUnit":"ms","otherData":
 * {"dropped_events":N,"mesh":"WxH"}}` with N summed over the writers.
 */
std::string chromeTraceJson(
    const std::vector<const ChromeTraceWriter *> &writers,
    std::uint32_t mesh_width, std::uint32_t mesh_height);

/** Single-writer convenience overload. */
std::string chromeTraceJson(const ChromeTraceWriter &writer,
                            std::uint32_t mesh_width,
                            std::uint32_t mesh_height);

} // namespace noc

#endif // NOC_TELEMETRY_CHROME_TRACE_HH
