#include "obs/telemetry.hh"

#include "common/file.hh"

namespace xed::obs
{

TelemetryRecords
readTelemetryRecords(const std::string &path)
{
    TelemetryRecords out;
    const auto file = readFile(path);
    if (!file) {
        out.error = "cannot open " + path;
        return out;
    }
    const std::string &bytes = *file;

    std::size_t start = 0;
    while (start < bytes.size()) {
        std::size_t newline = bytes.find('\n', start);
        // A file not ending in '\n' was torn mid-append: the final
        // partial line is damage by definition, but try to parse it
        // anyway -- only the trailing newline may be what is missing,
        // in which case the record itself is complete.
        const bool torn = newline == std::string::npos;
        if (torn)
            newline = bytes.size();
        const std::string_view line(bytes.data() + start,
                                    newline - start);
        start = newline + (torn ? 0 : 1);
        if (torn)
            start = bytes.size();
        if (line.empty())
            continue;
        auto record = json::parse(line, nullptr);
        if (!record || !record->isObject()) {
            ++out.skippedLines;
            continue;
        }
        out.records.push_back(std::move(*record));
    }
    out.ok = true;
    return out;
}

bool
recordIsType(const json::Value &record, std::string_view type)
{
    const json::Value *field = record.find("type");
    return field && field->isString() && field->asString() == type;
}

const json::Value *
lastRecordOfType(const TelemetryRecords &telemetry,
                 std::string_view type)
{
    for (auto it = telemetry.records.rbegin();
         it != telemetry.records.rend(); ++it) {
        if (recordIsType(*it, type))
            return &*it;
    }
    return nullptr;
}

json::Value
histogramJson(const Histogram &histogram)
{
    auto buckets = json::Value::array();
    for (unsigned i = 0; i < Histogram::bucketCount; ++i) {
        const std::uint64_t count = histogram.bucket(i);
        if (!count)
            continue;
        auto pair = json::Value::array();
        pair.push(i);
        pair.push(count);
        buckets.push(std::move(pair));
    }
    return buckets;
}

bool
histogramFromJson(const json::Value &payload, Histogram &histogram)
{
    if (!payload.isArray())
        return false;
    for (const json::Value &pair : payload.items()) {
        if (!pair.isArray() || pair.size() != 2 ||
            !pair.at(0).isIntegral() || !pair.at(1).isIntegral() ||
            pair.at(0).asDouble() < 0 || pair.at(1).asDouble() < 0)
            return false;
        const std::uint64_t index = pair.at(0).asUint();
        if (index >= Histogram::bucketCount)
            return false;
        // addCount: replay the bucket directly -- update() would
        // re-derive the index from a representative value and any
        // rounding there would break the exact-merge guarantee.
        histogram.addCount(static_cast<unsigned>(index),
                           pair.at(1).asUint());
    }
    return true;
}

} // namespace xed::obs
