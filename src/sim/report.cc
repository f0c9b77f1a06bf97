#include "sim/report.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace noc
{

namespace
{

/** Write @p doc (a table or document) to @p out in @p format. */
template <typename Doc>
void
writeRendering(const Doc &doc, std::FILE *out, const std::string &format,
               const char *what)
{
    std::string text;
    if (format == "text")
        text = doc.toText();
    else if (format == "csv")
        text = doc.toCsv();
    else if (format == "json")
        text = doc.toJson() + "\n";
    else
        fatal("%s: unknown format '%s'", what, format.c_str());
    std::fputs(text.c_str(), out);
}

} // namespace

ReportTable::ReportTable(std::string title,
                         std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns))
{
    if (columns_.empty())
        fatal("ReportTable '%s' needs at least one column",
              title_.c_str());
}

void
ReportTable::addRow(std::vector<ReportCell> row)
{
    if (row.size() != columns_.size())
        fatal("ReportTable '%s': row has %zu cells, expected %zu",
              title_.c_str(), row.size(), columns_.size());
    rows_.push_back(std::move(row));
}

const ReportCell &
ReportTable::at(std::size_t row, std::size_t col) const
{
    return rows_.at(row).at(col);
}

std::string
ReportTable::cellText(const ReportCell &cell)
{
    if (const auto *s = std::get_if<std::string>(&cell))
        return *s;
    if (const auto *i = std::get_if<std::int64_t>(&cell))
        return csprintf("%lld", static_cast<long long>(*i));
    return csprintf("%.6g", std::get<double>(cell));
}

std::string
ReportTable::toText() const
{
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        width[c] = columns_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], cellText(row[c]).size());

    std::ostringstream out;
    out << title_ << "\n";
    auto rule = [&] {
        for (std::size_t c = 0; c < columns_.size(); ++c)
            out << std::string(width[c] + 2, '-');
        out << "\n";
    };
    rule();
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        out << columns_[c]
            << std::string(width[c] - columns_[c].size() + 2, ' ');
    }
    out << "\n";
    rule();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            const std::string t = cellText(row[c]);
            out << t << std::string(width[c] - t.size() + 2, ' ');
        }
        out << "\n";
    }
    rule();
    return out.str();
}

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

std::string
ReportTable::toCsv() const
{
    std::ostringstream out;
    for (std::size_t c = 0; c < columns_.size(); ++c)
        out << (c ? "," : "") << csvEscape(columns_[c]);
    out << "\n";
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out << (c ? "," : "") << csvEscape(cellText(row[c]));
        out << "\n";
    }
    return out.str();
}

void
ReportTable::toJson(JsonWriter &w) const
{
    w.beginObject().field("title", title_).key("columns").beginArray();
    for (const std::string &c : columns_)
        w.value(c);
    w.endArray().key("rows").beginArray();
    for (const auto &row : rows_) {
        w.beginArray();
        for (const ReportCell &cell : row)
            std::visit([&w](const auto &v) { w.value(v); }, cell);
        w.endArray();
    }
    w.endArray().endObject();
}

std::string
ReportTable::toJson() const
{
    std::string out;
    JsonWriter w(out, JsonWriter::Layout::Compact, kJsonDigits);
    toJson(w);
    return out;
}

void
ReportTable::write(std::FILE *out, const std::string &format) const
{
    writeRendering(*this, out, format, "ReportTable");
}

std::string
ReportDocument::toText() const
{
    std::string out = title_ + "\n\n";
    for (const ReportTable &t : tables_) {
        out += t.toText();
        out += "\n";
    }
    return out;
}

std::string
ReportDocument::toCsv() const
{
    std::string out;
    for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (i)
            out += "\n";
        out += "# " + tables_[i].title() + "\n";
        out += tables_[i].toCsv();
    }
    return out;
}

std::string
ReportDocument::toJson() const
{
    std::string out;
    JsonWriter w(out, JsonWriter::Layout::Compact,
                 ReportTable::kJsonDigits);
    w.beginObject().field("title", title_).key("tables").beginArray();
    for (const ReportTable &t : tables_)
        t.toJson(w);
    w.endArray().endObject();
    return out;
}

void
ReportDocument::write(std::FILE *out, const std::string &format) const
{
    writeRendering(*this, out, format, "ReportDocument");
}

} // namespace noc
