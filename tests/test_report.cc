/**
 * @file
 * Unit tests for the report tables (text / CSV / JSON rendering) and
 * the JsonWriter they render JSON through.
 */

#include <gtest/gtest.h>

#include "blame_report.hh"
#include "sim/json.hh"
#include "sim/report.hh"

namespace noc
{
namespace
{

ReportTable
sample()
{
    ReportTable t("demo", {"name", "count", "ratio"});
    t.addRow({std::string("alpha"), std::int64_t{3}, 0.5});
    t.addRow({std::string("beta"), std::int64_t{-1}, 1.25});
    return t;
}

TEST(Report, Shape)
{
    const ReportTable t = sample();
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numColumns(), 3u);
    EXPECT_EQ(std::get<std::string>(t.at(0, 0)), "alpha");
    EXPECT_EQ(std::get<std::int64_t>(t.at(1, 1)), -1);
}

TEST(Report, RowArityEnforced)
{
    ReportTable t("x", {"a", "b"});
    EXPECT_EXIT(t.addRow({std::string("only-one")}),
                ::testing::ExitedWithCode(1), "expected 2");
}

TEST(Report, TextContainsAlignedColumns)
{
    const std::string text = sample().toText();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("ratio"), std::string::npos);
    EXPECT_NE(text.find("1.25"), std::string::npos);
}

TEST(Report, CsvRoundTrip)
{
    const std::string csv = sample().toCsv();
    EXPECT_EQ(csv, "name,count,ratio\nalpha,3,0.5\nbeta,-1,1.25\n");
}

TEST(Report, CsvEscaping)
{
    ReportTable t("q", {"v"});
    t.addRow({std::string("a,b")});
    t.addRow({std::string("say \"hi\"")});
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Report, JsonWellFormed)
{
    const std::string json = sample().toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"title\":\"demo\""), std::string::npos);
    EXPECT_NE(json.find("[\"alpha\",3,0.5]"), std::string::npos);
    blame::Json doc;
    std::string error;
    ASSERT_TRUE(blame::parseJson(json, doc, error)) << error;
    EXPECT_EQ(doc.text("title"), "demo");
    const blame::Json *rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items.size(), 2u);
    EXPECT_EQ(rows->items[1].items[1].number, -1.0);
    EXPECT_EQ(rows->items[1].items[2].number, 1.25);
}

/** @p s as the JsonWriter quotes it, without the quotes. */
std::string
escaped(const std::string &s)
{
    std::string out;
    JsonWriter(out).value(s);
    return out.substr(1, out.size() - 2);
}

TEST(Report, JsonEscaping)
{
    EXPECT_EQ(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(escaped(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(escaped("tab\there\r"), "tab\\there\\r");
}

TEST(JsonWriter, NestedContainersPlaceTheirOwnCommas)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("a", 1).key("b").beginArray();
    w.beginObject().endObject().beginArray().endArray();
    w.beginArray().value(-2).value(std::uint64_t{3}).endArray();
    w.value(true).value("s").endArray();
    w.key("c").beginObject().field("d", false).endObject();
    w.field("e", 0.25).endObject();
    EXPECT_EQ(out, "{\"a\":1,\"b\":[{},[],[-2,3],true,\"s\"],"
                   "\"c\":{\"d\":false},\"e\":0.25}");
}

TEST(JsonWriter, LineBreakFollowsTheNextComma)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("a", 1).lineBreak().key("b").beginArray();
    w.lineBreak().value(1).lineBreak().value(2).endArray();
    // A break with no element after it is dropped at the close.
    w.key("c").beginArray().value(3).lineBreak().endArray().endObject();
    EXPECT_EQ(out, "{\"a\":1,\n\"b\":[\n1,\n2],\"c\":[3]}");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("k\"\\\n", std::string("v\t\x01")).endObject();
    EXPECT_EQ(out, "{\"k\\\"\\\\\\n\":\"v\\t\\u0001\"}");
}

TEST(JsonWriter, PrecisionIsPerWriter)
{
    std::string ten, round_trip;
    JsonWriter(ten, JsonWriter::Layout::Compact, 10).value(0.1 + 0.2);
    JsonWriter(round_trip).value(0.1 + 0.2);
    EXPECT_EQ(ten, "0.3");
    EXPECT_EQ(round_trip, "0.30000000000000004");
}

TEST(JsonWriter, IndentedLayoutMatchesTheBenchReports)
{
    // The layout the BENCH_*.json files have always had.
    std::string out;
    JsonWriter w(out, JsonWriter::Layout::Indented, 17);
    w.beginObject().field("bench", "t").field("n", std::uint64_t{3});
    w.field("flag", true).key("inner").beginObject().field("x", 1.5);
    w.field("name", "a\"b").key("deep").beginObject().field("k", 7);
    w.endObject().endObject().field("ratio", 0.1);
    w.key("empty").beginObject().endObject().field("w", 2u).endObject();
    EXPECT_EQ(out, "{\n"
                   "  \"bench\": \"t\",\n"
                   "  \"n\": 3,\n"
                   "  \"flag\": true,\n"
                   "  \"inner\": {\n"
                   "    \"x\": 1.5,\n"
                   "    \"name\": \"a\\\"b\",\n"
                   "    \"deep\": {\n"
                   "      \"k\": 7\n"
                   "    }\n"
                   "  },\n"
                   "  \"ratio\": 0.10000000000000001,\n"
                   "  \"empty\": {\n"
                   "  },\n"
                   "  \"w\": 2\n"
                   "}");
}

TEST(Report, UnknownFormatIsFatal)
{
    const ReportTable t = sample();
    EXPECT_EXIT(t.write(stdout, "xml"), ::testing::ExitedWithCode(1),
                "unknown format");
}

TEST(Report, EmptyColumnsFatal)
{
    EXPECT_EXIT(ReportTable("t", {}), ::testing::ExitedWithCode(1),
                "at least one column");
}

} // namespace
} // namespace noc
