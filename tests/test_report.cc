/**
 * @file
 * Unit tests for the report tables (text / CSV / JSON rendering).
 */

#include <gtest/gtest.h>

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
}

TEST(Report, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape("tab\there\r"), "tab\\there\\r");
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
