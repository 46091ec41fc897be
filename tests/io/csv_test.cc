#include "wot/io/csv.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

namespace wot {
namespace {

TEST(CsvParseTest, SimpleRows) {
  auto rows = ParseCsv("a,b\nc,d\n").ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  auto rows = ParseCsv("a,b\nc,d").ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(CsvParseTest, EmptyInputHasNoRows) {
  EXPECT_TRUE(ParseCsv("").ValueOrDie().empty());
}

TEST(CsvParseTest, EmptyFields) {
  auto rows = ParseCsv("a,,c\n,,\n").ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"", "", ""}));
}

TEST(CsvParseTest, QuotedFieldWithComma) {
  auto rows = ParseCsv("\"a,b\",c\n").ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"a,b", "c"}));
}

TEST(CsvParseTest, EscapedQuotes) {
  auto rows = ParseCsv("\"say \"\"hi\"\"\"\n").ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(CsvParseTest, EmbeddedNewlineInQuotes) {
  auto rows = ParseCsv("\"line1\nline2\",x\n").ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
  EXPECT_EQ(rows[0][1], "x");
}

TEST(CsvParseTest, CrlfLineEndings) {
  auto rows = ParseCsv("a,b\r\nc,d\r\n").ValueOrDie();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
}

TEST(CsvParseTest, UnterminatedQuoteIsCorruption) {
  Result<std::vector<CsvRow>> r = ParseCsv("\"oops\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(CsvParseTest, QuoteInsideUnquotedFieldIsCorruption) {
  EXPECT_FALSE(ParseCsv("ab\"c,d\n").ok());
}

TEST(CsvEscapeTest, OnlyQuotesWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvEscape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvEscape("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvRoundTripTest, ArbitraryContentSurvives) {
  std::vector<CsvRow> original = {
      {"simple", "with,comma", "with\"quote"},
      {"", "multi\nline", "trailing space "},
      {"unicode: héllo", "=formula", "0.25"},
  };
  auto parsed = ParseCsv(WriteCsv(original)).ValueOrDie();
  EXPECT_EQ(parsed, original);
}

TEST(CsvFileTest, WriteAndReadBack) {
  std::string path =
      (std::filesystem::temp_directory_path() / "wot_csv_test.csv").string();
  std::vector<CsvRow> rows = {{"h1", "h2"}, {"v1", "v2"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto back = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(back, rows);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  Result<std::vector<CsvRow>> r = ReadCsvFile("/nonexistent/dir/f.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(FileStringTest, RoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "wot_str_test.bin").string();
  std::string payload = "binary\0data", full(payload.data(), 11);
  ASSERT_TRUE(WriteStringToFile(path, full).ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), full);
  std::remove(path.c_str());
}

TEST(FileStringTest, EmptyFile) {
  std::string path =
      (std::filesystem::temp_directory_path() / "wot_str_empty.bin").string();
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.ValueOrDie().empty());
  std::remove(path.c_str());
}

TEST(FileStringTest, FileLargerThanOneReadChunk) {
  std::string path =
      (std::filesystem::temp_directory_path() / "wot_str_large.bin").string();
  // 64 KiB is the read chunk; cover several chunks plus a partial one.
  std::string full;
  for (size_t i = 0; i < 5 * 65536 + 123; ++i) {
    full.push_back(static_cast<char>((i * 131) % 251));
  }
  ASSERT_TRUE(WriteStringToFile(path, full).ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), full);
  std::remove(path.c_str());
}

TEST(FileStringTest, MissingFileIsIOError) {
  Result<std::string> read = ReadFileToString("/nonexistent/dir/f.bin");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace wot
