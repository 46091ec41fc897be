// RFC-4180-style CSV reading and writing: quoted fields, embedded commas,
// escaped quotes ("") and embedded newlines are supported. CRLF and LF line
// endings are both accepted on input; output uses LF.
#ifndef WOT_IO_CSV_H_
#define WOT_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "wot/util/result.h"

namespace wot {

/// \brief One parsed CSV record (row of fields).
using CsvRow = std::vector<std::string>;

/// \brief Parses an entire CSV document from memory.
/// A trailing newline does not produce an empty final row; completely empty
/// input yields zero rows.
Result<std::vector<CsvRow>> ParseCsv(std::string_view text);

/// \brief Reads and parses a CSV file.
Result<std::vector<CsvRow>> ReadCsvFile(const std::string& path);

/// \brief Escapes one field per RFC 4180 (quotes only when needed).
std::string CsvEscape(std::string_view field);

/// \brief Serializes rows to CSV text (LF line endings).
std::string WriteCsv(const std::vector<CsvRow>& rows);

/// \brief Writes rows to a file, creating or truncating it.
Status WriteCsvFile(const std::string& path, const std::vector<CsvRow>& rows);

/// \brief Reads a whole file into a string (EINTR-safe; reads to EOF, so
/// pipes work too). A regular file is read into a buffer reserved at its
/// size, so it costs its size in memory once.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Writes a string to a file (truncate semantics).
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace wot

#endif  // WOT_IO_CSV_H_
