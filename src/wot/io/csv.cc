#include "wot/io/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

namespace wot {

Result<std::vector<CsvRow>> ParseCsv(std::string_view text) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // row has at least one (possibly empty) field

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::Corruption(
              "CSV: quote inside unquoted field near offset " +
              std::to_string(i));
        }
        in_quotes = true;
        field_started = true;
        ++i;
        break;
      case ',':
        end_field();
        field_started = true;  // a field follows the comma, possibly empty
        ++i;
        break;
      case '\r':
        // Swallow; the following \n (if any) terminates the row.
        ++i;
        break;
      case '\n':
        end_row();
        ++i;
        break;
      default:
        field.push_back(c);
        field_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) {
    return Status::Corruption("CSV: unterminated quoted field");
  }
  if (!field.empty() || !row.empty() || field_started) {
    end_row();
  }
  return rows;
}

Result<std::vector<CsvRow>> ReadCsvFile(const std::string& path) {
  WOT_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  Result<std::vector<CsvRow>> parsed = ParseCsv(content);
  if (!parsed.ok()) {
    return parsed.status().WithContext(path);
  }
  return parsed;
}

std::string CsvEscape(std::string_view field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    return std::string(field);
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string WriteCsv(const std::vector<CsvRow>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) {
        out.push_back(',');
      }
      out += CsvEscape(row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<CsvRow>& rows) {
  return WriteStringToFile(path, WriteCsv(rows));
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for reading: " + std::strerror(errno));
  }
  // Reserving the size up front keeps a regular file at 1x its size in
  // memory; reading on to EOF still serves pipes and growing files.
  std::string contents;
  struct stat st = {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    contents.reserve(static_cast<size_t>(st.st_size));
  }
  char chunk[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IOError("read failure on '" + path +
                             "': " + std::strerror(err));
    }
    if (n == 0) break;
    contents.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

}  // namespace wot
