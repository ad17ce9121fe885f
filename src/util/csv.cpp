#include "util/csv.h"

#include <cerrno>
#include <cstring>

#include "util/error.h"

namespace ssresf::util {

void write_csv_file(const std::string& path,
                    const std::function<void(std::FILE*)>& write_rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Error("cannot open '" + path + "' for writing");
  try {
    write_rows(f);
  } catch (...) {
    std::fclose(f);
    throw;
  }
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    throw Error("cannot write '" + path + "': " + std::strerror(errno));
  }
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace ssresf::util
