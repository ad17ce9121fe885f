#pragma once

#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace ssresf::util {

/// Opens `path` for writing, hands the stream to `write_rows`, and closes
/// it. Throws Error naming the path when the open, any write, or the final
/// flush fails — a full disk must not end in a truncated CSV behind a
/// successful exit. The report CSVs (records, sensitivity, predictions)
/// all write through this.
void write_csv_file(const std::string& path,
                    const std::function<void(std::FILE*)>& write_rows);

/// Minimal CSV writer used by benches to dump series (e.g. ROC points,
/// Fig. 5 sweeps) alongside the human-readable tables.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void header(const std::vector<std::string>& columns) { row(columns); }

  void row(const std::vector<std::string>& fields);

  /// Convenience: format doubles with enough digits to round-trip.
  static std::string num(double v);

 private:
  static std::string escape(const std::string& field);
  std::ostream& out_;
};

}  // namespace ssresf::util
