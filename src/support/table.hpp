// ASCII table printer used by the benchmark harnesses to emit the rows
// the paper's tables and figures report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace sympack::support {

class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience formatting helpers.
  static std::string fmt(double value, int precision = 3);
  static std::string fmt_int(std::int64_t value);
  static std::string fmt_bytes(std::uint64_t bytes);

  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sympack::support
