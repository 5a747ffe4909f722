// Copyright 2026 The siot-trust Authors.
// Terminal table rendering for the benchmark reproduction harness.
// Every bench binary prints the paper's table/figure as an aligned text
// table.

#ifndef SIOT_COMMON_TABLE_H_
#define SIOT_COMMON_TABLE_H_

#include <string>
#include <utility>
#include <vector>

namespace siot {

/// Column-aligned text table with an optional title, in the spirit of the
/// tables printed by database EXPLAIN output.
class TextTable {
 public:
  explicit TextTable(std::string title = "") : title_(std::move(title)) {}

  /// Sets the header row. Must be called before AddRow.
  void SetHeader(std::vector<std::string> header);

  /// Appends a data row; must match the header width.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with `decimals` digits.
  void AddRow(const std::string& label, const std::vector<double>& values,
              int decimals = 4);

  std::size_t row_count() const { return rows_.size(); }

  /// Renders the aligned table (numbers right-aligned, text left-aligned).
  std::string Render() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders an ASCII line chart of one or more named series sharing an
/// x-axis, used to echo the paper's figures into the terminal.
///
/// Each series is drawn with its own glyph; the legend maps glyphs to names.
std::string RenderAsciiChart(
    const std::vector<double>& xs,
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    std::size_t width = 72, std::size_t height = 20);

}  // namespace siot

#endif  // SIOT_COMMON_TABLE_H_
