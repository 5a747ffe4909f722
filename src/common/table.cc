// Copyright 2026 The siot-trust Authors.

#include "common/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/macros.h"
#include "common/string_util.h"

namespace siot {

namespace {

bool LooksNumeric(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  // Allow trailing '%' so percentage cells right-align too.
  return end == s.c_str() + s.size() ||
         (end == s.c_str() + s.size() - 1 && s.back() == '%');
}

}  // namespace

void TextTable::SetHeader(std::vector<std::string> header) {
  SIOT_CHECK_MSG(rows_.empty(), "SetHeader after AddRow");
  header_ = std::move(header);
}

void TextTable::AddRow(std::vector<std::string> row) {
  SIOT_CHECK_MSG(header_.empty() || row.size() == header_.size(),
                 "row width %zu != header width %zu", row.size(),
                 header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::AddRow(const std::string& label,
                       const std::vector<double>& values, int decimals) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(FormatDouble(v, decimals));
  AddRow(std::move(row));
}

std::string TextTable::Render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto widen = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::string out;
  if (!title_.empty()) {
    out += title_;
    out += '\n';
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      const bool right = LooksNumeric(cell);
      const std::size_t pad = widths[i] - cell.size();
      if (i != 0) out += "  ";
      if (right) out.append(pad, ' ');
      out += cell;
      if (!right) out.append(pad, ' ');
    }
    // Trim trailing spaces.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };
  if (!header_.empty()) {
    emit_row(header_);
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 2;
    out.append(total >= 2 ? total - 2 : total, '-');
    out += '\n';
  }
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string RenderAsciiChart(
    const std::vector<double>& xs,
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    std::size_t width, std::size_t height) {
  static const char kGlyphs[] = "*o+x#@%&";
  if (xs.empty() || series.empty()) return "(empty chart)\n";
  double ymin = INFINITY, ymax = -INFINITY;
  for (const auto& [name, ys] : series) {
    SIOT_CHECK_MSG(ys.size() == xs.size(),
                   "series '%s' length %zu != x length %zu", name.c_str(),
                   ys.size(), xs.size());
    for (double y : ys) {
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
  }
  if (ymax == ymin) ymax = ymin + 1.0;
  const double xmin = xs.front();
  const double xmax = xs.back() == xs.front() ? xs.front() + 1.0 : xs.back();

  std::vector<std::string> grid(height, std::string(width, ' '));
  for (std::size_t s = 0; s < series.size(); ++s) {
    const char glyph = kGlyphs[s % (sizeof(kGlyphs) - 1)];
    const auto& ys = series[s].second;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double fx = (xs[i] - xmin) / (xmax - xmin);
      const double fy = (ys[i] - ymin) / (ymax - ymin);
      auto col = static_cast<std::size_t>(fx * static_cast<double>(width - 1) + 0.5);
      auto row = static_cast<std::size_t>(fy * static_cast<double>(height - 1) + 0.5);
      grid[height - 1 - row][col] = glyph;
    }
  }

  std::string out;
  out += StrFormat("%10.4f +", ymax);
  out += '\n';
  for (std::size_t r = 0; r < height; ++r) {
    out += "           |";
    out += grid[r];
    out += '\n';
  }
  out += StrFormat("%10.4f +", ymin);
  out.append(width, '-');
  out += '\n';
  out += StrFormat("            x: [%g, %g]   ", xmin, xmax);
  for (std::size_t s = 0; s < series.size(); ++s) {
    out += StrFormat("%c=%s  ", kGlyphs[s % (sizeof(kGlyphs) - 1)],
                     series[s].first.c_str());
  }
  out += '\n';
  return out;
}

}  // namespace siot
