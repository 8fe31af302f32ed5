#include "experiment/table.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace meshroute::experiment {
namespace {

std::string format_cell(double v) {
  std::ostringstream os;
  if (std::abs(v - std::round(v)) < 1e-9 && std::abs(v) < 1e9) {
    os << static_cast<long long>(std::llround(v));
  } else {
    os << std::fixed << std::setprecision(4) << v;
  }
  return os.str();
}

}  // namespace

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Table: no columns");
}

void Table::add_row(const std::vector<double>& values) {
  if (values.size() != columns_.size()) {
    throw std::invalid_argument("Table::add_row: column count mismatch");
  }
  rows_.push_back(values);
}

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> cells(rows_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    cells[r].resize(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      cells[r][c] = format_cell(rows_[r][c]);
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  os << title << "\n";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c])) << columns_[c];
  }
  os << "\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c])) << cells[r][c];
    }
    os << "\n";
  }
}

void Table::print_csv(std::ostream& os, const std::string& tag) const {
  os << "tag";
  for (const auto& c : columns_) os << "," << c;
  os << "\n";
  for (const auto& row : rows_) {
    os << tag;
    for (const double v : row) os << "," << format_cell(v);
    os << "\n";
  }
}

void Table::append_json_points(std::string& out) const {
  out += '[';
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r != 0) out += ',';
    out += '{';
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c != 0) out += ',';
      json::write_string(out, columns_[c]);
      out += ':';
      json::write_number(out, rows_[r][c]);
    }
    out += '}';
  }
  out += ']';
}

void Table::print_json(std::ostream& os, const std::string& tag) const {
  std::string out;
  out += "{\"tag\":";
  json::write_string(out, tag);
  out += ",\"columns\":[";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) out += ',';
    json::write_string(out, columns_[c]);
  }
  out += "],\"points\":";
  append_json_points(out);
  out += "}";
  os << out << "\n";
}

}  // namespace meshroute::experiment
