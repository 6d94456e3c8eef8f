#include "report/csv.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace sva {

std::string series_to_csv(const std::vector<Series>& series) {
  std::string out = "series,x,y\n";
  for (const auto& s : series) {
    SVA_REQUIRE(s.x.size() == s.y.size());
    for (std::size_t i = 0; i < s.x.size(); ++i)
      out += s.name + ',' + fmt(s.x[i], 6) + ',' + fmt(s.y[i], 6) + '\n';
  }
  return out;
}

void append_csv_cell(std::string& out, std::string_view cell) {
  if (cell.find_first_of(",\"\n") == std::string_view::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string rows_to_csv(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out += ',';
    append_csv_cell(out, header[i]);
  }
  out += '\n';
  for (const auto& row : rows) {
    SVA_REQUIRE_MSG(row.size() == header.size(),
                    "CSV row width must match the header");
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      append_csv_cell(out, row[i]);
    }
    out += '\n';
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw Error("cannot open file for writing: " + path);
  os << text;
  if (!os) throw Error("write failed: " + path);
}

}  // namespace sva
