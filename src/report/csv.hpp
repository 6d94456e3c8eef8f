#pragma once
// CSV emission for plot series, so bench outputs can be re-plotted with
// external tooling.

#include <string>
#include <string_view>
#include <vector>

#include "report/ascii_plot.hpp"

namespace sva {

/// Render series as CSV.  Series may have different x grids; output format
/// is long-form: series,x,y -- one row per point.
std::string series_to_csv(const std::vector<Series>& series);

/// Render pre-formatted rows as CSV under a header.  Every row must have
/// exactly header.size() cells; cells containing commas, quotes, or
/// newlines are quoted (RFC 4180 style).
std::string rows_to_csv(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

/// Append one CSV cell to `out`, quoted under the same rule rows_to_csv
/// applies.  For writers that stream rows into one reserved string.
void append_csv_cell(std::string& out, std::string_view cell);

/// Write text to a file, creating/truncating it.  Throws sva::Error on
/// failure.  Benches use this to drop CSV artifacts next to stdout tables.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace sva
