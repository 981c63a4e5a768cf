#include "tsdata/io.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "common/error.hpp"

namespace mpsim {
namespace {

// Splits on ',' keeping empty cells — including a trailing one, which
// istringstream+getline silently drops ("1,2," must be three cells so the
// width check can reject it instead of mis-parsing the row).
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = line.find(',', begin);
    if (end == std::string::npos) {
      cells.push_back(line.substr(begin));
      break;
    }
    cells.push_back(line.substr(begin, end - begin));
    begin = end + 1;
  }
  return cells;
}

// A cell is numeric only if strtod consumes all of it but trailing
// whitespace: "0.786264x" is not a number and "1st" is a header cell.
std::optional<double> parse_cell(const std::string& cell) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (*end != '\0') return std::nullopt;
  return value;
}

}  // namespace

void write_csv(const std::string& path, const TimeSeries& series,
               bool header) {
  std::ofstream out(path);
  MPSIM_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out.precision(17);
  if (header) {
    for (std::size_t k = 0; k < series.dims(); ++k) {
      out << (k == 0 ? "" : ",") << "dim" << k;
    }
    out << '\n';
  }
  for (std::size_t t = 0; t < series.length(); ++t) {
    for (std::size_t k = 0; k < series.dims(); ++k) {
      out << (k == 0 ? "" : ",") << series.at(t, k);
    }
    out << '\n';
  }
  MPSIM_CHECK(out.good(), "write to '" << path << "' failed");
}

TimeSeries read_csv(const std::string& path) {
  std::ifstream in(path);
  MPSIM_CHECK(in.good(), "cannot open '" << path << "' for reading");

  std::vector<std::vector<double>> rows;
  std::string line;
  bool first = true;
  std::size_t dims = 0;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // getline splits on '\n' only; strip the '\r' of CRLF files so blank
    // lines are recognised and the last cell does not carry a stray '\r'.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    if (first) {
      first = false;
      dims = cells.size();
      if (!parse_cell(cells[0])) continue;  // header
    }
    MPSIM_CHECK(cells.size() == dims,
                path << ":" << line_no << ": row with " << cells.size()
                     << " cells in a " << dims << "-column file: '" << line
                     << "'");
    std::vector<double> row;
    row.reserve(dims);
    for (const auto& cell : cells) {
      const auto v = parse_cell(cell);
      MPSIM_CHECK(v, path << ":" << line_no << ": non-numeric cell '" << cell
                          << "'");
      row.push_back(*v);
    }
    rows.push_back(std::move(row));
  }
  MPSIM_CHECK(!rows.empty(), "'" << path << "' contains no data rows");

  TimeSeries series(rows.size(), dims);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (std::size_t k = 0; k < dims; ++k) series.at(t, k) = rows[t][k];
  }
  return series;
}

}  // namespace mpsim
