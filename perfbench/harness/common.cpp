#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::vector<std::string> split_ws(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

double to_double(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  const double v = std::stod(value, &used);
  if (used != value.size())
    throw std::runtime_error(flag + " expects a number, got '" + value + "'");
  return v;
}

std::uint64_t to_u64(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(value, &used);
  if (used != value.size())
    throw std::runtime_error(flag + " expects an integer, got '" + value +
                             "'");
  return v;
}

/// FNV-1a, 64-bit.  Kept local so the stored references do not depend on
/// any hash the program under test might change.
void fnv(std::uint64_t& h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
}

}  // namespace

PoolSpec parse_spec(const std::string& workload, const std::string& text) {
  const std::vector<std::string> tok = split_ws(text);
  if (tok.size() < 2)
    throw std::runtime_error("spec '" + text + "': expected a verb and a circuit");
  PoolSpec s;
  s.workload = workload;
  s.text = text;
  auto value = [&](std::size_t& i) -> const std::string& {
    if (i + 1 >= tok.size())
      throw std::runtime_error("spec '" + text + "': " + tok[i] + " needs a value");
    return tok[++i];
  };
  if (tok[0] == "analyze") {
    s.kind = JobKind::Analyze;
    s.analyze.circuits.assign(tok.begin() + 1, tok.end());
    return s;
  }
  if (tok[0] == "ssta") {
    s.kind = JobKind::Ssta;
    s.ssta.circuit = tok[1];
    for (std::size_t i = 2; i < tok.size(); ++i) {
      const std::string flag = tok[i];
      if (flag == "--clock")
        s.ssta.clock_period_ps = to_double(flag, value(i)) * 1000.0;
      else if (flag == "--quantile")
        s.ssta.quantile = to_double(flag, value(i));
      else if (flag == "--global-share")
        s.ssta.global_share = to_double(flag, value(i));
      else if (flag == "--mc")
        s.ssta.mc_samples = to_u64(flag, value(i));
      else
        throw std::runtime_error("spec '" + text + "': unknown ssta flag " + flag);
    }
    return s;
  }
  if (tok[0] == "optimize") {
    s.kind = JobKind::Optimize;
    s.optimize.circuit = tok[1];
    for (std::size_t i = 2; i < tok.size(); ++i) {
      const std::string flag = tok[i];
      if (flag == "--clock") {
        s.optimize.clock_period_ps = to_double(flag, value(i)) * 1000.0;
      } else if (flag == "--max-moves") {
        s.optimize.max_moves = to_u64(flag, value(i));
      } else if (flag == "--window") {
        s.optimize.window_ps = to_double(flag, value(i));
      } else if (flag == "--corner") {
        const std::string& mode = value(i);
        if (mode != "sva" && mode != "trad")
          throw std::runtime_error("spec '" + text + "': --corner " + mode);
        s.optimize.corner_mode = mode == "sva" ? 0 : 1;
      } else {
        throw std::runtime_error("spec '" + text + "': unknown optimize flag " + flag);
      }
    }
    return s;
  }
  throw std::runtime_error("spec '" + text + "': unknown verb " + tok[0]);
}

std::vector<PoolSpec> load_pool(const std::string& path,
                                const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::vector<PoolSpec> pool;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> field;
    std::size_t begin = 0;
    while (true) {
      const std::size_t tab = line.find('\t', begin);
      field.push_back(line.substr(begin, tab - begin));
      if (tab == std::string::npos) break;
      begin = tab + 1;
    }
    if (field.size() != 5)
      throw std::runtime_error("reference row needs 5 fields: " + line);
    if (field[0] != workload) continue;
    PoolSpec s = parse_spec(field[0], field[1]);
    s.ref_exit = static_cast<int>(to_u64("exit", field[2]));
    s.ref_digest = std::stoull(field[3], nullptr, 16);
    s.ref_bytes = to_u64("bytes", field[4]);
    pool.push_back(std::move(s));
  }
  if (pool.empty())
    throw std::runtime_error("no reference specs for workload " + workload);
  return pool;
}

std::string strip_wall_time(const std::string& text) {
  std::string out;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    end = end == std::string::npos ? text.size() : end + 1;
    const std::string line = text.substr(begin, end - begin);
    begin = end;
    const bool trailer = line.rfind("(", 0) == 0 &&
                         line.find(" circuits, ") != std::string::npos &&
                         line.find(" s)") != std::string::npos;
    if (!trailer) out += line;
  }
  return out;
}

Digest digest_of(const sva::JobResult& result) {
  std::string head = "exit=" + std::to_string(result.exit_code) +
                     "\ncancelled=" + std::to_string(result.cancelled) +
                     "\nerror=" + result.error + "\n";
  const std::string out = strip_wall_time(result.output);
  std::uint64_t h = 0xcbf29ce484222325ull;
  fnv(h, head);
  fnv(h, out);
  std::uint64_t bytes = head.size() + out.size();
  for (const sva::JobArtifact& a : result.artifacts) {
    const std::string tag = "\nartifact " + a.path + "\n";
    fnv(h, tag);
    fnv(h, a.bytes);
    bytes += tag.size() + a.bytes.size();
  }
  return {h, bytes};
}

sva::JobResult run_direct(const sva::SvaFlow& flow, const sva::SizedLibrary& sized,
                          sva::ThreadPool& pool, const PoolSpec& spec) {
  switch (spec.kind) {
    case JobKind::Analyze:
      return sva::run_analyze_job(flow, pool, spec.analyze, nullptr);
    case JobKind::Ssta:
      return sva::run_ssta_job(flow, pool, spec.ssta, nullptr);
    case JobKind::Optimize:
      break;
  }
  return sva::run_optimize_job(flow, sized, pool, spec.optimize, nullptr);
}

std::string check_result(const PoolSpec& spec, const sva::JobResult& result) {
  const Digest d = digest_of(result);
  if (result.exit_code != spec.ref_exit || d.hash != spec.ref_digest ||
      d.bytes != spec.ref_bytes) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "exit %d digest %016llx/%llu B, reference exit %d "
                  "digest %016llx/%llu B",
                  result.exit_code, static_cast<unsigned long long>(d.hash),
                  static_cast<unsigned long long>(d.bytes), spec.ref_exit,
                  static_cast<unsigned long long>(spec.ref_digest),
                  static_cast<unsigned long long>(spec.ref_bytes));
    std::string why = spec.text + ": " + buf;
    if (!result.error.empty()) why += " (error: " + result.error + ")";
    return why;
  }
  if (spec.kind != JobKind::Analyze) return {};
  // Table 2 rows: "<circuit> <gates> <6 delays> <reduction>%".
  std::size_t rows = 0;
  std::istringstream in(result.output);
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = split_ws(line);
    if (cells.size() != 9 || cells[0] == "Testcase" || cells[8].back() != '%')
      continue;
    ++rows;
    const double reduction = std::stod(cells[8]);
    if (reduction < 28.0 || reduction > 40.0)
      return spec.text + ": " + cells[0] + " reduction " + cells[8] +
             " outside the paper's 28-40% band";
  }
  if (rows != spec.analyze.circuits.size())
    return spec.text + ": " + std::to_string(rows) + " Table 2 rows for " +
           std::to_string(spec.analyze.circuits.size()) + " circuits";
  return {};
}

Dealer::Dealer(std::size_t pool_size, std::uint64_t seed)
    : deck_(pool_size), pos_(pool_size), rng_(seed) {
  for (std::size_t i = 0; i < pool_size; ++i) deck_[i] = i;
}

std::size_t Dealer::next() {
  if (pos_ == deck_.size()) {
    // Fisher-Yates with an explicit draw, so the order is the same on every
    // standard library.
    for (std::size_t i = deck_.size(); i > 1; --i)
      std::swap(deck_[i - 1], deck_[rng_() % i]);
    pos_ = 0;
  }
  return deck_[pos_++];
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace perfbench
