#include "util/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "util/metrics.hpp"

namespace sva {
namespace {

enum class ActionKind { Throw, Prob, Delay, Corrupt };

struct Config {
  ActionKind kind = ActionKind::Throw;
  double probability = 1.0;   ///< for Prob
  std::uint64_t delay_ms = 0; ///< for Delay
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Config> armed;
  std::map<std::string, std::uint64_t> hit_counters;  ///< per-name kNoKey keys
  std::map<std::string, std::uint64_t> fired;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t name_seed(const char* name) {
  // FNV-1a over the name; duplicated here (instead of serialize.hpp) to
  // keep failpoint free of higher-layer includes.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Uniform [0, 1) from (site, key): a pure function, so keyed sites make
/// the same decision in every run.
double uniform_of(const char* name, std::uint64_t key) {
  const std::uint64_t bits = splitmix64(name_seed(name) ^ key);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Parse "prob(0.25)" / "delay(10)" payloads.
double parse_paren_number(const std::string& spec, std::size_t open,
                          const std::string& what) {
  const std::size_t close = spec.rfind(')');
  if (close == std::string::npos || close < open + 2 ||
      close + 1 != spec.size())
    throw PreconditionError("malformed failpoint action '" + spec + "'");
  const std::string body = spec.substr(open + 1, close - open - 1);
  std::size_t parsed = 0;
  double v = 0.0;
  try {
    v = std::stod(body, &parsed);
  } catch (const std::exception&) {
    parsed = 0;
  }
  if (parsed != body.size())
    throw PreconditionError("failpoint " + what + " expects a number, got '" +
                            body + "'");
  return v;
}

Config parse_spec(const std::string& spec) {
  Config c;
  if (spec == "throw") {
    c.kind = ActionKind::Throw;
    return c;
  }
  if (spec == "corrupt") {
    c.kind = ActionKind::Corrupt;
    return c;
  }
  if (spec.rfind("prob(", 0) == 0) {
    c.kind = ActionKind::Prob;
    c.probability = parse_paren_number(spec, 4, "prob()");
    if (!(c.probability >= 0.0 && c.probability <= 1.0))
      throw PreconditionError("failpoint prob() expects p in [0,1], got '" +
                              spec + "'");
    return c;
  }
  if (spec.rfind("delay(", 0) == 0) {
    c.kind = ActionKind::Delay;
    const double ms = parse_paren_number(spec, 5, "delay()");
    if (!(ms >= 0.0))
      throw PreconditionError("failpoint delay() expects ms >= 0, got '" +
                              spec + "'");
    c.delay_ms = static_cast<std::uint64_t>(ms);
    return c;
  }
  throw PreconditionError("unknown failpoint action '" + spec +
                          "' (expected throw, prob(p), delay(ms), corrupt, "
                          "or off)");
}

[[noreturn]] void throw_injected(const char* name, const char* how) {
  throw FailPointError(std::string("injected fault at failpoint '") + name +
                       "' (" + how + ")");
}

}  // namespace

std::atomic<int>& FailPoints::active_count() {
  static std::atomic<int> count{0};
  return count;
}

void FailPoints::set(const std::string& name, const std::string& spec) {
  if (name.empty())
    throw PreconditionError("failpoint name must be non-empty");
  if (spec == "off") {
    clear(name);
    return;
  }
  const Config config = parse_spec(spec);  // validate before arming
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const bool fresh = r.armed.emplace(name, config).second;
  if (!fresh)
    r.armed[name] = config;
  else
    active_count().fetch_add(1, std::memory_order_relaxed);
}

void FailPoints::clear(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.armed.erase(name) > 0)
    active_count().fetch_sub(1, std::memory_order_relaxed);
  r.hit_counters.erase(name);
  r.fired.erase(name);
}

void FailPoints::clear_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  active_count().fetch_sub(static_cast<int>(r.armed.size()),
                           std::memory_order_relaxed);
  r.armed.clear();
  r.hit_counters.clear();
  r.fired.clear();
}

void FailPoints::configure(const std::string& list) {
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string entry = list.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      throw PreconditionError("malformed SVA_FAILPOINTS entry '" + entry +
                              "' (expected name=action)");
    set(entry.substr(0, eq), entry.substr(eq + 1));
  }
}

std::size_t FailPoints::configure_from_env() {
  const char* env = std::getenv("SVA_FAILPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  configure(env);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.armed.size();
}

const std::vector<std::string>& FailPoints::catalogue() {
  static const std::vector<std::string> kSites = {
      "serialize.read",      // read_file_bytes (cache file reads)
      "serialize.write",     // atomic_write_file payload (supports corrupt)
      "serialize.rename",    // atomic_write_file temp->target rename
      "context_cache.load",  // ContextCache::try_load validation
      "context_cache.save",  // ContextCache::save
      "flow.setup_load",     // SvaFlow setup snapshot validation
      "opc.cell_solve",      // per-cell library OPC (keyed by cell name)
      "engine.task",         // thread-pool task execution
      "batch.job",           // BatchRunner job (keyed by circuit name)
      "checkpoint.write",    // ECO / batch journal write
      "cache.lock",          // FileLock::acquire (cache/checkpoint locks)
      "server.accept",       // daemon accept loop (connection dropped)
      "server.read",         // daemon per-connection frame read
      "server.conn.accept",  // post-accept supervision (pre-shed drop)
      "server.conn.read",    // supervised frame read (before any byte)
      "server.conn.write",   // supervised frame write (before any byte)
      "server.lane.run",     // executor-lane job harness (lane crash/stall)
      "server.watchdog.tick",// daemon watchdog scan (tick skipped)
      "ssta.propagate",      // SstaEngine forward pass entry
  };
  return kSites;
}

std::uint64_t FailPoints::fired_count(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.fired.find(name);
  return it == r.fired.end() ? 0 : it->second;
}

FailAction FailPoints::hit(const char* name, std::uint64_t key,
                           bool supports_corrupt) {
  Config config;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.armed.find(name);
    if (it == r.armed.end()) return FailAction::None;
    config = it->second;
    if (config.kind == ActionKind::Prob && key == kNoKey)
      key = r.hit_counters[name]++;
    if (config.kind == ActionKind::Prob &&
        uniform_of(name, key) >= config.probability)
      return FailAction::None;
    ++r.fired[name];
  }
  MetricsRegistry::global().counter("failpoints.fired").add();
  switch (config.kind) {
    case ActionKind::Throw:
      throw_injected(name, "throw");
    case ActionKind::Prob:
      throw_injected(name, "prob");
    case ActionKind::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(config.delay_ms));
      return FailAction::None;
    case ActionKind::Corrupt:
      if (supports_corrupt) return FailAction::Corrupt;
      throw_injected(name, "corrupt, unsupported at this site");
  }
  return FailAction::None;
}

}  // namespace sva
