#include "experiments/config.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/thread_pool.h"

namespace oasis {
namespace experiments {

std::string TrimWhitespace(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

Result<ConfigMap> ConfigMap::Parse(const std::string& text) {
  ConfigMap config;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = TrimWhitespace(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("ConfigMap: line " +
                                     std::to_string(line_number) +
                                     " is not 'key = value': '" + line + "'");
    }
    Entry entry;
    entry.key = TrimWhitespace(line.substr(0, eq));
    entry.value = TrimWhitespace(line.substr(eq + 1));
    if (entry.key.empty()) {
      return Status::InvalidArgument("ConfigMap: empty key at line " +
                                     std::to_string(line_number));
    }
    if (config.Find(entry.key) != nullptr) {
      return Status::InvalidArgument("ConfigMap: duplicate key '" + entry.key +
                                     "' at line " + std::to_string(line_number));
    }
    config.entries_.push_back(std::move(entry));
  }
  return config;
}

Result<ConfigMap> ConfigMap::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("ConfigMap: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  OASIS_ASSIGN_OR_RETURN(ConfigMap config, Parse(buffer.str()));
  return config;
}

const ConfigMap::Entry* ConfigMap::Find(const std::string& key) const {
  for (const Entry& entry : entries_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

bool ConfigMap::Has(const std::string& key) const { return Find(key) != nullptr; }

Result<std::string> ConfigMap::GetString(const std::string& key) const {
  const Entry* entry = Find(key);
  if (entry == nullptr) {
    return Status::NotFound("ConfigMap: missing key '" + key + "'");
  }
  entry->used = true;
  return entry->value;
}

std::string ConfigMap::GetStringOr(const std::string& key,
                                   const std::string& fallback) const {
  const Entry* entry = Find(key);
  if (entry == nullptr) return fallback;
  entry->used = true;
  return entry->value;
}

Result<int64_t> ConfigMap::GetInt64(const std::string& key) const {
  OASIS_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("ConfigMap: key '" + key +
                                   "' is not an integer: '" + raw + "'");
  }
  return static_cast<int64_t>(value);
}

Result<int64_t> ConfigMap::GetInt64Or(const std::string& key,
                                      int64_t fallback) const {
  if (!Has(key)) return fallback;
  return GetInt64(key);
}

Result<int> ConfigMap::GetIntOr(const std::string& key, int fallback) const {
  OASIS_ASSIGN_OR_RETURN(const int64_t value, GetInt64Or(key, fallback));
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("ConfigMap: key '" + key + "' = " +
                                   std::to_string(value) +
                                   " does not fit in an int");
  }
  return static_cast<int>(value);
}

Result<double> ConfigMap::GetDouble(const std::string& key) const {
  OASIS_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("ConfigMap: key '" + key +
                                   "' is not a number: '" + raw + "'");
  }
  return value;
}

Result<double> ConfigMap::GetDoubleOr(const std::string& key,
                                      double fallback) const {
  if (!Has(key)) return fallback;
  return GetDouble(key);
}

Result<bool> ConfigMap::GetBool(const std::string& key) const {
  OASIS_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  std::string lowered;
  for (char c : raw) lowered.push_back(static_cast<char>(std::tolower(
      static_cast<unsigned char>(c))));
  if (lowered == "true" || lowered == "1") return true;
  if (lowered == "false" || lowered == "0") return false;
  return Status::InvalidArgument("ConfigMap: key '" + key +
                                 "' is not a bool: '" + raw + "'");
}

Result<bool> ConfigMap::GetBoolOr(const std::string& key, bool fallback) const {
  if (!Has(key)) return fallback;
  return GetBool(key);
}

std::vector<std::string> ConfigMap::GetStringList(const std::string& key) const {
  std::vector<std::string> items;
  const Entry* entry = Find(key);
  if (entry == nullptr) return items;
  entry->used = true;
  std::string current;
  for (char c : entry->value) {
    if (c == ',') {
      const std::string trimmed = TrimWhitespace(current);
      if (!trimmed.empty()) items.push_back(trimmed);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  const std::string trimmed = TrimWhitespace(current);
  if (!trimmed.empty()) items.push_back(trimmed);
  return items;
}

Status ConfigMap::CheckAllKeysUsed() const {
  std::string unused;
  for (const Entry& entry : entries_) {
    if (!entry.used) {
      if (!unused.empty()) unused += ", ";
      unused += "'" + entry.key + "'";
    }
  }
  if (!unused.empty()) {
    return Status::InvalidArgument("ConfigMap: unknown key(s): " + unused);
  }
  return Status::OK();
}

std::vector<std::string> ConfigMap::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) keys.push_back(entry.key);
  return keys;
}

Result<CommandLine> CommandLine::Parse(int argc, char** argv) {
  CommandLine args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional_.push_back(arg);
      continue;
    }
    Flag flag;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flag.name = arg.substr(2);
    } else {
      flag.name = arg.substr(2, eq - 2);
      flag.value = arg.substr(eq + 1);
    }
    if (flag.name.empty()) {
      return Status::InvalidArgument("bad option '" + arg + "'");
    }
    if (args.Find(flag.name) != nullptr) {
      return Status::InvalidArgument("option '--" + flag.name +
                                     "' given twice");
    }
    args.flags_.push_back(std::move(flag));
  }
  return args;
}

const CommandLine::Flag* CommandLine::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool CommandLine::HasFlag(const std::string& name) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return false;
  flag->used = true;
  return true;
}

std::string CommandLine::FlagOr(const std::string& name,
                                const std::string& fallback) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return fallback;
  flag->used = true;
  return flag->value;
}

Result<int64_t> CommandLine::FlagInt64Or(const std::string& name,
                                         int64_t fallback) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return fallback;
  flag->used = true;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(flag->value.c_str(), &end, 10);
  if (end == flag->value.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("option '--" + name +
                                   "' is not an integer: '" + flag->value +
                                   "'");
  }
  return static_cast<int64_t>(value);
}

Result<double> CommandLine::FlagDoubleOr(const std::string& name,
                                         double fallback) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return fallback;
  flag->used = true;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(flag->value.c_str(), &end);
  if (end == flag->value.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("option '--" + name +
                                   "' is not a number: '" + flag->value + "'");
  }
  return value;
}

Status CommandLine::CheckAllFlagsUsed() const {
  std::string unused;
  for (const Flag& flag : flags_) {
    if (!flag.used) {
      if (!unused.empty()) unused += ", ";
      unused += "'--" + flag.name + "'";
    }
  }
  if (!unused.empty()) {
    return Status::InvalidArgument("unknown option(s): " + unused);
  }
  return Status::OK();
}

Result<CommonFlags> ParseCommonFlags(const CommandLine& args) {
  CommonFlags flags;
  flags.telemetry_enabled = !args.HasFlag("no-telemetry");
  flags.metrics_out = args.FlagOr("metrics-out", "");
  flags.trace_out = args.FlagOr("trace-out", "");
  OASIS_ASSIGN_OR_RETURN(flags.heartbeat_seconds,
                         args.FlagDoubleOr("heartbeat", 0.0));
  if (args.HasFlag("heartbeat") && flags.heartbeat_seconds <= 0.0) {
    return Status::InvalidArgument(
        "--heartbeat wants a positive number of seconds");
  }
  if (args.HasFlag("threads")) {
    OASIS_ASSIGN_OR_RETURN(const int64_t threads,
                           args.FlagInt64Or("threads", 0));
    if (threads < 0 || threads > ThreadPool::kMaxThreads) {
      return Status::InvalidArgument(
          "--threads must lie in [0, " + std::to_string(ThreadPool::kMaxThreads) +
          "] (0 = hardware concurrency)");
    }
    flags.threads = static_cast<int>(threads);
  }
  if (args.HasFlag("seed")) {
    OASIS_ASSIGN_OR_RETURN(const int64_t seed, args.FlagInt64Or("seed", 0));
    flags.seed = static_cast<uint64_t>(seed);
  }
  if (!flags.telemetry_enabled &&
      (!flags.metrics_out.empty() || !flags.trace_out.empty() ||
       flags.heartbeat_seconds > 0.0)) {
    return Status::InvalidArgument(
        "--no-telemetry contradicts --metrics-out/--trace-out/--heartbeat");
  }
  return flags;
}

}  // namespace experiments
}  // namespace oasis
