#ifndef OASIS_EXPERIMENTS_CONFIG_H_
#define OASIS_EXPERIMENTS_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace oasis {
namespace experiments {

/// Minimal `key = value` configuration file shared by the apps/ CLI layer
/// (oasis_gen / oasis_run / oasis_sweep / oasis_verify) and the scenario
/// serialisation in src/datagen/scenario.h.
///
/// Format: one `key = value` pair per line; `#` starts a comment (full-line
/// or trailing); blank lines are ignored; keys and values are trimmed of
/// surrounding whitespace. Keys are unique — a duplicate key is a parse
/// error, not a silent override. Values keep internal whitespace (lists are
/// comma-separated by convention, see GetStringList).
///
/// The map records which keys were read so callers can reject typos: after
/// pulling every expected key, CheckAllKeysUsed() fails loudly on leftovers
/// instead of silently ignoring a misspelled option.
class ConfigMap {
 public:
  /// Parses `text` (the contents of a config file). Fails on malformed lines
  /// (no '='), empty keys, or duplicate keys.
  static Result<ConfigMap> Parse(const std::string& text);

  /// Reads and parses the file at `path`.
  static Result<ConfigMap> ParseFile(const std::string& path);

  /// Whether `key` is present.
  bool Has(const std::string& key) const;

  /// The raw value of `key`; fails with NotFound when absent.
  Result<std::string> GetString(const std::string& key) const;

  /// The value of `key`, or `fallback` when absent.
  std::string GetStringOr(const std::string& key, const std::string& fallback) const;

  /// The value parsed as int64; fails on absence or on trailing garbage.
  Result<int64_t> GetInt64(const std::string& key) const;

  /// Integer value with a default for absent keys (parse errors still fail).
  Result<int64_t> GetInt64Or(const std::string& key, int64_t fallback) const;

  /// GetInt64Or for an int-typed option: a value outside int's range is
  /// refused, never narrowed (4294967297 must not read as 1).
  Result<int> GetIntOr(const std::string& key, int fallback) const;

  /// The value parsed as double; fails on absence or non-numeric text.
  Result<double> GetDouble(const std::string& key) const;

  /// Double value with a default for absent keys (parse errors still fail).
  Result<double> GetDoubleOr(const std::string& key, double fallback) const;

  /// The value parsed as bool ("true"/"false"/"1"/"0", case-insensitive).
  Result<bool> GetBool(const std::string& key) const;

  /// Bool value with a default for absent keys (parse errors still fail).
  Result<bool> GetBoolOr(const std::string& key, bool fallback) const;

  /// The value split on commas with each element trimmed; empty elements are
  /// dropped. Absent key -> empty list.
  std::vector<std::string> GetStringList(const std::string& key) const;

  /// Fails with InvalidArgument naming every key that was never read by any
  /// getter — the typo guard every app runs after consuming its options.
  Status CheckAllKeysUsed() const;

  /// All keys in file order (diagnostics and serialisation round-trips).
  std::vector<std::string> Keys() const;

 private:
  struct Entry {
    /// The key as written in the file (trimmed).
    std::string key;
    /// The raw value (trimmed; list splitting happens in GetStringList).
    std::string value;
    /// Set by every getter; CheckAllKeysUsed reports entries never read.
    mutable bool used = false;
  };

  const Entry* Find(const std::string& key) const;

  std::vector<Entry> entries_;
};

/// Strips leading and trailing whitespace (shared with the CSV/JSON readers).
std::string TrimWhitespace(const std::string& text);

/// Parsed command line of an oasis_* app: positional operands plus
/// --key=value / --flag options, with the same used-key discipline as
/// ConfigMap — every accessor marks its flag as read, and
/// CheckAllFlagsUsed() rejects whatever no code path consumed, so a
/// misspelled option fails loudly instead of being ignored. This is the one
/// argv parser in the repo; the apps (gen/run/sweep/verify/serve) all build
/// on it via ParseCommonFlags below.
class CommandLine {
 public:
  /// Splits argv into positionals and --options. `--flag` (no '=') maps to
  /// the empty string. A repeated flag is a parse error, mirroring
  /// ConfigMap's duplicate-key rule.
  static Result<CommandLine> Parse(int argc, char** argv);

  /// Whether `--name` was given (marks it used).
  bool HasFlag(const std::string& name) const;

  /// The value of `--name=value`, or `fallback` when absent (marks it used).
  std::string FlagOr(const std::string& name, const std::string& fallback) const;

  /// `--name`'s value parsed as int64; `fallback` when absent, error on
  /// trailing garbage.
  Result<int64_t> FlagInt64Or(const std::string& name, int64_t fallback) const;

  /// `--name`'s value parsed as double; `fallback` when absent.
  Result<double> FlagDoubleOr(const std::string& name, double fallback) const;

  /// Fails with InvalidArgument naming every option no accessor read — the
  /// CLI-level twin of ConfigMap::CheckAllKeysUsed. Run it after all flag
  /// consumption (including ParseCommonFlags).
  Status CheckAllFlagsUsed() const;

  /// Positional operands in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Flag {
    std::string name;         ///< Without the leading dashes.
    std::string value;        ///< Empty for bare `--flag`.
    mutable bool used = false;  ///< Marked by the accessors (typo guard).
  };

  const Flag* Find(const std::string& name) const;

  std::vector<std::string> positional_;
  std::vector<Flag> flags_;
};

/// The flags every oasis_* app understands, with one shared semantics
/// (docs/TELEMETRY.md):
///   --metrics-out=<path>   write a metrics JSON snapshot on success
///   --trace-out=<path>     write a chrome://tracing JSON on success
///   --heartbeat=<seconds>  print a stderr progress line every N seconds
///   --no-telemetry         turn collection off entirely
///   --threads=<n>          worker threads (0 = hardware concurrency);
///                          overrides the config file's `threads` key
///   --seed=<n>             base RNG seed; overrides the config's seed key
struct CommonFlags {
  bool telemetry_enabled = true;  ///< False with --no-telemetry.
  std::string metrics_out;        ///< Empty = no metrics snapshot file.
  std::string trace_out;          ///< Empty = no trace file.
  double heartbeat_seconds = 0;   ///< 0 = no heartbeat.
  /// Set when --threads was given (in [0, ThreadPool::kMaxThreads]); apps
  /// fold it over their config value.
  std::optional<int> threads;
  /// Set when --seed was given; apps fold it over their config value.
  std::optional<uint64_t> seed;
};

/// Parses the common flags out of `args`, validating each (--heartbeat > 0,
/// --threads in [0, ThreadPool::kMaxThreads], and --no-telemetry
/// contradicting the output flags). Apps
/// consume their own extra flags before or after, then run
/// args.CheckAllFlagsUsed() so the typo guard covers both sets.
Result<CommonFlags> ParseCommonFlags(const CommandLine& args);

}  // namespace experiments
}  // namespace oasis

#endif  // OASIS_EXPERIMENTS_CONFIG_H_
