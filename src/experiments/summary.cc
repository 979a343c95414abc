#include "experiments/summary.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/format.h"

namespace oasis {
namespace experiments {

namespace {

void AppendNumberArray(std::ostringstream& out, const std::vector<double>& v) {
  out << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << ',';
    out << FormatRoundTrip(v[i]);
  }
  out << ']';
}

/// Token-level parser for the summary's own flat schema: one object whose
/// values are strings (no escapes needed — method/scenario names are plain),
/// numbers, booleans, or arrays of numbers.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  Status Parse() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      OASIS_ASSIGN_OR_RETURN(const std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key '" + key + "'");
      SkipSpace();
      OASIS_RETURN_NOT_OK(ParseValue(key));
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume('}')) break;
      return Error("expected ',' or '}' after value of '" + key + "'");
    }
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return Status::OK();
  }

  Result<std::string> GetString(const std::string& key) const {
    auto it = strings_.find(key);
    if (it == strings_.end()) return Missing(key, "string");
    used_.insert(key);
    return it->second;
  }

  Result<double> GetNumber(const std::string& key) const {
    auto it = numbers_.find(key);
    if (it == numbers_.end()) return Missing(key, "number");
    used_.insert(key);
    return it->second;
  }

  /// The number `key` as a T: InvalidArgument unless it is integral and
  /// within T's range. A plain integer token is read exactly, so a 64-bit
  /// seed round-trips; any other spelling (1e3, 5.0) goes through its double
  /// value.
  template <typename T>
  Result<T> GetInteger(const std::string& key) const {
    OASIS_ASSIGN_OR_RETURN(const double value, GetNumber(key));
    const std::string& token = number_text_.at(key);
    T parsed{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, parsed);
    if (ec == std::errc() && ptr == end) return parsed;
    // [lowest, limit) as doubles: both bounds are exact powers of two.
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double lowest = std::numeric_limits<T>::is_signed ? -limit : 0.0;
    if (std::trunc(value) != value || !(value >= lowest && value < limit)) {
      return Status::InvalidArgument(
          "RunSummary JSON: field '" + key + "' must be an integer in [" +
          std::to_string(std::numeric_limits<T>::min()) + ", " +
          std::to_string(std::numeric_limits<T>::max()) + "], got " + token);
    }
    return static_cast<T>(value);
  }

  Result<bool> GetBool(const std::string& key) const {
    auto it = bools_.find(key);
    if (it == bools_.end()) return Missing(key, "bool");
    used_.insert(key);
    return it->second;
  }

  Result<std::vector<double>> GetArray(const std::string& key) const {
    auto it = arrays_.find(key);
    if (it == arrays_.end()) return Missing(key, "array");
    used_.insert(key);
    return it->second;
  }

  /// Fails on any field never consumed by a getter — schema drift guard.
  Status CheckAllFieldsUsed() const {
    std::string unknown;
    auto check = [&](const std::string& key) {
      if (used_.count(key) == 0) {
        if (!unknown.empty()) unknown += ", ";
        unknown += "'" + key + "'";
      }
    };
    for (const auto& [key, value] : strings_) check(key);
    for (const auto& [key, value] : numbers_) check(key);
    for (const auto& [key, value] : bools_) check(key);
    for (const auto& [key, value] : arrays_) check(key);
    if (!unknown.empty()) {
      return Status::InvalidArgument("RunSummary JSON: unknown field(s): " +
                                     unknown);
    }
    return Status::OK();
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("RunSummary JSON: " + message +
                                   " at offset " + std::to_string(pos_));
  }

  static Status Missing(const std::string& key, const std::string& kind) {
    return Status::InvalidArgument("RunSummary JSON: missing " + kind +
                                   " field '" + key + "'");
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return Error("escapes are not supported");
      value.push_back(text_[pos_++]);
    }
    if (!Consume('"')) return Error("unterminated string");
    return value;
  }

  Result<double> ParseNumber() {
    const char* begin = text_.c_str() + pos_;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin || errno == ERANGE) return Error("expected a number");
    pos_ += static_cast<size_t>(end - begin);
    return value;
  }

  Status ParseValue(const std::string& key) {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '"') {
      OASIS_ASSIGN_OR_RETURN(strings_[key], ParseString());
      return Status::OK();
    }
    if (c == 't' || c == 'f') {
      const std::string word = c == 't' ? "true" : "false";
      if (text_.compare(pos_, word.size(), word) != 0) {
        return Error("expected true/false");
      }
      pos_ += word.size();
      bools_[key] = c == 't';
      return Status::OK();
    }
    if (c == '[') {
      ++pos_;
      std::vector<double> values;
      SkipSpace();
      if (!Consume(']')) {
        while (true) {
          OASIS_ASSIGN_OR_RETURN(const double value, ParseNumber());
          values.push_back(value);
          SkipSpace();
          if (Consume(',')) {
            SkipSpace();
            continue;
          }
          if (Consume(']')) break;
          return Error("expected ',' or ']' in array '" + key + "'");
        }
      }
      arrays_[key] = std::move(values);
      return Status::OK();
    }
    const size_t start = pos_;
    OASIS_ASSIGN_OR_RETURN(numbers_[key], ParseNumber());
    number_text_[key] = text_.substr(start, pos_ - start);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::map<std::string, std::string> strings_;
  std::map<std::string, double> numbers_;
  // The token each entry of numbers_ was parsed from, for GetInteger.
  std::map<std::string, std::string> number_text_;
  std::map<std::string, bool> bools_;
  std::map<std::string, std::vector<double>> arrays_;
  mutable std::set<std::string> used_;
};

}  // namespace

std::string RunSummaryToJson(const RunSummary& summary) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << summary.schema_version << ",\n";
  out << "  \"scenario\": \"" << summary.scenario << "\",\n";
  out << "  \"method\": \"" << summary.method << "\",\n";
  out << "  \"alpha\": " << FormatRoundTrip(summary.alpha) << ",\n";
  out << "  \"pool_size\": " << summary.pool_size << ",\n";
  out << "  \"scenario_seed\": " << summary.scenario_seed << ",\n";
  out << "  \"run_seed\": " << summary.run_seed << ",\n";
  out << "  \"true_f\": " << FormatRoundTrip(summary.true_f) << ",\n";
  out << "  \"budget\": " << summary.budget << ",\n";
  out << "  \"repeats\": " << summary.repeats << ",\n";
  out << "  \"final_mean_estimate\": "
      << FormatRoundTrip(summary.final_mean_estimate) << ",\n";
  out << "  \"final_mean_abs_error\": "
      << FormatRoundTrip(summary.final_mean_abs_error) << ",\n";
  out << "  \"final_stddev\": " << FormatRoundTrip(summary.final_stddev)
      << ",\n";
  out << "  \"final_frac_defined\": "
      << FormatRoundTrip(summary.final_frac_defined) << ",\n";
  out << "  \"expect_sis_degeneracy\": "
      << (summary.expect_sis_degeneracy ? "true" : "false") << ",\n";
  out << "  \"degeneracy_monitored\": "
      << (summary.degeneracy_monitored ? "true" : "false") << ",\n";
  out << "  \"degeneracy_tripped\": "
      << (summary.degeneracy_tripped ? "true" : "false") << ",\n";
  out << "  \"final_ess_fraction\": "
      << FormatRoundTrip(summary.final_ess_fraction) << ",\n";
  out << "  \"max_weight_share\": " << FormatRoundTrip(summary.max_weight_share)
      << ",\n";
  out << "  \"verify_tolerance\": " << FormatRoundTrip(summary.verify_tolerance)
      << ",\n";
  out << "  \"final_estimates\": ";
  AppendNumberArray(out, summary.final_estimates);
  out << ",\n";
  out << "  \"final_defined\": [";
  for (size_t i = 0; i < summary.final_defined.size(); ++i) {
    if (i > 0) out << ',';
    out << int{summary.final_defined[i]};
  }
  out << "]\n";
  out << "}\n";
  return out.str();
}

Status WriteRunSummaryJson(const std::string& path, const RunSummary& summary) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("WriteRunSummaryJson: cannot open '" + path + "'");
  }
  out << RunSummaryToJson(summary);
  if (!out) {
    return Status::Internal("WriteRunSummaryJson: write failed for '" + path +
                            "'");
  }
  return Status::OK();
}

Result<RunSummary> ParseRunSummaryJson(const std::string& text) {
  FlatJsonParser parser(text);
  OASIS_RETURN_NOT_OK(parser.Parse());
  RunSummary summary;
  OASIS_ASSIGN_OR_RETURN(summary.schema_version,
                         parser.GetInteger<int64_t>("schema_version"));
  if (summary.schema_version != 1) {
    return Status::InvalidArgument(
        "RunSummary JSON: unsupported schema_version " +
        std::to_string(summary.schema_version));
  }
  OASIS_ASSIGN_OR_RETURN(summary.scenario, parser.GetString("scenario"));
  OASIS_ASSIGN_OR_RETURN(summary.method, parser.GetString("method"));
  OASIS_ASSIGN_OR_RETURN(summary.alpha, parser.GetNumber("alpha"));
  OASIS_ASSIGN_OR_RETURN(summary.pool_size,
                         parser.GetInteger<int64_t>("pool_size"));
  OASIS_ASSIGN_OR_RETURN(summary.scenario_seed,
                         parser.GetInteger<uint64_t>("scenario_seed"));
  OASIS_ASSIGN_OR_RETURN(summary.run_seed,
                         parser.GetInteger<uint64_t>("run_seed"));
  OASIS_ASSIGN_OR_RETURN(summary.true_f, parser.GetNumber("true_f"));
  OASIS_ASSIGN_OR_RETURN(summary.budget, parser.GetInteger<int64_t>("budget"));
  OASIS_ASSIGN_OR_RETURN(summary.repeats,
                         parser.GetInteger<int64_t>("repeats"));
  OASIS_ASSIGN_OR_RETURN(summary.final_mean_estimate,
                         parser.GetNumber("final_mean_estimate"));
  OASIS_ASSIGN_OR_RETURN(summary.final_mean_abs_error,
                         parser.GetNumber("final_mean_abs_error"));
  OASIS_ASSIGN_OR_RETURN(summary.final_stddev,
                         parser.GetNumber("final_stddev"));
  OASIS_ASSIGN_OR_RETURN(summary.final_frac_defined,
                         parser.GetNumber("final_frac_defined"));
  OASIS_ASSIGN_OR_RETURN(summary.expect_sis_degeneracy,
                         parser.GetBool("expect_sis_degeneracy"));
  OASIS_ASSIGN_OR_RETURN(summary.degeneracy_monitored,
                         parser.GetBool("degeneracy_monitored"));
  OASIS_ASSIGN_OR_RETURN(summary.degeneracy_tripped,
                         parser.GetBool("degeneracy_tripped"));
  OASIS_ASSIGN_OR_RETURN(summary.final_ess_fraction,
                         parser.GetNumber("final_ess_fraction"));
  OASIS_ASSIGN_OR_RETURN(summary.max_weight_share,
                         parser.GetNumber("max_weight_share"));
  OASIS_ASSIGN_OR_RETURN(summary.verify_tolerance,
                         parser.GetNumber("verify_tolerance"));
  OASIS_ASSIGN_OR_RETURN(summary.final_estimates,
                         parser.GetArray("final_estimates"));
  OASIS_ASSIGN_OR_RETURN(const std::vector<double> defined,
                         parser.GetArray("final_defined"));
  summary.final_defined.reserve(defined.size());
  for (double value : defined) {
    if (value != 0.0 && value != 1.0) {
      return Status::InvalidArgument(
          "RunSummary JSON: final_defined entries must be 0 or 1");
    }
    summary.final_defined.push_back(value != 0.0 ? 1 : 0);
  }
  if (summary.final_estimates.size() != summary.final_defined.size()) {
    return Status::InvalidArgument(
        "RunSummary JSON: final_estimates and final_defined lengths differ");
  }
  OASIS_RETURN_NOT_OK(parser.CheckAllFieldsUsed());
  return summary;
}

Result<RunSummary> ReadRunSummaryJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("ReadRunSummaryJson: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseRunSummaryJson(buffer.str());
}

}  // namespace experiments
}  // namespace oasis
