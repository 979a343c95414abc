#include "service/protocol.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/format.h"
#include "experiments/config.h"
#include "experiments/runner.h"

namespace oasis {
namespace service {
namespace {

using experiments::ConfigMap;

// ---------------------------------------------------------------------------
// Wire-form helpers. One `key = value` line per field; numbers through the
// same %.17g / strtod round trip as the summary JSON, strings through a
// minimal percent-encoding so any byte sequence survives the line framing
// and ConfigMap's comment/trim rules.
// ---------------------------------------------------------------------------

bool IsWire(char c) { return c == ' ' || c == '\t'; }

/// Percent-encodes `text` for a config value: '%', '#' (comment starter),
/// CR/LF (line framing) always; leading/trailing whitespace (which ConfigMap
/// would trim away) positionally.
std::string PercentEncode(const std::string& text) {
  size_t head = 0;
  while (head < text.size() && IsWire(text[head])) ++head;
  size_t tail = text.size();
  while (tail > head && IsWire(text[tail - 1])) --tail;
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const bool positional = (i < head || i >= tail) && IsWire(c);
    if (c == '%' || c == '#' || c == '\n' || c == '\r' || positional) {
      char buffer[4];
      std::snprintf(buffer, sizeof(buffer), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

Result<std::string> PercentDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out += text[i];
      continue;
    }
    if (i + 2 >= text.size()) {
      return Status::InvalidArgument(
          "service protocol: truncated percent-escape in '" + text + "'");
    }
    const int hi = HexDigit(text[i + 1]);
    const int lo = HexDigit(text[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument(
          "service protocol: malformed percent-escape in '" + text + "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

void AppendInt(const std::string& key, int64_t value, std::string* out) {
  *out += key + " = " + std::to_string(value) + "\n";
}

void AppendDouble(const std::string& key, double value, std::string* out) {
  *out += key + " = " + FormatRoundTrip(value) + "\n";
}

void AppendBool(const std::string& key, bool value, std::string* out) {
  *out += key + " = " + (value ? std::string("true") : std::string("false")) +
          "\n";
}

void AppendText(const std::string& key, const std::string& value,
                std::string* out) {
  *out += key + " = " + PercentEncode(value) + "\n";
}

void AppendInt64List(const std::string& key, const std::vector<int64_t>& values,
                     std::string* out) {
  if (values.empty()) return;  // Absent key parses back to an empty list.
  std::string joined;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ",";
    joined += std::to_string(values[i]);
  }
  *out += key + " = " + joined + "\n";
}

void AppendDoubleList(const std::string& key, const std::vector<double>& values,
                      std::string* out) {
  if (values.empty()) return;
  std::string joined;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ",";
    joined += FormatRoundTrip(values[i]);
  }
  *out += key + " = " + joined + "\n";
}

void AppendBitList(const std::string& key, const std::vector<uint8_t>& values,
                   std::string* out) {
  if (values.empty()) return;
  std::string joined;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) joined += ",";
    joined += values[i] ? "1" : "0";
  }
  *out += key + " = " + joined + "\n";
}

void AppendHeader(const char* type, std::string* out) {
  AppendInt("oasis_service_protocol", kProtocolVersion, out);
  *out += std::string("type = ") + type + "\n";
}

Result<std::string> GetText(const ConfigMap& config, const std::string& key,
                            const std::string& fallback) {
  return PercentDecode(config.GetStringOr(key, fallback));
}

Result<std::vector<int64_t>> GetInt64List(const ConfigMap& config,
                                          const std::string& key) {
  std::vector<int64_t> out;
  for (const std::string& item : config.GetStringList(key)) {
    char* end = nullptr;
    const long long value = std::strtoll(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0') {
      return Status::InvalidArgument("service protocol: bad integer '" + item +
                                     "' in list '" + key + "'");
    }
    out.push_back(static_cast<int64_t>(value));
  }
  return out;
}

Result<std::vector<double>> GetDoubleList(const ConfigMap& config,
                                          const std::string& key) {
  std::vector<double> out;
  for (const std::string& item : config.GetStringList(key)) {
    char* end = nullptr;
    const double value = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0') {
      return Status::InvalidArgument("service protocol: bad number '" + item +
                                     "' in list '" + key + "'");
    }
    out.push_back(value);
  }
  return out;
}

Result<std::vector<uint8_t>> GetBitList(const ConfigMap& config,
                                        const std::string& key) {
  std::vector<uint8_t> out;
  for (const std::string& item : config.GetStringList(key)) {
    if (item != "0" && item != "1") {
      return Status::InvalidArgument("service protocol: bad flag '" + item +
                                     "' in list '" + key + "' (want 0 or 1)");
    }
    out.push_back(item == "1" ? 1 : 0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared EstimateReport body (LabelArrived / EstimateReply / SessionClosed).
// ---------------------------------------------------------------------------

void AppendReport(const EstimateReport& report, std::string* out) {
  AppendInt("session", report.session, out);
  AppendInt("labels_consumed", report.labels_consumed, out);
  AppendInt("iterations", report.iterations, out);
  AppendDouble("f_alpha", report.f_alpha, out);
  AppendBool("f_defined", report.f_defined, out);
  AppendDouble("precision", report.precision, out);
  AppendBool("precision_defined", report.precision_defined, out);
  AppendDouble("recall", report.recall, out);
  AppendBool("recall_defined", report.recall_defined, out);
  AppendBool("done", report.done, out);
  AppendBool("truncated", report.truncated, out);
}

Result<EstimateReport> ParseReport(const ConfigMap& config) {
  EstimateReport report;
  OASIS_ASSIGN_OR_RETURN(report.session, config.GetInt64Or("session", 0));
  OASIS_ASSIGN_OR_RETURN(report.labels_consumed,
                         config.GetInt64Or("labels_consumed", 0));
  OASIS_ASSIGN_OR_RETURN(report.iterations, config.GetInt64Or("iterations", 0));
  OASIS_ASSIGN_OR_RETURN(report.f_alpha, config.GetDoubleOr("f_alpha", 0.0));
  OASIS_ASSIGN_OR_RETURN(report.f_defined,
                         config.GetBoolOr("f_defined", false));
  OASIS_ASSIGN_OR_RETURN(report.precision,
                         config.GetDoubleOr("precision", 0.0));
  OASIS_ASSIGN_OR_RETURN(report.precision_defined,
                         config.GetBoolOr("precision_defined", false));
  OASIS_ASSIGN_OR_RETURN(report.recall, config.GetDoubleOr("recall", 0.0));
  OASIS_ASSIGN_OR_RETURN(report.recall_defined,
                         config.GetBoolOr("recall_defined", false));
  OASIS_ASSIGN_OR_RETURN(report.done, config.GetBoolOr("done", false));
  OASIS_ASSIGN_OR_RETURN(report.truncated,
                         config.GetBoolOr("truncated", false));
  return report;
}

}  // namespace

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

std::string SerializeRequest(const Request& request) {
  std::string out;
  if (const auto* start = std::get_if<StartSession>(&request)) {
    AppendHeader("start_session", &out);
    const SessionSpec& spec = start->spec;
    AppendText("scenario", spec.scenario, &out);
    AppendText("method", spec.method, &out);
    AppendInt("budget", spec.budget, &out);
    AppendInt("checkpoint_every", spec.checkpoint_every, &out);
    AppendInt("strata", spec.strata, &out);
    AppendInt("seed", static_cast<int64_t>(spec.seed), &out);
    AppendInt("stream", static_cast<int64_t>(spec.stream), &out);
    experiments::AppendStackSpecConfig(spec.stack, "stack_", &out);
  } else if (const auto* labels = std::get_if<RequestLabels>(&request)) {
    AppendHeader("request_labels", &out);
    AppendInt("session", labels->session, &out);
    AppendInt("labels", labels->labels, &out);
    AppendBool("wait", labels->wait, &out);
  } else if (const auto* estimate = std::get_if<GetEstimate>(&request)) {
    AppendHeader("get_estimate", &out);
    AppendInt("session", estimate->session, &out);
  } else if (const auto* checkpoint = std::get_if<Checkpoint>(&request)) {
    AppendHeader("checkpoint", &out);
    AppendInt("session", checkpoint->session, &out);
  } else if (const auto* close = std::get_if<CloseSession>(&request)) {
    AppendHeader("close_session", &out);
    AppendInt("session", close->session, &out);
  }
  return out;
}

Result<Request> ParseRequest(const std::string& text) {
  OASIS_ASSIGN_OR_RETURN(const ConfigMap config, ConfigMap::Parse(text));
  OASIS_ASSIGN_OR_RETURN(const int64_t version,
                         config.GetInt64("oasis_service_protocol"));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "service protocol: version " + std::to_string(version) +
        " not supported (this build speaks " +
        std::to_string(kProtocolVersion) + ")");
  }
  OASIS_ASSIGN_OR_RETURN(const std::string type, config.GetString("type"));
  Request request;
  if (type == "start_session") {
    StartSession message;
    SessionSpec& spec = message.spec;
    OASIS_ASSIGN_OR_RETURN(spec.scenario, GetText(config, "scenario", ""));
    OASIS_ASSIGN_OR_RETURN(spec.method, GetText(config, "method", spec.method));
    OASIS_ASSIGN_OR_RETURN(spec.budget,
                           config.GetInt64Or("budget", spec.budget));
    OASIS_ASSIGN_OR_RETURN(
        spec.checkpoint_every,
        config.GetInt64Or("checkpoint_every", spec.checkpoint_every));
    OASIS_ASSIGN_OR_RETURN(spec.strata,
                           config.GetInt64Or("strata", spec.strata));
    OASIS_ASSIGN_OR_RETURN(
        const int64_t seed,
        config.GetInt64Or("seed", static_cast<int64_t>(spec.seed)));
    spec.seed = static_cast<uint64_t>(seed);
    OASIS_ASSIGN_OR_RETURN(
        const int64_t stream,
        config.GetInt64Or("stream", static_cast<int64_t>(spec.stream)));
    spec.stream = static_cast<uint64_t>(stream);
    OASIS_ASSIGN_OR_RETURN(spec.stack,
                           experiments::StackSpecFromConfig(config, "stack_"));
    request = message;
  } else if (type == "request_labels") {
    RequestLabels message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    OASIS_ASSIGN_OR_RETURN(message.labels, config.GetInt64Or("labels", 0));
    OASIS_ASSIGN_OR_RETURN(message.wait, config.GetBoolOr("wait", true));
    request = message;
  } else if (type == "get_estimate") {
    GetEstimate message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    request = message;
  } else if (type == "checkpoint") {
    Checkpoint message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    request = message;
  } else if (type == "close_session") {
    CloseSession message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    request = message;
  } else {
    return Status::InvalidArgument("service protocol: unknown request type '" +
                                   type + "'");
  }
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  return request;
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

std::string SerializeResponse(const Response& response) {
  std::string out;
  if (const auto* started = std::get_if<SessionStarted>(&response)) {
    AppendHeader("session_started", &out);
    AppendInt("session", started->session, &out);
  } else if (const auto* enqueued = std::get_if<LabelsEnqueued>(&response)) {
    AppendHeader("labels_enqueued", &out);
    AppendInt("session", enqueued->session, &out);
  } else if (const auto* arrived = std::get_if<LabelArrived>(&response)) {
    AppendHeader("label_arrived", &out);
    AppendReport(arrived->report, &out);
    AppendInt("labels_charged", arrived->labels_charged, &out);
  } else if (const auto* estimate = std::get_if<EstimateReply>(&response)) {
    AppendHeader("estimate_reply", &out);
    AppendReport(estimate->report, &out);
  } else if (const auto* ack = std::get_if<CheckpointAck>(&response)) {
    AppendHeader("checkpoint_ack", &out);
    AppendInt("session", ack->session, &out);
    AppendInt("labels_consumed", ack->labels_consumed, &out);
    AppendBool("done", ack->done, &out);
    AppendBool("truncated", ack->truncated, &out);
    AppendInt64List("budgets", ack->budgets, &out);
    AppendDoubleList("f_alpha", ack->f_alpha, &out);
    AppendBitList("f_defined", ack->f_defined, &out);
  } else if (const auto* closed = std::get_if<SessionClosed>(&response)) {
    AppendHeader("session_closed", &out);
    AppendReport(closed->report, &out);
  } else if (const auto* error = std::get_if<ErrorReply>(&response)) {
    AppendHeader("error_reply", &out);
    AppendText("code", error->code, &out);
    AppendText("message", error->message, &out);
  }
  return out;
}

Result<Response> ParseResponse(const std::string& text) {
  OASIS_ASSIGN_OR_RETURN(const ConfigMap config, ConfigMap::Parse(text));
  OASIS_ASSIGN_OR_RETURN(const int64_t version,
                         config.GetInt64("oasis_service_protocol"));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "service protocol: version " + std::to_string(version) +
        " not supported (this build speaks " +
        std::to_string(kProtocolVersion) + ")");
  }
  OASIS_ASSIGN_OR_RETURN(const std::string type, config.GetString("type"));
  Response response;
  if (type == "session_started") {
    SessionStarted message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    response = message;
  } else if (type == "labels_enqueued") {
    LabelsEnqueued message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    response = message;
  } else if (type == "label_arrived") {
    LabelArrived message;
    OASIS_ASSIGN_OR_RETURN(message.report, ParseReport(config));
    OASIS_ASSIGN_OR_RETURN(message.labels_charged,
                           config.GetInt64Or("labels_charged", 0));
    response = message;
  } else if (type == "estimate_reply") {
    EstimateReply message;
    OASIS_ASSIGN_OR_RETURN(message.report, ParseReport(config));
    response = message;
  } else if (type == "checkpoint_ack") {
    CheckpointAck message;
    OASIS_ASSIGN_OR_RETURN(message.session, config.GetInt64Or("session", 0));
    OASIS_ASSIGN_OR_RETURN(message.labels_consumed,
                           config.GetInt64Or("labels_consumed", 0));
    OASIS_ASSIGN_OR_RETURN(message.done, config.GetBoolOr("done", false));
    OASIS_ASSIGN_OR_RETURN(message.truncated,
                           config.GetBoolOr("truncated", false));
    OASIS_ASSIGN_OR_RETURN(message.budgets, GetInt64List(config, "budgets"));
    OASIS_ASSIGN_OR_RETURN(message.f_alpha, GetDoubleList(config, "f_alpha"));
    OASIS_ASSIGN_OR_RETURN(message.f_defined, GetBitList(config, "f_defined"));
    if (message.f_alpha.size() != message.budgets.size() ||
        message.f_defined.size() != message.budgets.size()) {
      return Status::InvalidArgument(
          "service protocol: checkpoint_ack list lengths disagree");
    }
    response = message;
  } else if (type == "session_closed") {
    SessionClosed message;
    OASIS_ASSIGN_OR_RETURN(message.report, ParseReport(config));
    response = message;
  } else if (type == "error_reply") {
    ErrorReply message;
    OASIS_ASSIGN_OR_RETURN(message.code, GetText(config, "code", "Internal"));
    OASIS_ASSIGN_OR_RETURN(message.message, GetText(config, "message", ""));
    response = message;
  } else {
    return Status::InvalidArgument("service protocol: unknown response type '" +
                                   type + "'");
  }
  OASIS_RETURN_NOT_OK(config.CheckAllKeysUsed());
  return response;
}

ErrorReply MakeErrorReply(const Status& status) {
  ErrorReply error;
  error.code = StatusCodeName(status.code());
  error.message = status.message();
  return error;
}

Status ErrorReplyToStatus(const ErrorReply& error) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,            StatusCode::kInvalidArgument,
      StatusCode::kOutOfRange,    StatusCode::kFailedPrecondition,
      StatusCode::kNotFound,      StatusCode::kAlreadyExists,
      StatusCode::kCancelled,     StatusCode::kInternal,
      StatusCode::kUnavailable,   StatusCode::kDeadlineExceeded,
  };
  for (const StatusCode code : kCodes) {
    if (error.code == StatusCodeName(code)) {
      return Status(code, error.message);
    }
  }
  return Status::Internal(error.message);
}

}  // namespace service
}  // namespace oasis
