// Outside-in instrumentation of the end-to-end benchmark: an in-memory span
// recorder, and two probes that sit on public seams of the library — an
// Oracle decorator placed under the label cache, and a service Transport that
// times SessionManager::Handle. Nothing here reaches into src/; every number
// is taken by timing calls into public functions.
#ifndef OASIS_PERFBENCH_PROBES_H_
#define OASIS_PERFBENCH_PROBES_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "oracle/oracle.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session_manager.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dense per-thread lane number (0 = first thread that asked), for traces.
inline int ThreadLane() {
  static std::atomic<int> next{0};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

/// One timed call. `weight` converts the span's duration into main-timeline
/// wall time: 1 for spans on the main thread, 1/T for spans that run on one
/// of T parallel workers. `sub_ns` is time inside the span spent in a layer
/// that is timed per call rather than by spans (oracle calls), attributed to
/// `sub_layer`.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t group = -1;  // repeat or session stream, -1 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;
  double weight = 1.0;
  const char* sub_layer = nullptr;
  int64_t sub_ns = 0;
};

/// Spans held in memory and written out once the run ends.
class Tracer {
 public:
  /// Reserves room for `n` spans up front, so recording does not allocate
  /// (and disturb the allocator state of the threads being traced).
  explicit Tracer(size_t n) { spans_.reserve(n); }

  int64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Self time per layer, in main-timeline seconds: each span's weighted
  /// duration minus its children's weighted durations and its per-call
  /// sub-layer time. Summed over all layers this telescopes to the weighted
  /// duration of the root spans.
  std::map<std::string, double> SelfSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<Span>& all = spans_;
    std::unordered_map<int64_t, double> child_weighted_ns;
    for (const Span& s : all) {
      if (s.parent != 0) {
        child_weighted_ns[s.parent] +=
            static_cast<double>(s.end_ns - s.start_ns) * s.weight;
      }
    }
    std::map<std::string, double> self;
    for (const Span& s : all) {
      const double own = static_cast<double>(s.end_ns - s.start_ns) * s.weight;
      const double sub = static_cast<double>(s.sub_ns) * s.weight;
      const auto child = child_weighted_ns.find(s.id);
      const double children = child == child_weighted_ns.end() ? 0.0 : child->second;
      self[s.name] += (own - children - sub) * 1e-9;
      if (s.sub_layer != nullptr) self[s.sub_layer] += sub * 1e-9;
    }
    return self;
  }

  /// Sum of durations (seconds, unweighted) of every span called `name`.
  double TotalSeconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    return total;
  }

  /// Writes the spans as a chrome://tracing / Perfetto JSON file, at most
  /// `max_spans` of them (the earliest recorded).
  bool WriteChromeTrace(const std::string& path, size_t max_spans = 200000) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::vector<Span> all;
    {
      std::lock_guard<std::mutex> lock(mu_);
      all.assign(spans_.begin(), spans_.begin() + std::min(max_spans, spans_.size()));
    }
    int64_t origin = all.empty() ? 0 : all.front().start_ns;
    for (const Span& s : all) origin = std::min(origin, s.start_ns);
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(out,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"group\":%lld,\"sub_ns\":%lld}}%s\n",
                   s.name, s.thread,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.group),
                   static_cast<long long>(s.sub_ns),
                   i + 1 < all.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one scope into `tracer`; a no-op (id 0) when `tracer` is null, which
/// is how the untraced runs execute the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             int64_t group = -1, double weight = 1.0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NextId();
    span_.parent = parent;
    span_.group = group;
    span_.weight = weight;
    span_.thread = ThreadLane();
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }
  void SetSubLayer(const char* layer, int64_t ns) {
    span_.sub_layer = layer;
    span_.sub_ns = ns;
  }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per-thread running totals of CountingOracle calls. A repeat runs on one
/// thread, so the difference of two snapshots taken on that thread is the
/// repeat's own oracle work.
struct OracleTally {
  int64_t busy_ns = 0;
  int64_t calls = 0;
  int64_t items = 0;
};

/// Forwarding Oracle decorator placed at the base of the oracle stack, under
/// the label cache: it answers exactly what the wrapped oracle answers and
/// only times each call.
class CountingOracle final : public oasis::Oracle {
 public:
  explicit CountingOracle(const oasis::Oracle* inner) : inner_(inner) {}

  static OracleTally& ThreadTally() {
    thread_local OracleTally tally;
    return tally;
  }

  bool Label(int64_t item, oasis::Rng& rng) const override {
    const int64_t start = NowNs();
    const bool label = inner_->Label(item, rng);
    Count(start, 1);
    return label;
  }
  void LabelBatch(std::span<const int64_t> items, oasis::Rng& rng,
                  std::span<uint8_t> out) const override {
    const int64_t start = NowNs();
    inner_->LabelBatch(items, rng, out);
    Count(start, static_cast<int64_t>(items.size()));
  }
  oasis::Status TryLabelBatch(std::span<const int64_t> items, oasis::Rng& rng,
                              std::span<uint8_t> out,
                              std::span<uint8_t> resolved) const override {
    const int64_t start = NowNs();
    oasis::Status status = inner_->TryLabelBatch(items, rng, out, resolved);
    Count(start, static_cast<int64_t>(items.size()));
    return status;
  }
  double TrueProbability(int64_t item) const override {
    return inner_->TrueProbability(item);
  }
  bool deterministic() const override { return inner_->deterministic(); }
  bool labelling_consumes_rng() const override {
    return inner_->labelling_consumes_rng();
  }
  bool fallible() const override { return inner_->fallible(); }
  int64_t num_items() const override { return inner_->num_items(); }

 private:
  static void Count(int64_t start, int64_t items) {
    OracleTally& tally = ThreadTally();
    tally.busy_ns += NowNs() - start;
    tally.calls += 1;
    tally.items += items;
  }

  const oasis::Oracle* inner_;
};

/// Request kinds the closed loop sends, for per-type handle timings.
enum RequestKind { kStartKind = 0, kLabelsKind = 1, kCloseKind = 2, kOtherKind = 3 };

inline RequestKind KindOf(const oasis::service::Request& request) {
  if (std::holds_alternative<oasis::service::StartSession>(request)) return kStartKind;
  if (std::holds_alternative<oasis::service::RequestLabels>(request)) return kLabelsKind;
  if (std::holds_alternative<oasis::service::CloseSession>(request)) return kCloseKind;
  return kOtherKind;
}

/// What the last exchange on this thread cost inside the transport.
struct ExchangeTally {
  RequestKind kind = kOtherKind;
  int64_t handle_ns = 0;
  int64_t bytes = 0;
};

/// The in-process transport (parse, SessionManager::Handle, serialise — the
/// same three calls InProcessTransport makes), with Handle timed and a span
/// recorded under the calling thread's current request span.
class TimingTransport final : public oasis::service::Transport {
 public:
  TimingTransport(oasis::service::SessionManager* manager, Tracer* tracer,
                  double weight)
      : manager_(manager), tracer_(tracer), weight_(weight) {}

  static ExchangeTally& LastExchange() {
    thread_local ExchangeTally last;
    return last;
  }
  static int64_t& CurrentParent() {
    thread_local int64_t parent = 0;
    return parent;
  }

  oasis::Result<std::string> RoundTrip(const std::string& request_bytes) override {
    oasis::Result<oasis::service::Request> request =
        oasis::service::ParseRequest(request_bytes);
    if (!request.ok()) {
      return oasis::service::SerializeResponse(
          oasis::service::MakeErrorReply(request.status()));
    }
    ExchangeTally& last = LastExchange();
    last.kind = KindOf(request.ValueOrDie());
    oasis::service::Response response;
    {
      ScopedSpan span(tracer_, "service.handle", CurrentParent(), -1, weight_);
      const int64_t start = NowNs();
      response = manager_->Handle(request.ValueOrDie());
      last.handle_ns = NowNs() - start;
    }
    std::string reply = oasis::service::SerializeResponse(response);
    last.bytes = static_cast<int64_t>(request_bytes.size() + reply.size());
    return reply;
  }

 private:
  oasis::service::SessionManager* manager_;
  Tracer* tracer_;
  double weight_;
};

}  // namespace perfbench

#endif  // OASIS_PERFBENCH_PROBES_H_
