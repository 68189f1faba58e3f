#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Recorder {
  std::mutex mutex;
  std::vector<SpanRecord> spans;  // guarded by mutex
  std::atomic<bool> enabled{false};
  std::atomic<int> nextId{0};
  std::atomic<int> nextTid{0};
  const Clock::time_point epoch = Clock::now();
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<const SpanRecord*> openSpans;

int threadId() {
  thread_local const int tid = recorder().nextTid++;
  return tid;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              recorder().epoch)
      .count();
}

}  // namespace

void setTracing(bool enabled) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.spans.clear();
  r.enabled = enabled;
}

bool tracing() { return recorder().enabled; }

std::vector<SpanRecord> recordedSpans() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.spans;
}

bool writeChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.'))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << static_cast<double>(s.time.start) / 1e3
        << ", \"dur\": " << static_cast<double>(s.time.end - s.time.start) / 1e3
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(std::string name) {
  if (!tracing()) return;
  open(std::move(name), openSpans.empty() ? -1 : openSpans.back()->op);
}

Span::Span(std::string name, int op) {
  if (!tracing()) return;
  open(std::move(name), op);
}

void Span::open(std::string name, int op) {
  active_ = true;
  record_.name = std::move(name);
  record_.id = recorder().nextId++;
  record_.parent = openSpans.empty() ? -1 : openSpans.back()->id;
  record_.op = op;
  record_.tid = threadId();
  openSpans.push_back(&record_);
  record_.time.start = nowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.time.end = nowNs();
  openSpans.pop_back();
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (r.enabled) r.spans.push_back(std::move(record_));
}

double spanTotalMs(const std::vector<SpanRecord>& spans, const std::string& name) {
  std::int64_t ns = 0;
  for (const SpanRecord& s : spans)
    if (s.name == name) ns += s.time.end - s.time.start;
  return static_cast<double>(ns) / 1e6;
}

double opCoverage(const std::vector<SpanRecord>& spans) {
  std::map<int, std::vector<Interval>> children;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) children[s.parent].push_back(s.time);
  // An op's self time is the part of it no layer span covers.
  std::int64_t self = 0, total = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 || s.op < 0) continue;
    total += s.time.end - s.time.start;
    self += selfTime(s.time, children[s.id]);
  }
  return total ? static_cast<double>(total - self) / static_cast<double>(total) : 0.0;
}

}  // namespace perfbench
