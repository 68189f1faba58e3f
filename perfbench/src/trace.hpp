// Span recorder for the traced run. Spans are opened by the benchmark's own
// code around calls into the library's modules (named "<module>.<what>"),
// kept in memory and written out as Chrome trace-event JSON when the run
// ends. A disabled recorder costs one branch per span.
#pragma once

#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  Interval time;    ///< ns since the recorder's epoch
  int id = 0;
  int parent = -1;  ///< enclosing span on the same thread; -1 for a root
  int op = -1;      ///< operation the span belongs to; -1 outside any op
  int tid = 0;
};

/// Turns recording on or off (off by default) and drops recorded spans.
void setTracing(bool enabled);
bool tracing();

/// Every span closed so far, in closing order.
std::vector<SpanRecord> recordedSpans();

/// Writes `spans` as Chrome trace-event JSON ("X" events; id, parent and op
/// in args). Returns false when the file cannot be written.
bool writeChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans);

/// RAII span. The one-argument form nests under the thread's innermost open
/// span and inherits its op; the two-argument form opens the root span of
/// operation `op`.
class Span {
 public:
  explicit Span(std::string name);
  Span(std::string name, int op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(std::string name, int op);

  bool active_ = false;
  SpanRecord record_;
};

/// Summed duration of every span called `name`, in ms.
double spanTotalMs(const std::vector<SpanRecord>& spans, const std::string& name);

/// Share of op wall time covered by layer spans: over every op root span,
/// the covered length of its direct children divided by its length (summed
/// before dividing). 0 when there are no op spans.
double opCoverage(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
