#ifndef TKLUSBENCH_SPANS_H_
#define TKLUSBENCH_SPANS_H_

// Span recording of the traced run. The benchmark records one span around
// each of its own calls into the program (a wire request,
// ShardedEngine::Query, TkLusEngine::Query, Build, AppendBatch, Save,
// Open) and nests beneath a query span the engine's own stage spans from
// QueryStats::trace. Spans stay in memory, one log per thread, and are
// written out and folded into per-layer self times when the run ends.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace tklusbench {

using Counters = std::vector<std::pair<std::string, uint64_t>>;

struct SpanRecord {
  uint64_t request = 0;  // spans of one request share it
  uint64_t id = 0;       // unique within the run
  uint64_t parent = 0;   // 0 marks a root
  std::string name;
  uint64_t start_ns = 0;  // obs DefaultClock() time, as the engine's spans
  uint64_t end_ns = 0;
  Counters counters;  // counts taken at this boundary
};

// Not thread-safe: each caller thread owns one log. Ids come from a
// process-wide counter, so logs merge without clashes.
class SpanLog {
 public:
  static uint64_t NewRequestId();

  // Records a finished span and returns its id.
  uint64_t Add(uint64_t request, uint64_t parent, std::string name,
               uint64_t start_ns, uint64_t end_ns, Counters counters = {});
  // Copies an engine trace beneath span `parent`, keeping its shape.
  void AddTrace(uint64_t request, uint64_t parent, const tklus::Trace& trace);

  std::vector<SpanRecord>& spans() { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

// Self time of a span: its duration minus the part of it its children
// cover. Returns total self nanoseconds per span name.
std::map<std::string, uint64_t> SelfTimes(
    const std::vector<SpanRecord>& spans);

// Writes one JSON object per span, one per line.
void WriteSpans(const std::vector<SpanRecord>& spans, std::ostream& out);

}  // namespace tklusbench

#endif  // TKLUSBENCH_SPANS_H_
