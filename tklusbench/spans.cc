#include "spans.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

namespace tklusbench {

namespace {

std::atomic<uint64_t> next_span_id{1};
std::atomic<uint64_t> next_request_id{1};

}  // namespace

uint64_t SpanLog::NewRequestId() {
  return next_request_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SpanLog::Add(uint64_t request, uint64_t parent, std::string name,
                      uint64_t start_ns, uint64_t end_ns, Counters counters) {
  const uint64_t id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  spans_.push_back(SpanRecord{request, id, parent, std::move(name), start_ns,
                              std::max(start_ns, end_ns),
                              std::move(counters)});
  return id;
}

void SpanLog::AddTrace(uint64_t request, uint64_t parent,
                       const tklus::Trace& trace) {
  // Trace ids are 1-based indexes and every parent precedes its child.
  std::vector<uint64_t> ids(trace.spans.size() + 1, 0);
  for (const tklus::TraceSpan& s : trace.spans) {
    const uint64_t up = s.parent == 0 ? parent : ids[s.parent];
    Counters counters(s.counters.begin(), s.counters.end());
    ids[s.id] = Add(request, up, s.name, s.start_ns,
                    s.start_ns + s.duration_ns, std::move(counters));
  }
}

std::map<std::string, uint64_t> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, uint64_t> self;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<uint64_t, uint64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const uint64_t b = std::max(c->start_ns, s.start_ns);
        const uint64_t e = std::min(c->end_ns, s.end_ns);
        if (b < e) cover.emplace_back(b, e);
      }
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t reach = 0;
    for (const auto& [b, e] : cover) {
      const uint64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    self[s.name] += (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void WriteSpans(const std::vector<SpanRecord>& spans, std::ostream& out) {
  for (const SpanRecord& s : spans) {
    out << "{\"request\":" << s.request << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"counters\":{";
    for (size_t i = 0; i < s.counters.size(); ++i) {
      out << (i ? "," : "") << '"' << s.counters[i].first
          << "\":" << s.counters[i].second;
    }
    out << "}}\n";
  }
}

}  // namespace tklusbench
