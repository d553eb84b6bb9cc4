// The TkLUS benchmark (README.md). One run builds one workload's inputs
// from --seed, drives the program through its public API for --seconds,
// checks every answer against NaiveScanner, and prints its metrics; the
// last line of standard output is one JSON object.
//
//   tklusbench --workload serve-small|ingest-mix|cold-large --seed N
//              --seconds S --trace 0|1 [--workdir DIR] [--plant-fault]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from a run with spans recorded (written to DIR/../spans-WORKLOAD.jsonl).
// --plant-fault perturbs one checked answer, so the run must fail: the
// self-test uses it to show that a wrong answer fails the command.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baseline/naive_scan.h"
#include "check.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/query_workload.h"
#include "datagen/tweet_generator.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "server/server.h"
#include "spans.h"

namespace {

using namespace tklus;
using tklusbench::Counters;
using tklusbench::Median;
using tklusbench::SpanLog;
using tklusbench::SpanRecord;
namespace fs = std::filesystem;

// ---- Fixed make-up of the inputs (README.md "Inputs") -------------------

constexpr uint64_t kCorpusSeed = 42;  // every workload's dataset
constexpr size_t kSmallPosts = 60000;       // serve-small corpus
constexpr size_t kIngestHeadPosts = 40000;  // ingest-mix: built + saved
constexpr size_t kIngestBurstPosts = 10000;  // back-to-back phase
constexpr size_t kBatchPosts = 200;          // one AppendBatch
constexpr double kBatchPeriodS = 0.1;        // scheduled phase: 10 batches/s
constexpr size_t kLargePosts = 300000;       // cold-large corpus
constexpr int kSetups = 3;                   // setup_s: median of three
constexpr int kServeCallers = 2;             // in-process and wire loops
constexpr int kIngestReaders = 2;            // beside one writer thread
constexpr int kColdReaders = 2;
constexpr int kQueriesPerGroup = 10;  // per keyword count per mix cell
constexpr int kColdRounds = 16;      // cold-large: distinct query rounds
constexpr int kColdPerGroup = 5;     // of kColdPerGroup queries per group
constexpr size_t kColdChecked = 100;  // cold-large: seeded oracle sample
constexpr int kWireDeadlineS = 5;    // per wire call, send and receive
const double kRadiiKm[] = {5.0, 10.0, 20.0, 50.0, 100.0};  // Fig. 8

uint64_t NowNs() { return DefaultClock()->NowNanos(); }
double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}
double MsBetween(uint64_t a, uint64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

uint64_t Mix(uint64_t a, uint64_t b) {  // splitmix64 step over a ^ b
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

// Heap bytes the program holds (malloc's in-use arena bytes plus
// mmapped chunks). Unlike the resident set it does not move with how
// fragmented the arenas of the build's worker threads happen to be.
double HeapMiB() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double RssMiB() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uint64_t FileBytes(const fs::path& file) {
  std::error_code ec;
  const uint64_t size = fs::file_size(file, ec);
  return ec ? 0 : size;
}

// Process-wide program counters read as deltas around a phase.
uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name, name)->Value();
}

// ---- Operation accounting -----------------------------------------------

enum Op {
  kBuild,
  kServerStart,
  kQuery,
  kWire,
  kAppend,
  kMerge,
  kSave,
  kOpen,
  kNumOps
};
const char* const kOpNames[kNumOps] = {"build",  "server_start", "query",
                                       "wire",   "append",       "merge",
                                       "save",   "open"};

struct OpCounts {
  std::atomic<uint64_t> attempted[kNumOps] = {};
  std::atomic<uint64_t> failed[kNumOps] = {};

  // Counts one call; returns `ok` so call sites can branch on it.
  bool Count(Op op, bool ok, const Status& status = Status::Ok()) {
    attempted[op].fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      failed[op].fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "tklusbench: %s failed: %s\n", kOpNames[op],
                   status.ToString().c_str());
    }
    return ok;
  }
  uint64_t Total(const std::atomic<uint64_t>* counts) const {
    uint64_t total = 0;
    for (int i = 0; i < kNumOps; ++i) total += counts[i].load();
    return total;
  }
};

OpCounts ops;

// ---- Metrics and checks -------------------------------------------------

// Metrics are added by the workload's main thread; checks may be counted
// from caller threads.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::mutex mu;
  std::vector<std::string> check_failures;  // guarded by mu
  std::atomic<size_t> checked{0};

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Counts one checked answer; `diff` empty means it agreed.
  void Check(const std::string& diff, const std::string& what) {
    ++checked;
    if (!diff.empty()) Fail(what + ": " + diff);
  }
  void Fail(std::string what) {
    std::lock_guard<std::mutex> lock(mu);
    check_failures.push_back(std::move(what));
  }
};

// Read after setup and warm-up, before the oracle is built.
void AddMemoryMetrics(Report* report) {
  report->Add("heap_mb", HeapMiB(), "MiB");
  std::printf("# resident set: %.1f MiB\n", RssMiB());
}

// ---- Query mix ----------------------------------------------------------

// The §VI-B1 mix (1, 2 and 3 keywords, datagen::MakeQueryWorkload) in
// every cell of radius (Fig. 8 sweep) × ranking × semantics, each cell
// with its own workload seed derived from --seed and the round.
std::vector<TkLusQuery> QueryMix(const datagen::GeneratedCorpus& corpus,
                                 uint64_t seed, int round,
                                 int queries_per_group) {
  std::vector<TkLusQuery> mix;
  int cell = 0;
  for (const double radius : kRadiiKm) {
    for (const Ranking ranking : {Ranking::kSum, Ranking::kMax}) {
      for (const Semantics sem : {Semantics::kOr, Semantics::kAnd}) {
        datagen::WorkloadOptions options;
        options.seed = Mix(Mix(seed, static_cast<uint64_t>(round)),
                           static_cast<uint64_t>(cell++));
        options.queries_per_group = queries_per_group;
        options.radius_km = radius;
        options.ranking = ranking;
        options.semantics = sem;
        for (TkLusQuery& q : datagen::MakeQueryWorkload(corpus, options)) {
          mix.push_back(std::move(q));
        }
      }
    }
  }
  return mix;
}

datagen::GeneratedCorpus MakeCorpus(uint64_t seed, size_t posts) {
  datagen::TweetGenerator::Options options;
  options.seed = seed;
  options.num_tweets = posts;
  options.num_users = std::max<size_t>(200, posts / 40);
  options.num_cities = 8;
  return datagen::TweetGenerator::Generate(options);
}

Dataset Slice(const Dataset& all, size_t begin, size_t end) {
  Dataset out;
  end = std::min(end, all.size());
  for (size_t i = begin; i < end; ++i) out.Add(all.posts()[i]);
  return out;
}

// ---- Per-query statistics -----------------------------------------------

struct QueryTotals {
  uint64_t queries = 0;
  uint64_t cover_cells = 0, postings_lists = 0, candidates = 0,
           within_radius = 0, threads_built = 0, threads_pruned = 0;
  uint64_t max_queries = 0, max_built = 0, max_pruned = 0;
  uint64_t phi_hits = 0, phi_misses = 0, fallback_rows = 0;
  uint64_t db_page_reads = 0, dfs_block_reads = 0, dfs_read_retries = 0;

  void Add(const TkLusQuery& q, const QueryStats& s) {
    ++queries;
    cover_cells += s.cover_cells;
    postings_lists += s.postings_lists_fetched;
    candidates += s.candidates;
    within_radius += s.within_radius;
    threads_built += s.threads_built;
    threads_pruned += s.threads_pruned;
    if (q.ranking == Ranking::kMax) {
      ++max_queries;
      max_built += s.threads_built;
      max_pruned += s.threads_pruned;
    }
    phi_hits += s.popularity_cache_hits;
    phi_misses += s.popularity_cache_misses;
    fallback_rows += s.sid_store_fallback_rows;
    db_page_reads += s.db_page_reads;
    dfs_block_reads += s.dfs_block_reads;
    dfs_read_retries += s.dfs_read_retries;
  }
  void Merge(const QueryTotals& o) {
    queries += o.queries;
    cover_cells += o.cover_cells;
    postings_lists += o.postings_lists;
    candidates += o.candidates;
    within_radius += o.within_radius;
    threads_built += o.threads_built;
    threads_pruned += o.threads_pruned;
    max_queries += o.max_queries;
    max_built += o.max_built;
    max_pruned += o.max_pruned;
    phi_hits += o.phi_hits;
    phi_misses += o.phi_misses;
    fallback_rows += o.fallback_rows;
    db_page_reads += o.db_page_reads;
    dfs_block_reads += o.dfs_block_reads;
    dfs_read_retries += o.dfs_read_retries;
  }
};

Counters StatCounters(const QueryStats& s) {
  return {{"cover_cells", s.cover_cells},
          {"postings_lists", s.postings_lists_fetched},
          {"candidates", s.candidates},
          {"within_radius", s.within_radius},
          {"threads_built", s.threads_built},
          {"threads_pruned", s.threads_pruned},
          {"db_page_reads", s.db_page_reads},
          {"dfs_block_reads", s.dfs_block_reads}};
}

// First answer to each distinct query, kept by whichever caller gets there
// first. A slot is read only once no caller can still be writing it: after
// the loop's threads have joined, or when it was filled before the loop.
class AnswerSlots {
 public:
  explicit AnswerSlots(size_t n) : users_(n), claimed_(n) {}
  // Keeps `users` if query i has no answer yet; returns whether it did.
  bool Offer(size_t i, const std::vector<RankedUser>& users) {
    bool expected = false;
    if (!claimed_[i].compare_exchange_strong(expected, true)) return false;
    users_[i] = users;
    return true;
  }
  bool Has(size_t i) const { return claimed_[i].load(); }
  std::vector<RankedUser>& At(size_t i) { return users_[i]; }
  size_t size() const { return users_.size(); }

 private:
  std::vector<std::vector<RankedUser>> users_;
  std::vector<std::atomic<bool>> claimed_;
};

// ---- Closed loops -------------------------------------------------------

// A traced query, expanded into spans once the loop has ended so that
// the copy does not slow the traced loop.
struct TracedCall {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  QueryStats stats;  // holds the engine's span tree
};

struct Caller {
  int index = 0;
  std::vector<TracedCall> traced;
  std::vector<double> latency_ms;
  std::vector<uint64_t> done_ns;    // completion time of each success
  std::vector<double> server_ms;    // wire loops: WireResponse::server_ms
  std::vector<double> overhead_ms;  // wire loops: round trip - server_ms
  QueryTotals totals;
  SpanLog log;
};

constexpr double kWindowS = 1.0;  // throughput is the median window's

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> window_qps;  // completions per whole kWindowS window
  std::vector<double> server_ms;
  std::vector<double> overhead_ms;
  QueryTotals totals;
  std::vector<SpanRecord> spans;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t completed = 0;
  uint64_t issued = 0;  // calls started, failed ones included

  double Qps() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
  // Throughput of the median window: a burst of interference from outside
  // the process moves one window, not the figure.
  double MedianWindowQps() const {
    return window_qps.size() >= 3 ? Median(window_qps) : Qps();
  }
};

// Runs `callers` threads, each issuing its next call only after the
// previous one returned, until `seconds` have passed. Calls take query
// indexes from one shared counter (mod `num_queries`), so every caller
// walks the same stream. `call` returns whether the call succeeded; a
// successful call pushes its latency into the caller.
LoopResult ClosedLoop(int callers, double seconds, size_t num_queries,
                      const std::function<bool(Caller&, size_t)>& call) {
  std::atomic<uint64_t> next{0};
  std::vector<Caller> state(static_cast<size_t>(callers));
  const double cpu0 = CpuSeconds();
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    state[static_cast<size_t>(c)].index = c;
    threads.emplace_back([&, c] {
      Caller& me = state[static_cast<size_t>(c)];
      while (NowNs() < deadline) {
        const size_t i = next.fetch_add(1) % num_queries;
        if (call(me, i)) me.done_ns.push_back(NowNs());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.issued = next.load();
  out.wall_s = SecondsSince(start);
  out.cpu_s = CpuSeconds() - cpu0;
  out.window_qps.assign(static_cast<size_t>(out.wall_s / kWindowS), 0.0);
  for (Caller& c : state) {
    for (const uint64_t t : c.done_ns) {
      const auto w = static_cast<size_t>(
          static_cast<double>(t - start) * 1e-9 / kWindowS);
      if (w < out.window_qps.size()) out.window_qps[w] += 1.0 / kWindowS;
    }
    out.completed += c.latency_ms.size();
    out.latency_ms.insert(out.latency_ms.end(), c.latency_ms.begin(),
                          c.latency_ms.end());
    out.server_ms.insert(out.server_ms.end(), c.server_ms.begin(),
                         c.server_ms.end());
    out.overhead_ms.insert(out.overhead_ms.end(), c.overhead_ms.begin(),
                           c.overhead_ms.end());
    out.totals.Merge(c.totals);
    for (const TracedCall& t : c.traced) {
      const uint64_t request = SpanLog::NewRequestId();
      const uint64_t id = c.log.Add(request, 0, t.name, t.start_ns, t.end_ns,
                                    StatCounters(t.stats));
      if (t.stats.trace) c.log.AddTrace(request, id, *t.stats.trace);
    }
    auto& spans = c.log.spans();
    out.spans.insert(out.spans.end(), std::make_move_iterator(spans.begin()),
                     std::make_move_iterator(spans.end()));
  }
  return out;
}

// With `compare_repeats`, an answer to a query already answered must equal
// the kept one exactly; only for slots filled before any concurrent call.
template <typename Engine>
bool EngineCall(Engine& engine, const char* span_name, Caller& me,
                const TkLusQuery& base, bool trace, size_t index,
                AnswerSlots* answers, Report* report,
                bool compare_repeats = false) {
  TkLusQuery q = base;
  q.trace = trace;
  const uint64_t t0 = NowNs();
  auto result = engine.Query(q);
  const uint64_t t1 = NowNs();
  if (!ops.Count(kQuery, result.ok(), result.status())) return false;
  me.latency_ms.push_back(MsBetween(t0, t1));
  me.totals.Add(q, result->stats);
  if constexpr (std::is_same_v<Engine, ShardedEngine>) {
    if (result->degraded) report->Fail("degraded in-process answer");
  }
  if (answers != nullptr && !answers->Offer(index, result->users) &&
      compare_repeats) {
    report->Check(tklusbench::CompareExact(result->users, answers->At(index)),
                  "repeated answer " + std::to_string(index));
  }
  if (trace) me.traced.push_back({span_name, t0, t1, result->stats});
  return true;
}

// ---- Per-layer folding --------------------------------------------------

struct RegistrySnapshot {
  uint64_t pool_hits = CounterValue("tklus_buffer_pool_hits_total");
  uint64_t pool_misses = CounterValue("tklus_buffer_pool_misses_total");
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Query-side per-layer metrics of one traced loop: stage self times from
// the spans, counts from QueryStats, buffer-pool counter deltas.
void AddQueryLayers(const LoopResult& traced, const RegistrySnapshot& before,
                    const RegistrySnapshot& after, Report* report) {
  const auto self = tklusbench::SelfTimes(traced.spans);
  const auto self_us = [&](const char* stage) {
    const auto it = self.find(stage);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) * 1e-3;
  };
  const double n = static_cast<double>(traced.totals.queries);
  const char* const stages[] = {stage::kCover,
                                stage::kPostingsFetch,
                                stage::kSidResolve,
                                stage::kThreadConstruction,
                                stage::kScoreTopk,
                                stage::kShardFetch,
                                stage::kShardMerge};
  double stage_sum_us = 0.0;
  for (const char* s : stages) {
    stage_sum_us += self_us(s);
    report->Add(std::string("core.") + s + "_us", Ratio(self_us(s), n), "us");
  }
  double root_us = 0.0;
  for (const SpanRecord& s : traced.spans) {
    if (s.name == stage::kQuery) {
      root_us += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    }
  }
  report->Add("core.stage_coverage", Ratio(stage_sum_us, root_us), "ratio");
  const QueryTotals& t = traced.totals;
  const auto per_query = [&](uint64_t v) {
    return Ratio(static_cast<double>(v), n);
  };
  report->Add("core.cover_cells", per_query(t.cover_cells), "count");
  report->Add("core.postings_lists", per_query(t.postings_lists), "count");
  report->Add("core.candidates", per_query(t.candidates), "count");
  report->Add("core.within_radius", per_query(t.within_radius), "count");
  report->Add("core.threads_built", per_query(t.threads_built), "count");
  report->Add("core.threads_pruned", per_query(t.threads_pruned), "count");
  report->Add("core.prune_ratio",
              Ratio(static_cast<double>(t.max_pruned),
                    static_cast<double>(t.max_built + t.max_pruned)),
              "ratio");
  report->Add("dfs.block_reads_per_query", per_query(t.dfs_block_reads),
              "count");
  report->Add("dfs.read_retries", static_cast<double>(t.dfs_read_retries),
              "count");
  report->Add("storage.db_page_reads_per_query", per_query(t.db_page_reads),
              "count");
  const double hits = static_cast<double>(after.pool_hits - before.pool_hits);
  const double misses =
      static_cast<double>(after.pool_misses - before.pool_misses);
  // With no page access at all nothing missed: the rate reads 1.
  report->Add("storage.buffer_pool_hit_rate",
              hits + misses > 0 ? hits / (hits + misses) : 1.0, "ratio");
  report->Add("storage.sid_store_fallback_rows",
              static_cast<double>(t.fallback_rows), "count");
  report->Add("social.phi_hit_rate",
              Ratio(static_cast<double>(t.phi_hits),
                    static_cast<double>(t.phi_hits + t.phi_misses)),
              "ratio");
  report->Add("social.threads_built_per_query", per_query(t.threads_built),
              "count");
}

void AddBuildLayers(const std::vector<const IndexBuildStats*>& builds,
                    Report* report) {
  IndexBuildStats sum;
  for (const IndexBuildStats* b : builds) {
    sum.map_seconds += b->map_seconds;
    sum.shuffle_seconds += b->shuffle_seconds;
    sum.reduce_seconds += b->reduce_seconds;
    sum.write_seconds += b->write_seconds;
    sum.inverted_bytes += b->inverted_bytes;
    sum.forward_bytes += b->forward_bytes;
  }
  report->Add("index.inverted_bytes", static_cast<double>(sum.inverted_bytes),
              "bytes");
  report->Add("index.forward_bytes", static_cast<double>(sum.forward_bytes),
              "bytes");
  report->Add("mapreduce.map_s", sum.map_seconds, "s");
  report->Add("mapreduce.shuffle_s", sum.shuffle_seconds, "s");
  report->Add("mapreduce.reduce_s", sum.reduce_seconds, "s");
  report->Add("mapreduce.write_s", sum.write_seconds, "s");
}

void AddTraceOverhead(const LoopResult& untraced, const LoopResult& traced,
                      Report* report) {
  report->Add("obs.untraced_engine_qps", untraced.Qps(), "1/s");
  report->Add("obs.traced_engine_qps", traced.Qps(), "1/s");
  report->Add("obs.trace_overhead", 1.0 - Ratio(traced.Qps(), untraced.Qps()),
              "ratio");
}

// End-to-end latency figures of one untraced loop.
void AddEngineMetrics(const LoopResult& loop, Report* report) {
  report->Add("engine_qps", loop.MedianWindowQps(), "1/s");
  std::printf("# latency over %zu queries: p90 %.4g ms, p99 %.4g ms\n",
              loop.latency_ms.size(),
              tklusbench::Percentile(loop.latency_ms, 0.90).value_or(0.0),
              tklusbench::Percentile(loop.latency_ms, 0.99).value_or(0.0));
  std::printf("# queries per %g s window:", kWindowS);
  for (const double w : loop.window_qps) std::printf(" %.0f", w);
  std::printf("\n");
  report->Add("engine_p50_ms", Median(loop.latency_ms), "ms");
  const auto p95 = tklusbench::Percentile(loop.latency_ms, 0.95);
  if (p95) {
    report->Add("engine_p95_ms", *p95, "ms");
  } else {
    report->Fail("engine_p95_ms undefined: " +
                 std::to_string(loop.latency_ms.size()) +
                 " samples leave fewer than ten beyond p95");
  }
}

// ---- Oracle -------------------------------------------------------------

// Checks answers[i] (for every i with `want(i)`) against NaiveScanner over
// exactly `posts`.
void CheckAgainstOracle(const Dataset& posts,
                        const std::vector<TkLusQuery>& queries,
                        AnswerSlots& answers, const std::vector<size_t>& which,
                        const char* what, Report* report) {
  NaiveScanner oracle(&posts);
  for (const size_t i : which) {
    if (!answers.Has(i)) continue;
    TkLusQuery all = queries[i];
    all.k = std::numeric_limits<int>::max();
    const QueryResult expected = oracle.Process(all);
    report->Check(tklusbench::CompareWithOracle(answers.At(i), expected.users,
                                                queries[i].k),
                  std::string(what) + " query " + std::to_string(i));
  }
}

std::vector<size_t> AllIndexes(size_t n) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool plant_fault = false;
  std::string workdir = ".bench_build/tklusbench/work";
};

// Perturbs the first non-empty answer among those to be checked, so that
// check must fail.
void PlantFault(const Args& args, AnswerSlots& answers,
                const std::vector<size_t>& checked) {
  if (!args.plant_fault) return;
  for (const size_t i : checked) {
    if (answers.Has(i) && !answers.At(i).empty()) {
      answers.At(i)[0].score += 1e-6;
      return;
    }
  }
}

// ---- serve-small --------------------------------------------------------

int ConnectWithDeadline(int port) {
  auto fd = server::Connect(port);
  if (!ops.Count(kWire, fd.ok(), fd.status())) return -1;
  const timeval deadline{kWireDeadlineS, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
  ::setsockopt(*fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));
  return *fd;
}

void ServeSmall(const Args& args, Report* report,
                std::vector<SpanRecord>* spans) {
  const auto corpus = MakeCorpus(kCorpusSeed, kSmallPosts);
  const std::vector<TkLusQuery> queries =
      QueryMix(corpus, args.seed, 0, kQueriesPerGroup);
  SpanLog setup_log;

  // Setup: sharded Build + server start. The serving setup comes first;
  // setup_s is the median of it and kSetups - 1 more made at the end.
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<server::RequestServer> server;
  std::vector<double> setup_s;
  const auto setup = [&](int round) {
    const fs::path dir =
        fs::path(args.workdir) / ("sharded-" + std::to_string(round));
    fs::remove_all(dir);
    ShardedEngine::Options options;
    options.working_dir = dir.string();
    const uint64_t t0 = NowNs();
    auto built = ShardedEngine::Build(corpus.dataset, options);
    const uint64_t t1 = NowNs();
    if (!ops.Count(kBuild, built.ok(), built.status())) return false;
    engine = std::move(*built);
    auto started = server::RequestServer::Start(engine.get(), {});
    const uint64_t t2 = NowNs();
    if (!ops.Count(kServerStart, started.ok(), started.status())) return false;
    server = std::move(*started);
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    const uint64_t request = SpanLog::NewRequestId();
    setup_log.Add(request, 0, "ShardedEngine::Build", t0, t1);
    setup_log.Add(request, 0, "RequestServer::Start", t1, t2);
    return true;
  };
  if (!setup(0)) return;

  AnswerSlots engine_answers(queries.size());
  const int port = server->port();
  std::vector<int> fds(kServeCallers, -1);
  for (int& fd : fds) fd = ConnectWithDeadline(port);
  const auto wire_call = [&](Caller& me, size_t i) {
    int& fd = fds[static_cast<size_t>(me.index)];
    if (fd < 0 && (fd = ConnectWithDeadline(port)) < 0) return false;
    server::WireRequest request;
    request.query = queries[i];
    const uint64_t t0 = NowNs();
    auto response = server::Call(fd, request);
    const uint64_t t1 = NowNs();
    const bool ok = response.ok() && response->code == 0;
    if (!ops.Count(kWire, ok,
                   response.ok() ? Status::Internal(response->message)
                                 : response.status())) {
      ::close(fd);
      fd = -1;
      return false;
    }
    const double rtt = MsBetween(t0, t1);
    me.latency_ms.push_back(rtt);
    me.server_ms.push_back(response->server_ms);
    me.overhead_ms.push_back(rtt - response->server_ms);
    if (response->degraded) report->Fail("degraded wire answer");
    std::vector<RankedUser> users;
    for (const server::WireUser& u : response->users) {
      users.push_back(RankedUser{static_cast<UserId>(u.uid), u.score, {}});
    }
    report->Check(tklusbench::CompareExact(users, engine_answers.At(i)),
                  "wire answer " + std::to_string(i));
    if (args.trace) {
      me.log.Add(SpanLog::NewRequestId(), 0, "wire_request", t0, t1,
                 {{"server_us", static_cast<uint64_t>(
                                    response->server_ms * 1e3)}});
    }
    return true;
  };
  const auto engine_call = [&](bool trace) {
    return [&, trace](Caller& me, size_t i) {
      return EngineCall(*engine, "ShardedEngine::Query", me, queries[i],
                        trace, i, &engine_answers, report,
                        /*compare_repeats=*/true);
    };
  };
  // Warm-up: every distinct query once in-process; these answers are
  // checked against the oracle, and every later answer, in-process or
  // over the wire, must equal them exactly.
  {
    Caller warm;
    for (size_t i = 0; i < queries.size(); ++i) engine_call(false)(warm, i);
  }
  AddMemoryMetrics(report);

  if (!args.trace) {
    const LoopResult local =
        ClosedLoop(kServeCallers, args.seconds / 2, queries.size(),
                   engine_call(false));
    const LoopResult wire =
        ClosedLoop(kServeCallers, args.seconds / 2, queries.size(), wire_call);
    AddEngineMetrics(local, report);
    std::printf("# wire loop: %.1f requests/s, p50 %.3f ms over %zu requests\n",
                wire.Qps(), Median(wire.latency_ms), wire.latency_ms.size());
  } else {
    const LoopResult local = ClosedLoop(kServeCallers, args.seconds / 3,
                                        queries.size(), engine_call(false));
    const RegistrySnapshot before;
    const LoopResult traced = ClosedLoop(kServeCallers, args.seconds / 3,
                                         queries.size(), engine_call(true));
    const RegistrySnapshot after;
    const LoopResult wire = ClosedLoop(kServeCallers, args.seconds / 3,
                                       queries.size(), wire_call);
    AddQueryLayers(traced, before, after, report);
    AddTraceOverhead(local, traced, report);
    report->Add("server.wire_qps", wire.Qps(), "1/s");
    report->Add("server.wire_p50_ms", Median(wire.latency_ms), "ms");
    // 0 when fewer than ten samples lie beyond p90 (README.md).
    report->Add("server.wire_p90_ms",
                tklusbench::Percentile(wire.latency_ms, 0.90).value_or(0.0),
                "ms");
    report->Add("server.engine_p50_ms", Median(wire.server_ms), "ms");
    report->Add("server.overhead_p50_ms", Median(wire.overhead_ms), "ms");
    report->Add("server.wire_to_engine", Ratio(wire.Qps(), local.Qps()),
                "ratio");
    report->Add("proc.cpu_util", Ratio(wire.cpu_s, wire.wall_s), "ratio");
    std::vector<const IndexBuildStats*> builds;
    for (int s = 0; s < engine->num_shards(); ++s) {
      builds.push_back(&engine->shard(s).index().build_stats());
    }
    AddBuildLayers(builds, report);
    for (const LoopResult* loop : {&traced, &wire}) {
      spans->insert(spans->end(), loop->spans.begin(), loop->spans.end());
    }
  }
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  server.reset();
  engine.reset();

  // The warm-up answers against the oracle.
  PlantFault(args, engine_answers, AllIndexes(queries.size()));
  CheckAgainstOracle(corpus.dataset, queries, engine_answers,
                     AllIndexes(queries.size()), "serve-small", report);
  for (int round = 1; round < kSetups; ++round) {
    if (!setup(round)) return;
    server.reset();
    engine.reset();
  }
  report->Add("setup_s", Median(setup_s), "s");
  auto& setup_spans = setup_log.spans();
  spans->insert(spans->end(), setup_spans.begin(), setup_spans.end());
}

// ---- ingest-mix ---------------------------------------------------------

void IngestMix(const Args& args, Report* report,
               std::vector<SpanRecord>* spans) {
  const size_t scheduled_batches =
      static_cast<size_t>(std::llround(args.seconds / kBatchPeriodS));
  const size_t total_posts = kIngestHeadPosts + kIngestBurstPosts +
                             scheduled_batches * kBatchPosts;
  const auto corpus = MakeCorpus(kCorpusSeed, total_posts);
  const Dataset& all = corpus.dataset;
  const Dataset head = Slice(all, 0, kIngestHeadPosts);
  const std::vector<TkLusQuery> queries =
      QueryMix(corpus, args.seed, 0, kQueriesPerGroup);
  SpanLog log;
  const auto span = [&](const char* name, uint64_t t0, uint64_t t1) {
    log.Add(SpanLog::NewRequestId(), 0, name, t0, t1);
  };

  // Setup: Build over the head + the first Save into its own working
  // directory. The engine of round 0 runs the workload; the other rounds
  // are made at the end, for setup_s only.
  std::vector<double> setup_s;
  const auto setup = [&](int round) -> std::unique_ptr<TkLusEngine> {
    const fs::path round_dir =
        fs::path(args.workdir) / ("engine-" + std::to_string(round));
    fs::remove_all(round_dir);
    fs::create_directories(round_dir);
    TkLusEngine::Options options;
    options.working_dir = round_dir.string();
    const uint64_t t0 = NowNs();
    auto built = TkLusEngine::Build(head, options);
    const uint64_t t1 = NowNs();
    if (!ops.Count(kBuild, built.ok(), built.status())) return nullptr;
    const Status saved = (*built)->Save(round_dir.string());
    const uint64_t t2 = NowNs();
    if (!ops.Count(kSave, saved.ok(), saved)) return nullptr;
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    span("TkLusEngine::Build", t0, t1);
    span("TkLusEngine::Save", t1, t2);
    return std::move(*built);
  };
  std::unique_ptr<TkLusEngine> engine = setup(0);
  if (engine == nullptr) return;
  const fs::path dir = fs::path(args.workdir) / "engine-0";
  const IndexBuildStats build_stats = engine->index().build_stats();
  const uint64_t folds0 = CounterValue("tklus_delta_merges_total");
  const uint64_t fsyncs0 = CounterValue("tklus_wal_fsyncs_total");

  // Warm-up on the head alone; these answers are checked against the
  // oracle over the head.
  AnswerSlots head_answers(queries.size());
  const auto reader = [&](bool trace, AnswerSlots* answers) {
    return [&, trace, answers](Caller& me, size_t i) {
      return EngineCall(*engine, "TkLusEngine::Query", me, queries[i], trace,
                        i, answers, report);
    };
  };
  {
    Caller warm;
    for (size_t i = 0; i < queries.size(); ++i) {
      reader(false, &head_answers)(warm, i);
    }
  }
  AddMemoryMetrics(report);

  LoopResult untraced_base, traced_base;
  if (args.trace) {
    untraced_base = ClosedLoop(kIngestReaders, args.seconds / 4,
                               queries.size(), reader(false, nullptr));
    traced_base = ClosedLoop(kIngestReaders, args.seconds / 4, queries.size(),
                             reader(true, nullptr));
  }

  // Acked batches, in order: [begin, end) into `all`.
  std::vector<std::pair<size_t, size_t>> acked;
  const auto append = [&](size_t begin, uint64_t* t_start, uint64_t* t_end) {
    const Dataset batch = Slice(all, begin, begin + kBatchPosts);
    *t_start = NowNs();
    const Status st = engine->AppendBatch(batch);
    *t_end = NowNs();
    span("TkLusEngine::AppendBatch", *t_start, *t_end);
    if (!ops.Count(kAppend, st.ok(), st)) return false;
    acked.emplace_back(begin, begin + batch.size());
    return true;
  };

  // Phase 1: back-to-back appends, no readers.
  const fs::path wal_path = dir / "wal.log";
  uint64_t wal_growth = 0;
  size_t wal_growth_posts = 0;
  const uint64_t burst0 = NowNs();
  for (size_t at = kIngestHeadPosts;
       at < kIngestHeadPosts + kIngestBurstPosts; at += kBatchPosts) {
    const uint64_t before = FileBytes(wal_path);
    uint64_t t0 = 0, t1 = 0;
    if (!append(at, &t0, &t1)) continue;
    const uint64_t after = FileBytes(wal_path);
    if (after > before) {  // a fold's checkpoint may have truncated it
      wal_growth += after - before;
      wal_growth_posts += kBatchPosts;
    }
  }
  const double burst_s = SecondsSince(burst0);
  size_t burst_acked = 0;
  for (const auto& [b, e] : acked) burst_acked += e - b;

  // Phase 2: one batch due every kBatchPeriodS while closed-loop readers
  // run the query mix; ack time counts from when the batch was due.
  std::vector<double> ack_ms, call_ms, lag_ms;
  const uint64_t sched0 = NowNs();
  std::thread writer([&] {
    for (size_t j = 0; j < scheduled_batches; ++j) {
      const uint64_t due =
          sched0 + static_cast<uint64_t>(static_cast<double>(j) *
                                         kBatchPeriodS * 1e9);
      const uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      uint64_t t0 = 0, t1 = 0;
      const size_t begin =
          kIngestHeadPosts + kIngestBurstPosts + j * kBatchPosts;
      if (!append(begin, &t0, &t1)) continue;
      ack_ms.push_back(MsBetween(due, t1));
      call_ms.push_back(MsBetween(t0, t1));
      lag_ms.push_back(MsBetween(due, std::max(due, t0)));
    }
  });
  const RegistrySnapshot before;
  const LoopResult readers = ClosedLoop(kIngestReaders, args.seconds,
                                        queries.size(),
                                        reader(args.trace, nullptr));
  const RegistrySnapshot after;
  writer.join();
  const uint64_t folds = CounterValue("tklus_delta_merges_total") - folds0;
  const uint64_t fsyncs = CounterValue("tklus_wal_fsyncs_total") - fsyncs0;

  // End: drop the engine without a Save and reopen it, which replays the
  // WAL tail past the last checkpoint.
  engine.reset();
  const uint64_t replayed0 = CounterValue("tklus_wal_recovered_records_total");
  const uint64_t open0 = NowNs();
  auto reopened = TkLusEngine::Open(dir.string());
  const uint64_t open1 = NowNs();
  span("TkLusEngine::Open", open0, open1);
  const uint64_t replayed =
      CounterValue("tklus_wal_recovered_records_total") - replayed0;
  if (!ops.Count(kOpen, reopened.ok(), reopened.status())) return;
  engine = std::move(*reopened);

  if (!args.trace) {
    AddEngineMetrics(readers, report);
  } else {
    AddQueryLayers(readers, before, after, report);
    AddTraceOverhead(untraced_base, traced_base, report);
    report->Add("proc.cpu_util", Ratio(readers.cpu_s, readers.wall_s),
                "ratio");
    AddBuildLayers({&build_stats}, report);
    report->Add("ingest.posts_per_s",
                Ratio(static_cast<double>(burst_acked), burst_s), "1/s");
    report->Add("ingest.append_p50_ms", Median(ack_ms), "ms");
    report->Add("ingest.schedule_lag_p50_ms", Median(lag_ms), "ms");
    report->Add("storage.append_call_p50_ms", Median(call_ms), "ms");
    report->Add("storage.wal_bytes_per_post",
                Ratio(static_cast<double>(wal_growth),
                      static_cast<double>(wal_growth_posts)),
                "bytes");
    report->Add("storage.wal_fsyncs_per_batch",
                Ratio(static_cast<double>(fsyncs),
                      static_cast<double>(acked.size())),
                "count");
    report->Add("storage.reopen_s", static_cast<double>(open1 - open0) * 1e-9,
                "s");
    report->Add("storage.reopen_replayed_records",
                static_cast<double>(replayed), "count");
    report->Add("merge.folds", static_cast<double>(folds), "count");
    spans->insert(spans->end(), traced_base.spans.begin(),
                  traced_base.spans.end());
    spans->insert(spans->end(), readers.spans.begin(), readers.spans.end());
  }
  std::printf("# ingest: %zu batches acked, %llu WAL records replayed on "
              "reopen in %.3f s, %llu folds\n",
              acked.size(), static_cast<unsigned long long>(replayed),
              static_cast<double>(open1 - open0) * 1e-9,
              static_cast<unsigned long long>(folds));

  // Checks: the head answers against the oracle over the head; after
  // reopen, every distinct query against the oracle over every acked post,
  // and every acked batch visible.
  PlantFault(args, head_answers, AllIndexes(queries.size()));
  CheckAgainstOracle(head, queries, head_answers, AllIndexes(queries.size()),
                     "ingest-mix (head)", report);
  Dataset acked_posts = head;
  for (const auto& [b, e] : acked) {
    for (size_t i = b; i < e; ++i) acked_posts.Add(all.posts()[i]);
  }
  AnswerSlots final_answers(queries.size());
  {
    Caller check;
    for (size_t i = 0; i < queries.size(); ++i) {
      EngineCall(*engine, "TkLusEngine::Query", check, queries[i], false, i,
                 &final_answers, report);
    }
  }
  CheckAgainstOracle(acked_posts, queries, final_answers,
                     AllIndexes(queries.size()), "ingest-mix (reopened)",
                     report);
  const Status merged = engine->MergeNow();
  if (ops.Count(kMerge, merged.ok(), merged)) {
    if (engine->sid_store().entry_count() != acked_posts.size()) {
      report->Fail("reopened engine holds " +
                   std::to_string(engine->sid_store().entry_count()) +
                   " posts, " + std::to_string(acked_posts.size()) +
                   " were acked");
    }
    for (const auto& [b, e] : acked) {
      if (!engine->sid_store().Resolve(all.posts()[b].sid) ||
          !engine->sid_store().Resolve(all.posts()[e - 1].sid)) {
        report->Fail("acked batch at post " + std::to_string(b) +
                     " not visible after reopen");
      }
    }
  }
  const uint64_t s0 = NowNs();
  const Status saved = engine->Save(dir.string());
  span("TkLusEngine::Save", s0, NowNs());
  if (ops.Count(kSave, saved.ok(), saved) && args.trace) {
    report->Add("storage.checkpoint_bytes_per_post",
                Ratio(static_cast<double>(DirBytes(dir)),
                      static_cast<double>(acked_posts.size())),
                "bytes");
  }
  engine.reset();
  for (int round = 1; round < kSetups; ++round) {
    if (setup(round) == nullptr) return;
  }
  report->Add("setup_s", Median(setup_s), "s");
  auto& own = log.spans();
  spans->insert(spans->end(), own.begin(), own.end());
}

// ---- cold-large ---------------------------------------------------------

void ColdLarge(const Args& args, Report* report,
               std::vector<SpanRecord>* spans) {
  const auto corpus = MakeCorpus(kCorpusSeed, kLargePosts);
  // Distinct queries only: rounds of the mix, each with its own seeds,
  // interleaved so that every prefix of the stream holds each cell of the
  // mix (radius × ranking × semantics × keyword count) in equal shares.
  std::vector<std::vector<TkLusQuery>> strata;
  for (int round = 1; round <= kColdRounds; ++round) {
    const std::vector<TkLusQuery> mix =
        QueryMix(corpus, args.seed, round, kColdPerGroup);
    strata.resize(mix.size() / kColdPerGroup);
    for (size_t i = 0; i < mix.size(); ++i) {
      strata[i / kColdPerGroup].push_back(mix[i]);
    }
  }
  std::vector<TkLusQuery> queries;
  for (size_t j = 0; j < strata[0].size(); ++j) {
    for (const auto& stratum : strata) queries.push_back(stratum[j]);
  }
  const std::vector<TkLusQuery> warmup = QueryMix(corpus, args.seed, 0, 1);
  SpanLog log;

  // Setup: Build. Round 0 serves; the other rounds are made at the end.
  std::vector<double> setup_s;
  const auto setup = [&](int round) -> std::unique_ptr<TkLusEngine> {
    const fs::path dir =
        fs::path(args.workdir) / ("large-" + std::to_string(round));
    fs::remove_all(dir);
    fs::create_directories(dir);
    TkLusEngine::Options options;
    options.working_dir = dir.string();
    const uint64_t t0 = NowNs();
    auto built = TkLusEngine::Build(corpus.dataset, options);
    const uint64_t t1 = NowNs();
    if (!ops.Count(kBuild, built.ok(), built.status())) return nullptr;
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    log.Add(SpanLog::NewRequestId(), 0, "TkLusEngine::Build", t0, t1);
    return std::move(*built);
  };
  std::unique_ptr<TkLusEngine> engine = setup(0);
  if (engine == nullptr) return;
  {
    Caller warm;
    for (const TkLusQuery& q : warmup) {
      EngineCall(*engine, "TkLusEngine::Query", warm, q, false, 0, nullptr,
                 report);
    }
  }
  AddMemoryMetrics(report);

  AnswerSlots answers(queries.size());
  // Each loop starts where the stream stands, so no query repeats.
  size_t issued = 0;
  const auto loop = [&](bool trace, double seconds) {
    const size_t offset = issued;
    LoopResult r = ClosedLoop(
        kColdReaders, seconds, queries.size() - offset,
        [&, trace, offset](Caller& me, size_t i) {
          return EngineCall(*engine, "TkLusEngine::Query", me,
                            queries[offset + i], trace, offset + i, &answers,
                            report);
        });
    issued += r.issued;
    return r;
  };
  if (!args.trace) {
    AddEngineMetrics(loop(false, args.seconds), report);
  } else {
    const LoopResult untraced = loop(false, args.seconds / 2);
    const RegistrySnapshot before;
    const LoopResult traced = loop(true, args.seconds / 2);
    const RegistrySnapshot after;
    AddQueryLayers(traced, before, after, report);
    AddTraceOverhead(untraced, traced, report);
    report->Add("proc.cpu_util", Ratio(untraced.cpu_s, untraced.wall_s),
                "ratio");
    AddBuildLayers({&engine->index().build_stats()}, report);
    spans->insert(spans->end(), traced.spans.begin(), traced.spans.end());
  }
  if (issued >= queries.size()) {
    report->Fail("cold-large ran out of distinct queries");
  }

  // Checks: a seeded sample of the answered queries.
  std::vector<size_t> sample;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (answers.Has(i)) sample.push_back(i);
  }
  std::shuffle(sample.begin(), sample.end(), std::mt19937_64(args.seed));
  sample.resize(std::min(sample.size(), kColdChecked));
  PlantFault(args, answers, sample);
  CheckAgainstOracle(corpus.dataset, queries, answers, sample, "cold-large",
                     report);
  engine.reset();
  for (int round = 1; round < kSetups; ++round) {
    if (setup(round) == nullptr) return;
  }
  report->Add("setup_s", Median(setup_s), "s");
  auto& own = log.spans();
  spans->insert(spans->end(), own.begin(), own.end());
}

// ---- Per-layer names every traced run reports ---------------------------

// A layer a workload does not exercise did no work there: it reads 0.
const char* const kLayerMetrics[][2] = {
    {"server.wire_qps", "1/s"},
    {"server.wire_p50_ms", "ms"},
    {"server.wire_p90_ms", "ms"},
    {"server.engine_p50_ms", "ms"},
    {"server.overhead_p50_ms", "ms"},
    {"server.wire_to_engine", "ratio"},
    {"proc.cpu_util", "ratio"},
    {"core.cover_us", "us"},
    {"core.postings_fetch_us", "us"},
    {"core.sid_resolve_us", "us"},
    {"core.thread_construction_us", "us"},
    {"core.score_topk_us", "us"},
    {"core.shard_fetch_us", "us"},
    {"core.shard_merge_us", "us"},
    {"core.stage_coverage", "ratio"},
    {"core.cover_cells", "count"},
    {"core.postings_lists", "count"},
    {"core.candidates", "count"},
    {"core.within_radius", "count"},
    {"core.threads_built", "count"},
    {"core.threads_pruned", "count"},
    {"core.prune_ratio", "ratio"},
    {"dfs.block_reads_per_query", "count"},
    {"dfs.read_retries", "count"},
    {"index.inverted_bytes", "bytes"},
    {"index.forward_bytes", "bytes"},
    {"storage.db_page_reads_per_query", "count"},
    {"storage.buffer_pool_hit_rate", "ratio"},
    {"storage.sid_store_fallback_rows", "count"},
    {"storage.wal_bytes_per_post", "bytes"},
    {"storage.wal_fsyncs_per_batch", "count"},
    {"storage.append_call_p50_ms", "ms"},
    {"storage.reopen_s", "s"},
    {"storage.reopen_replayed_records", "count"},
    {"storage.checkpoint_bytes_per_post", "bytes"},
    {"ingest.posts_per_s", "1/s"},
    {"ingest.append_p50_ms", "ms"},
    {"ingest.schedule_lag_p50_ms", "ms"},
    {"social.phi_hit_rate", "ratio"},
    {"social.threads_built_per_query", "count"},
    {"mapreduce.map_s", "s"},
    {"mapreduce.shuffle_s", "s"},
    {"mapreduce.reduce_s", "s"},
    {"mapreduce.write_s", "s"},
    {"merge.folds", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.untraced_engine_qps", "1/s"},
    {"obs.traced_engine_qps", "1/s"},
};
const char* const kEndToEndMetrics[] = {"setup_s", "heap_mb", "engine_qps",
                                        "engine_p50_ms", "engine_p95_ms"};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Prints the human-readable lines and then the result line. Returns the
// exit code: 0 only when every check passed and nothing failed.
int Finish(const Args& args, Report& report) {
  std::map<std::string, Report::Metric> by_name;
  for (const Report::Metric& m : report.metrics) by_name[m.name] = m;
  std::vector<Report::Metric> out;
  if (!args.trace) {
    for (const char* name : kEndToEndMetrics) {
      if (const auto it = by_name.find(name); it != by_name.end()) {
        out.push_back(it->second);
      }
    }
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = by_name.find(name);
      out.push_back(it != by_name.end() ? it->second
                                        : Report::Metric{name, 0.0, unit});
    }
  }
  for (const Report::Metric& m : out) {
    std::printf("# %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (int i = 0; i < kNumOps; ++i) {
    if (ops.attempted[i] == 0) continue;
    std::printf("# ops %-12s attempted %llu failed %llu\n", kOpNames[i],
                static_cast<unsigned long long>(ops.attempted[i].load()),
                static_cast<unsigned long long>(ops.failed[i].load()));
  }
  std::printf("# checks: %zu answers checked, %zu failures\n",
              report.checked.load(), report.check_failures.size());
  for (size_t i = 0; i < report.check_failures.size() && i < 10; ++i) {
    std::printf("# CHECK FAILED: %s\n", report.check_failures[i].c_str());
  }
  const bool correct = report.check_failures.empty() && report.checked > 0;
  const uint64_t attempted = ops.Total(ops.attempted);
  const uint64_t failed = ops.Total(ops.failed);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--plant-fault") {
      args->plant_fault = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (flag == "--workdir") {
      args->workdir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tklusbench --workload serve-small|ingest-mix|"
                 "cold-large --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--plant-fault]\n");
    return 2;
  }
  using WorkloadFn = void (*)(const Args&, Report*, std::vector<SpanRecord>*);
  const std::map<std::string, WorkloadFn> workloads = {
      {"serve-small", ServeSmall},
      {"ingest-mix", IngestMix},
      {"cold-large", ColdLarge}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "tklusbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  fs::create_directories(args.workdir);
  std::printf("# workload %s seed %llu seconds %g trace %d hardware_threads "
              "%u\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency());
  Report report;
  std::vector<SpanRecord> spans;
  it->second(args, &report, &spans);
  fs::remove_all(args.workdir, ec);
  if (args.trace) {
    const fs::path file = fs::path(args.workdir).parent_path() /
                          ("spans-" + args.workload + ".jsonl");
    std::ofstream out(file);
    tklusbench::WriteSpans(spans, out);
    std::printf("# %zu spans written to %s\n", spans.size(),
                file.string().c_str());
  }
  return Finish(args, report);
}
