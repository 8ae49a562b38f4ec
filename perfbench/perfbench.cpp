// atlc_perfbench: the repository benchmark's program (perfbench/NOTES.md).
//
// One invocation runs one workload on one seed:
//
//   atlc_perfbench --workload lcc-rmat16-cached --seed 1 --seconds 12
//                  --trace 0 --work-dir DIR [--state-dir DIR]
//
// The seed generates R-MAT scale-16 edge lists that are written to DIR as
// SNAP text before anything is timed; from then on the library sees only
// those files. The untraced run (--trace 0) measures the end-to-end metrics
// on four graphs and on both clocks: host seconds (setup, the analytic
// call) and the modeled virtual seconds. The traced run (--trace 1)
// records spans in this file around calls into each module's public
// functions and derives the per-layer split from them; nothing inside the
// library is instrumented.
// It also serves a Zipf query stream under updates on the same graph, for
// the serve and stream layers. Every run checks every output against a
// single-node reference, and the last stdout line is one JSON object:
// correct, attempted, failed, metrics.
//
//   atlc_perfbench --self-test
//
// shows on a small graph that the output check passes the engine's answers
// and flags one corrupted LCC value and one corrupted top-k entry.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "atlc/core/edge_pipeline.hpp"
#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/ingest/pipeline.hpp"
#include "atlc/ingest/snapshot.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/rma/runtime.hpp"
#include "atlc/serve/query_engine.hpp"
#include "atlc/serve/workload.hpp"
#include "atlc/stream/update.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/recorder.hpp"

namespace {

using namespace atlc;
using Clock = std::chrono::steady_clock;
using graph::VertexId;

constexpr std::uint32_t kRanks = 4;
constexpr unsigned kRmatScale = 16;
constexpr unsigned kRmatEdgeFactor = 16;
constexpr double kCacheFraction = 0.5;  // CLaMPI budget, share of CSR bytes
constexpr double kMiB = 1024.0 * 1024.0;
/// Graphs per untraced run, each from its own seed: host and virtual time
/// vary from graph to graph, and their mean varies less.
constexpr std::uint32_t kGraphsPerRun = 4;
/// Setups per graph in an untraced run; setup_s is the median of all.
constexpr int kSetupReps = 2;

/// Helper threads (ingest parsing, the serve reference): one per core, and
/// no more than the 4 rank threads the engine runs.
int host_threads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, kRanks));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans: host-clock intervals around calls into the library, kept in memory
// and written out when the run ends. Untraced runs pass a null log; timing
// itself is identical either way.

class SpanLog {
 public:
  /// Run `f` inside a span named `name` (child of the innermost open span)
  /// and return its host seconds. A null log only times.
  template <typename F>
  static double time(SpanLog* log, const char* name, F&& f) {
    if (log == nullptr) {
      const auto t0 = Clock::now();
      f();
      return seconds_since(t0);
    }
    const std::size_t id = log->open(name);
    f();
    return log->close(id);
  }

  /// Chrome trace-event JSON (complete events, microseconds) plus each
  /// span's self time: its duration minus what its child spans cover.
  void write(const std::string& path) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
    util::Json events = util::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      util::Json e = util::Json::object();
      e["name"] = s.name;
      e["ph"] = "X";
      e["pid"] = 0;
      e["tid"] = 0;
      e["ts"] = s.start_s * 1e6;
      e["dur"] = (s.end_s - s.start_s) * 1e6;
      e["args"]["id"] = static_cast<std::uint64_t>(i);
      e["args"]["parent"] = s.parent;
      e["args"]["self_s"] = s.end_s - s.start_s - child_s[i];
      events.push_back(std::move(e));
    }
    util::Json doc = util::Json::object();
    doc["traceEvents"] = std::move(events);
    std::ofstream(path) << doc.dump(1) << '\n';
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  std::size_t open(const char* name) {
    spans_.push_back({name, open_, now_s(), 0.0});
    open_ = static_cast<int>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  double close(std::size_t id) {
    Span& s = spans_[id];
    s.end_s = now_s();
    open_ = s.parent;
    return s.end_s - s.start_s;
  }
  double now_s() const { return seconds_since(t0_); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---------------------------------------------------------------------------
// Output checks behind `failed`. Each returns the number of outputs that
// differ from the reference; doubles must match bit for bit.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One output per vertex: its triangle count and its LCC score.
std::uint64_t lcc_failures(std::span<const std::uint64_t> triangles,
                           std::span<const double> lcc,
                           const graph::LccResult& ref) {
  const std::size_t n = ref.lcc.size();
  if (lcc.size() != n || triangles.size() != n) return n;
  std::uint64_t bad = 0;
  for (std::size_t v = 0; v < n; ++v)
    if (triangles[v] != ref.triangles[v] || !same_bits(lcc[v], ref.lcc[v]))
      ++bad;
  return bad;
}

bool same_answer(const serve::QueryAnswer& a, const serve::QueryAnswer& ref) {
  if (a.rejected || a.kind != ref.kind || a.v != ref.v) return false;
  if (a.kind == serve::QueryKind::Lcc) return same_bits(a.lcc, ref.lcc);
  if (a.topk.size() != ref.topk.size()) return false;
  for (std::size_t i = 0; i < a.topk.size(); ++i)
    if (a.topk[i].v != ref.topk[i].v ||
        !same_bits(a.topk[i].score, ref.topk[i].score))
      return false;
  return true;
}

/// One output per submitted query; a rejected query counts as failed.
std::uint64_t serve_failures(const serve::ServeResult& r,
                             const std::vector<serve::QueryAnswer>& ref) {
  if (r.answers.size() != ref.size()) return ref.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (!same_answer(r.answers[i], ref[i])) ++bad;
  return bad;
}

/// answer_reference for every query, each on its epoch's snapshot: the base
/// edge list with batches 0..e-1 applied (stream::apply_to_edge_list).
/// A query repeated within an epoch has one answer, so each distinct
/// (kind, v, k) is answered once, by host_threads() threads.
void serve_reference(const graph::EdgeList& base,
                       std::span<const serve::ServeEpoch> epochs,
                       std::vector<serve::QueryAnswer>& out) {
  out.clear();
  graph::EdgeList edges = base;
  for (const serve::ServeEpoch& ep : epochs) {
    const graph::CSRGraph g = graph::CSRGraph::from_edges(edges);
    std::map<std::tuple<serve::QueryKind, VertexId, std::uint32_t>,
             std::size_t>
        slot_of;
    std::vector<serve::Query> distinct;
    std::vector<std::size_t> slot;
    for (const serve::Query& q : ep.queries) {
      const std::uint32_t k = q.kind == serve::QueryKind::Lcc ? 0 : q.k;
      const auto [it, fresh] =
          slot_of.try_emplace({q.kind, q.v, k}, distinct.size());
      if (fresh) distinct.push_back(q);
      slot.push_back(it->second);
    }
    std::vector<serve::QueryAnswer> answers(distinct.size());
    std::atomic<std::size_t> next{0};
    {
      std::vector<std::jthread> workers;
      for (int t = 0; t < host_threads(); ++t)
        workers.emplace_back([&] {
          for (std::size_t i; (i = next++) < distinct.size();)
            answers[i] = serve::answer_reference(g, distinct[i]);
        });
    }
    for (const std::size_t i : slot) out.push_back(answers[i]);
    stream::apply_to_edge_list(edges, ep.updates);
  }
}

// ---------------------------------------------------------------------------
// Determinism fingerprints: every virtual-clock figure and count of a run,
// serialised with round-trip precision. Two runs of one seed must match.

util::Json cache_json(std::span<const clampi::CacheStats> ranks) {
  util::Json a = util::Json::array();
  for (const auto& s : ranks) a.push_back(util::to_json(s));
  return a;
}

util::Json comm_json(const rma::Runtime::Result& run) {
  util::Json a = util::Json::array();
  for (const auto& s : run.stats) a.push_back(util::to_json(s));
  return a;
}

util::Json doubles_json(std::span<const double> v) {
  util::Json a = util::Json::array();
  for (const double x : v) a.push_back(x);
  return a;
}

std::string fingerprint(const core::RunResult& r) {
  util::Json j = util::Json::object();
  j["makespan"] = r.run.makespan;
  j["busy_clocks"] = doubles_json(r.busy_clocks);
  j["comm"] = comm_json(r.run);
  j["offsets_cache"] = cache_json(r.offsets_cache_ranks);
  j["adj_cache"] = cache_json(r.adj_cache_ranks);
  j["edges_processed"] = r.edges_processed;
  j["remote_edges"] = r.remote_edges;
  j["global_triangles"] = r.global_triangles;
  return j.dump(0);
}

std::string fingerprint(const serve::ServeResult& r) {
  util::Json j = util::Json::object();
  j["build_makespan"] = r.build_makespan;
  j["serve_makespan"] = r.serve_makespan;
  j["latencies"] = doubles_json(r.stats.latencies);
  j["comm"] = comm_json(r.stats.run);
  j["offsets_cache"] = cache_json(r.stats.offsets_cache_ranks);
  j["adj_cache"] = cache_json(r.stats.adj_cache_ranks);
  util::Json hot = util::Json::array();
  for (const auto& h : r.hot_cache_ranks) hot.push_back(util::to_json(h));
  j["hot_cache"] = std::move(hot);
  util::Json epochs = util::Json::array();
  for (const serve::EpochOutcome& e : r.epochs) {
    util::Json o = util::Json::object();
    o["accepted"] = e.accepted;
    o["hot_hits"] = e.hot_hits;
    o["insertions"] = e.effective_insertions;
    o["deletions"] = e.effective_deletions;
    o["rows_rebuilt"] = e.rows_rebuilt;
    o["query_makespan"] = e.query_makespan;
    o["update_makespan"] = e.update_makespan;
    epochs.push_back(std::move(o));
  }
  j["epochs"] = std::move(epochs);
  j["edges_processed"] = r.stats.edges_processed;
  j["remote_edges"] = r.stats.remote_edges;
  return j.dump(0);
}

/// Compare `fp` with the first fingerprint recorded for this workload and
/// seed in `state_dir` (recording it when there is none). An empty
/// state_dir skips the cross-run check.
bool matches_first_run(const std::string& state_dir, const std::string& key,
                       const std::string& fp) {
  if (state_dir.empty()) return true;
  namespace fs = std::filesystem;
  const fs::path path = fs::path(state_dir) / (key + ".fingerprint");
  if (std::ifstream in{path}) {
    std::stringstream first;
    first << in.rdbuf();
    return first.str() == fp;
  }
  fs::create_directories(state_dir);
  const fs::path tmp = path.string() + ".tmp";
  std::ofstream(tmp) << fp;
  fs::rename(tmp, path);
  return true;
}

// ---------------------------------------------------------------------------
// Workloads and their configuration.

struct Workload {
  const char* name;
  bool cached;  ///< both CLaMPI windows on
};

constexpr Workload kWorkloads[] = {
    {"lcc-rmat16-cached", true},
    {"lcc-rmat16-uncached", false},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".";
  std::string state_dir;
};

/// Graph `i` of a run, written as SNAP text: R-MAT seed `seed + (i << 32)`,
/// so graph 0 of --seed s is R-MAT seed s and no two runs share a graph.
struct Input {
  std::uint64_t rmat_seed = 0;
  std::string stem;
  std::string text;
  std::string snapshot;

  void remove() const {
    std::filesystem::remove(text);
    std::filesystem::remove(snapshot);
  }
};

Input write_input(const Args& args, std::uint32_t i) {
  Input in;
  in.rmat_seed = args.seed + (std::uint64_t{i} << 32);
  in.stem = (std::filesystem::path(args.work_dir) /
             ("rmat16-" + std::to_string(in.rmat_seed)))
                .string();
  in.text = in.stem + ".txt";
  in.snapshot = in.stem + ".snap";
  std::filesystem::create_directories(args.work_dir);
  // The seed makes the input file; the library reads only the file.
  const graph::EdgeList raw = graph::generate_rmat(
      {.scale = kRmatScale,
       .edge_factor = kRmatEdgeFactor,
       .seed = in.rmat_seed});
  graph::save_text_edges(raw, in.text);
  return in;
}

/// The graph as a user holds it after setup: the snapshot reader (the
/// static engine's slice source), the cleaned edge list and its CSR.
struct Ready {
  std::unique_ptr<ingest::SnapshotReader> reader;
  graph::EdgeList edges;
  graph::CSRGraph g;
  double ingest_s = 0.0;  ///< run_ingest
  double load_s = 0.0;    ///< SnapshotReader + read_all + from_edges
};

Ready setup(const Input& in, SpanLog* log) {
  ingest::IngestOptions opts;
  opts.ranks = kRanks;
  opts.relabel_seed = in.rmat_seed;
  opts.num_threads = host_threads();
  Ready r;
  SpanLog::time(log, "setup", [&] {
    r.ingest_s = SpanLog::time(log, "ingest.run_ingest", [&] {
      (void)ingest::run_ingest(in.text, in.snapshot, opts);
    });
    r.load_s = SpanLog::time(log, "graph.load", [&] {
      r.reader = std::make_unique<ingest::SnapshotReader>(in.snapshot);
      r.edges = r.reader->read_all();
      r.g = graph::CSRGraph::from_edges(r.edges);
    });
  });
  return r;
}

core::CacheSizing cache_sizing(const graph::CSRGraph& g) {
  const double budget = kCacheFraction * static_cast<double>(g.csr_bytes());
  return core::CacheSizing::paper_default(
      g.num_vertices(), static_cast<std::uint64_t>(budget));
}

/// The static engine: 4 ranks, Block1D, depth 2, Tier::Paper and the
/// default CostModel{} (never calibrate(), so virtual time is a pure
/// function of the input). Cached runs use the degree victim scores.
core::EngineConfig lcc_config(const Ready& ready, bool cached) {
  core::EngineConfig cfg;
  cfg.slice_source = ready.reader.get();
  if (cached) {
    cfg.use_cache = true;
    cfg.cache_sizing = cache_sizing(ready.g);
    cfg.victim_policy = clampi::VictimPolicy::UserScore;
  }
  return cfg;
}

/// The serving pass of the traced run: hot cache and admission bound of
/// 1,024, CLaMPI as the workload sets it with the default victim policy.
serve::ServeOptions serve_options(const graph::CSRGraph& g, bool cached) {
  serve::ServeOptions opts;
  opts.engine.use_cache = cached;
  opts.engine.cache_sizing = cache_sizing(g);
  opts.admission_capacity = 1024;
  opts.hot_cache.entries = 1024;
  return opts;
}

/// 6 epochs x 1,024 Zipf(1.2) queries (default kind mix, top-k 8), each
/// epoch closed by a 256-update batch of 70% inserts.
std::vector<serve::ServeEpoch> serve_stream(const graph::CSRGraph& g,
                                            std::uint64_t seed) {
  serve::QueryWorkloadConfig wc;
  wc.num_epochs = 6;
  wc.queries_per_epoch = 1024;
  wc.zipf_skew = 1.2;
  wc.topk = 8;
  wc.batch_size = 256;
  wc.insert_fraction = 0.7;
  wc.seed = seed;
  return serve::generate_query_stream(g, wc);
}

std::string state_key(const Workload& w, const char* part,
                      std::uint64_t seed) {
  return std::string(w.name) + part + "-seed" + std::to_string(seed);
}

// ---------------------------------------------------------------------------
// Metrics.

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, printed by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"virtual_makespan_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, printed by every traced run. The CLaMPI counters
/// of a workload with caching off read 0.
constexpr MetricSpec kPerLayer[] = {
    {"ingest.host_s", "s"},
    {"ingest.mb_per_s", "MB/s"},
    {"graph.load_host_s", "s"},
    {"core.build_host_s", "s"},
    {"core.edges", "count"},
    {"core.remote_edge_frac", "ratio"},
    {"core.imbalance", "ratio"},
    {"core.other_s", "s"},
    {"fetch.host_s", "s"},
    {"fetch.split_match", "bool"},
    {"rma.remote_gets", "count"},
    {"rma.remote_mb", "MB"},
    {"rma.comm_vs", "virtual_s"},
    {"clampi.adj_hit_rate", "ratio"},
    {"clampi.offsets_hit_rate", "ratio"},
    {"clampi.evictions", "count"},
    {"clampi.stale_evictions", "count"},
    {"intersect.host_s", "s"},
    {"intersect.calls", "count"},
    {"intersect.elems", "count"},
    {"intersect.compute_vs", "virtual_s"},
    {"intersect.model_ratio", "ratio"},
    {"serve.run_host_s", "s"},
    {"serve.makespan_vs", "virtual_s"},
    {"query_p50_vs", "virtual_s"},
    {"query_p99_vs", "virtual_s"},
    {"serve.answered", "count"},
    {"serve.hot_hit_rate", "ratio"},
    {"serve.hot_stale_misses", "count"},
    {"serve.query_vs", "virtual_s"},
    {"serve.queries_host_s", "s"},
    {"stream.effective_updates", "count"},
    {"stream.rows_rebuilt", "count"},
    {"stream.update_vs", "virtual_s"},
    {"stream.updates_host_s", "s"},
    {"reference.host_s", "s"},
    {"reference.speedup", "x"},
    {"trace.overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

/// Metric values by name, emitted in the order of a spec table; a metric
/// that was not set is left out.
class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  template <std::size_t N>
  [[nodiscard]] util::Json json(const MetricSpec (&specs)[N]) const {
    util::Json doc = util::Json::object();
    for (const MetricSpec& s : specs) {
      const auto it = values_.find(s.name);
      if (it == values_.end()) continue;
      util::Json m = util::Json::object();
      m["value"] = it->second;
      m["unit"] = s.unit;
      doc[s.name] = std::move(m);
    }
    return doc;
  }

 private:
  std::map<std::string, double> values_;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;

  /// Count one checked call: `bad` of its `outputs` failed the output
  /// check, and all of them fail when its fingerprint does not match.
  void count(std::uint64_t outputs, std::uint64_t bad, bool deterministic) {
    attempted += outputs;
    failed += deterministic ? bad : outputs;
  }
};

// ---------------------------------------------------------------------------
// References.

/// reference_lcc's loop — intersect::count_common(Hybrid) over every (v, j)
/// pair, then graph::lcc_score — split by the Block1D partition over one
/// thread per rank via rma::Runtime::run, reading the global CSR (no
/// fetch). Each rank times its own loop. Its outputs equal reference_lcc's
/// bit for bit (the traced run checks this), so untraced runs use it as
/// their reference at a quarter of the wall time.
struct Replay {
  graph::LccResult out;
  double rank_s_sum = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t elems = 0;
};

Replay intersect_replay(const graph::CSRGraph& g) {
  const graph::Partition part =
      graph::make_partition(g, graph::PartitionKind::Block1D, kRanks);
  Replay r;
  r.out.triangles.assign(g.num_vertices(), 0);
  r.out.lcc.assign(g.num_vertices(), 0.0);
  struct Tally {
    double seconds = 0.0;
    std::uint64_t calls = 0, elems = 0;
  };
  std::vector<Tally> per(kRanks);
  rma::Runtime::Options opts;
  opts.ranks = kRanks;
  (void)rma::Runtime::run(opts, [&](rma::RankCtx& ctx) {
    const std::uint32_t rank = ctx.rank();
    Tally& p = per[rank];
    const auto t0 = Clock::now();
    for (VertexId lv = 0; lv < part.part_size(rank); ++lv) {
      const VertexId v = part.global_id(rank, lv);
      const auto adj_v = g.neighbors(v);
      std::uint64_t t = 0;
      for (const VertexId j : adj_v) {
        const auto adj_j = g.neighbors(j);
        t += intersect::count_common(adj_v, adj_j, intersect::Method::Hybrid);
        ++p.calls;
        p.elems += adj_v.size() + adj_j.size();
      }
      r.out.triangles[v] = t;  // ranks own disjoint vertices
      r.out.lcc[v] = graph::lcc_score(t, g.degree(v));
    }
    p.seconds = seconds_since(t0);
  });
  for (const Tally& p : per) {
    r.rank_s_sum += p.seconds;
    r.calls += p.calls;
    r.elems += p.elems;
  }
  return r;
}

// ---------------------------------------------------------------------------
// The analytic call both runs time: run_distributed_lcc on the ready graph,
// slices read from the snapshot.

struct Call {
  double host_s = 0.0;
  core::RunResult result;
  std::uint64_t failed = 0;  ///< vertices whose output differs from ref
  std::string fingerprint;
};

Call lcc_call(const Ready& ready, bool cached, const graph::LccResult& ref,
              SpanLog* log) {
  const core::EngineConfig cfg = lcc_config(ready, cached);
  Call c;
  c.host_s = SpanLog::time(log, "core.run_distributed_lcc", [&] {
    c.result = core::run_distributed_lcc(ready.g, kRanks, cfg);
  });
  c.failed = lcc_failures(c.result.triangles, c.result.lcc, ref);
  c.fingerprint = fingerprint(c.result);
  return c;
}

/// Untraced run, over kGraphsPerRun graphs: set each up kSetupReps times,
/// then repeat the analytic call for its share of --seconds (at least
/// once). setup_s is the median setup; run_s and virtual_makespan_s are
/// means over the graphs, run_s of each graph's median call.
void run_untraced(const Workload& w, const Args& args, Outcome& out) {
  std::vector<double> setup_s, run_s, makespan;
  for (std::uint32_t i = 0; i < kGraphsPerRun; ++i) {
    const Input in = write_input(args, i);
    Ready ready;
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t0 = Clock::now();
      ready = setup(in, nullptr);
      setup_s.push_back(seconds_since(t0));
    }
    const graph::LccResult ref = intersect_replay(ready.g).out;

    std::vector<double> calls;
    std::string first;
    const auto t0 = Clock::now();
    while (calls.empty() || seconds_since(t0) < args.seconds / kGraphsPerRun) {
      const Call c = lcc_call(ready, w.cached, ref, nullptr);
      calls.push_back(c.host_s);
      // Determinism guard: a call whose virtual figures or counts differ
      // from the first call on this graph (in this process or an earlier
      // one) fails every output it produced.
      const bool same =
          first.empty() ? matches_first_run(args.state_dir,
                                            state_key(w, "", in.rmat_seed),
                                            c.fingerprint)
                        : c.fingerprint == first;
      out.count(ref.lcc.size(), c.failed, same);
      if (first.empty()) {
        first = c.fingerprint;
        makespan.push_back(c.result.run.makespan);
      }
    }
    run_s.push_back(median(calls));
    in.remove();
  }
  out.correct = out.failed == 0;

  out.metrics.set("setup_s", median(setup_s));
  out.metrics.set("run_s", mean(run_s));
  out.metrics.set("virtual_makespan_s", mean(makespan));
  out.metrics.set("peak_rss_mb",
                  static_cast<double>(ingest::peak_rss_bytes()) / kMiB);
  for (const auto& [label, v] :
       {std::pair{"setup_s", &setup_s}, std::pair{"run_s", &run_s},
        std::pair{"virtual_makespan_s", &makespan}}) {
    std::fprintf(stderr, "# %s:", label);
    for (const double x : *v) std::fprintf(stderr, " %.4f", x);
    std::fprintf(stderr, "\n");
  }
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer split.

double max_of(const rma::Runtime::Result& run,
              double rma::CommStats::*field) {
  double m = 0.0;
  for (const auto& s : run.stats) m = std::max(m, s.*field);
  return m;
}

/// The static engine with an empty rank body: partition, hub replica,
/// build_dist_graph, cache allocation and thread spawn.
core::EdgeAnalyticStats build_only(const graph::CSRGraph& g,
                                   const core::EngineConfig& cfg) {
  return core::run_edge_analytic(
      g, kRanks, cfg, {}, graph::PartitionKind::Block1D,
      [](rma::RankCtx&, const core::DistGraph&, core::EdgePipeline&) {});
}

/// The static engine fetching every adjacency (rma gets, CLaMPI lookups and
/// inserts, the prefetch ring) with a kernel that does nothing.
core::EdgeAnalyticStats fetch_only(const graph::CSRGraph& g,
                                   const core::EngineConfig& cfg) {
  return core::run_edge_analytic(
      g, kRanks, cfg, {}, graph::PartitionKind::Block1D,
      [](rma::RankCtx&, const core::DistGraph&, core::EdgePipeline& p) {
        p.run([](VertexId, VertexId, std::span<const VertexId>,
                 std::span<const VertexId>) {});
      });
}

/// True when the no-op-kernel run reproduced the real run's fetch side:
/// every CacheStats field of both windows on every rank, and every rank's
/// CommStats::remote_gets.
bool same_fetches(const core::EdgeAnalyticStats& a,
                  const core::EdgeAnalyticStats& b) {
  if (cache_json(a.offsets_cache_ranks).dump(0) !=
          cache_json(b.offsets_cache_ranks).dump(0) ||
      cache_json(a.adj_cache_ranks).dump(0) !=
          cache_json(b.adj_cache_ranks).dump(0) ||
      a.run.stats.size() != b.run.stats.size())
    return false;
  for (std::size_t r = 0; r < a.run.stats.size(); ++r)
    if (a.run.stats[r].remote_gets != b.run.stats[r].remote_gets) return false;
  return true;
}

/// The serve and stream layers: serve::QueryEngine over serve_stream() on
/// the ready graph, then the same stream with every batch emptied
/// (queries only), with every query list emptied (updates only) and with
/// no epochs (graph build and window setup, subtracted from both).
void serve_pass(const Workload& w, const Args& args, const Ready& ready,
                SpanLog& log, Outcome& out) {
  const std::vector<serve::ServeEpoch> epochs =
      serve_stream(ready.g, args.seed);
  std::vector<serve::QueryAnswer> ref;
  SpanLog::time(&log, "reference.answer_reference",
                [&] { serve_reference(ready.edges, epochs, ref); });

  const serve::QueryEngine engine(ready.g, serve_options(ready.g, w.cached));
  serve::ServeResult r;
  const double run_s = SpanLog::time(&log, "serve.QueryEngine::run",
                                     [&] { r = engine.run(epochs, kRanks); });
  out.count(ref.size(), serve_failures(r, ref),
            matches_first_run(args.state_dir, state_key(w, "-serve", args.seed),
                              fingerprint(r)));

  std::vector<serve::ServeEpoch> queries_only = epochs;
  for (auto& e : queries_only) e.updates.clear();
  std::vector<serve::ServeEpoch> updates_only = epochs;
  for (auto& e : updates_only) e.queries.clear();
  const double build_s = SpanLog::time(&log, "serve.build_only", [&] {
    (void)engine.run(std::span<const serve::ServeEpoch>{}, kRanks);
  });
  const double queries_s = SpanLog::time(&log, "serve.queries_only", [&] {
    (void)engine.run(queries_only, kRanks);
  });
  const double updates_s = SpanLog::time(&log, "stream.updates_only", [&] {
    (void)engine.run(updates_only, kRanks);
  });

  double query_vs = 0.0, update_vs = 0.0;
  std::uint64_t effective = 0, rows = 0;
  for (const serve::EpochOutcome& e : r.epochs) {
    query_vs += e.query_makespan;
    update_vs += e.update_makespan;
    effective += e.effective_insertions + e.effective_deletions;
    rows += e.rows_rebuilt;
  }
  const clampi::CacheStats& adj = r.stats.adj_cache_total;
  const clampi::CacheStats& offs = r.stats.offsets_cache_total;
  Metrics& m = out.metrics;
  m.set("serve.run_host_s", run_s);
  m.set("serve.makespan_vs", r.serve_makespan);
  m.set("query_p50_vs", r.stats.latency_percentile(50));
  m.set("query_p99_vs", r.stats.latency_percentile(99));
  m.set("serve.answered", static_cast<double>(r.stats.answered));
  m.set("serve.hot_hit_rate", r.hot_cache_total.hit_rate());
  m.set("serve.hot_stale_misses",
        static_cast<double>(r.hot_cache_total.stale_misses));
  m.set("serve.query_vs", query_vs);
  m.set("serve.queries_host_s", queries_s - build_s);
  m.set("stream.effective_updates", static_cast<double>(effective));
  m.set("stream.rows_rebuilt", static_cast<double>(rows));
  m.set("stream.update_vs", update_vs);
  m.set("stream.updates_host_s", updates_s - build_s);
  // Only the serve pass refreshes windows, so only it can evict stale
  // CLaMPI entries.
  m.set("clampi.stale_evictions",
        static_cast<double>(adj.stale_evictions + offs.stale_evictions));
}

/// Traced run, on graph 0 of the seed.
void run_traced(const Workload& w, const Args& args, Outcome& out) {
  SpanLog log;
  const Input in = write_input(args, 0);
  const Ready ready = setup(in, &log);
  const double text_mb =
      static_cast<double>(std::filesystem::file_size(in.text)) / kMiB;
  graph::LccResult ref;
  const double reference_s = SpanLog::time(
      &log, "reference.reference_lcc",
      [&] { ref = graph::reference_lcc(ready.g); });

  // The same call untraced and traced; their ratio is the span overhead.
  const Call untraced = lcc_call(ready, w.cached, ref, nullptr);
  const Call call = lcc_call(ready, w.cached, ref, &log);
  const bool same =
      untraced.fingerprint == call.fingerprint &&
      matches_first_run(args.state_dir, state_key(w, "", in.rmat_seed),
                        call.fingerprint);
  out.count(ref.lcc.size(), untraced.failed, same);
  out.count(ref.lcc.size(), call.failed, same);

  const core::EngineConfig cfg = lcc_config(ready, w.cached);
  const double build_s = SpanLog::time(
      &log, "core.build_only", [&] { (void)build_only(ready.g, cfg); });
  core::EdgeAnalyticStats fetched;
  const double fetch_s =
      SpanLog::time(&log, "fetch.noop_kernel",
                    [&] { fetched = fetch_only(ready.g, cfg); }) -
      build_s;
  const bool split_ok = same_fetches(fetched, call.result);
  Replay replay;
  const double intersect_s = SpanLog::time(
      &log, "intersect.replay", [&] { replay = intersect_replay(ready.g); });
  if (lcc_failures(replay.out.triangles, replay.out.lcc, ref) != 0)
    out.correct = false;

  SpanLog::time(&log, "serve_pass",
                [&] { serve_pass(w, args, ready, log, out); });

  const core::RunResult& r = call.result;
  const rma::CommStats total = r.run.total();
  const clampi::CacheStats& adj = r.adj_cache_total;
  const clampi::CacheStats& offs = r.offsets_cache_total;
  Metrics& m = out.metrics;
  m.set("ingest.host_s", ready.ingest_s);
  m.set("ingest.mb_per_s", text_mb / ready.ingest_s);
  m.set("graph.load_host_s", ready.load_s);
  m.set("core.build_host_s", build_s);
  m.set("core.edges", static_cast<double>(r.edges_processed));
  m.set("core.remote_edge_frac", r.remote_edge_fraction());
  m.set("core.imbalance", r.imbalance());
  // A split whose no-op kernel did not reproduce the real fetches is
  // withheld rather than published.
  if (split_ok) {
    m.set("fetch.host_s", fetch_s);
    m.set("core.other_s", call.host_s - (build_s + fetch_s + intersect_s));
  }
  m.set("fetch.split_match", split_ok ? 1.0 : 0.0);
  m.set("rma.remote_gets", static_cast<double>(total.remote_gets));
  m.set("rma.remote_mb", static_cast<double>(total.remote_bytes) / kMiB);
  m.set("rma.comm_vs", max_of(r.run, &rma::CommStats::comm_seconds));
  m.set("clampi.adj_hit_rate", adj.hit_rate());
  m.set("clampi.offsets_hit_rate", offs.hit_rate());
  m.set("clampi.evictions",
        static_cast<double>(adj.evictions_space + adj.evictions_conflict +
                            offs.evictions_space + offs.evictions_conflict));
  m.set("intersect.host_s", intersect_s);
  m.set("intersect.calls", static_cast<double>(replay.calls));
  m.set("intersect.elems", static_cast<double>(replay.elems));
  m.set("intersect.compute_vs",
        max_of(r.run, &rma::CommStats::compute_seconds));
  m.set("intersect.model_ratio", total.compute_seconds / replay.rank_s_sum);
  m.set("reference.host_s", reference_s);
  m.set("reference.speedup", reference_s / call.host_s);
  m.set("trace.overhead_frac", call.host_s / untraced.host_s - 1.0);
  m.set("failed_frac",
        static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  out.correct = out.correct && out.failed == 0;
  log.write(in.stem + "-" + w.name + ".trace.json");
  in.remove();
}

// ---------------------------------------------------------------------------
// Self-test of the output check.

bool self_test() {
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    std::printf("self-test: %-46s %s\n", what, cond ? "ok" : "FAILED");
    ok = ok && cond;
  };
  // failed_frac of one call whose outputs had `bad` check failures.
  const auto failed_frac = [](std::uint64_t outputs, std::uint64_t bad,
                              bool deterministic) {
    Outcome o;
    o.count(outputs, bad, deterministic);
    return static_cast<double>(o.failed) / static_cast<double>(o.attempted);
  };
  graph::EdgeList edges = graph::generate_rmat({.scale = 10, .seed = 7});
  graph::clean(edges, {});
  const graph::CSRGraph g = graph::CSRGraph::from_edges(edges);

  core::EngineConfig cfg;
  cfg.use_cache = true;
  core::RunResult r = core::run_distributed_lcc(g, kRanks, cfg);
  const graph::LccResult ref = graph::reference_lcc(g);
  const std::size_t n = ref.lcc.size();
  expect(failed_frac(n, lcc_failures(r.triangles, r.lcc, ref), true) == 0.0,
         "engine LCC: failed_frac = 0");
  const auto victim = std::find_if(r.lcc.begin(), r.lcc.end(),
                                   [](double x) { return x > 0.0; });
  expect(victim != r.lcc.end(), "graph has a vertex with LCC > 0");
  if (victim != r.lcc.end()) {
    *victim = std::nextafter(*victim, 2.0);
    expect(failed_frac(n, lcc_failures(r.triangles, r.lcc, ref), true) > 0.0,
           "one corrupted LCC value: failed_frac > 0");
  }
  expect(failed_frac(n, 0, false) == 1.0,
         "nondeterministic call: failed_frac = 1");

  serve::QueryWorkloadConfig wc;
  wc.num_epochs = 2;
  wc.queries_per_epoch = 64;
  wc.batch_size = 16;
  wc.seed = 7;
  const auto epochs = serve::generate_query_stream(g, wc);
  serve::ServeResult s = serve::run_query_stream(g, epochs, kRanks);
  std::vector<serve::QueryAnswer> answers;
  serve_reference(edges, epochs, answers);
  const std::size_t q = answers.size();
  expect(failed_frac(q, serve_failures(s, answers), true) == 0.0,
         "engine answers: failed_frac = 0");
  const auto topk = std::find_if(s.answers.begin(), s.answers.end(),
                                 [](const auto& a) { return !a.topk.empty(); });
  expect(topk != s.answers.end(), "stream has a non-empty top-k answer");
  if (topk != s.answers.end()) {
    topk->topk.back().v ^= 1u;
    expect(failed_frac(q, serve_failures(s, answers), true) > 0.0,
           "one corrupted top-k entry: failed_frac > 0");
    topk->topk.back().v ^= 1u;
  }
  s.answers.front().rejected = true;
  expect(failed_frac(q, serve_failures(s, answers), true) > 0.0,
         "one rejected query: failed_frac > 0");
  return ok;
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "atlc_perfbench: %s\nusage: atlc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--state-dir DIR] | --self-test\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") a.work_dir = value;
      else if (flag == "--state-dir") a.state_dir = value;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.self_test) return self_test() ? 0 : 1;
  const auto w = std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const Workload& x) { return args.workload == x.name; });
  if (w == std::end(kWorkloads)) usage("unknown or missing --workload");

  Outcome out;
  if (args.trace)
    run_traced(*w, args, out);
  else
    run_untraced(*w, args, out);

  util::Json doc = util::Json::object();
  doc["correct"] = out.correct;
  doc["attempted"] = out.attempted;
  doc["failed"] = out.failed;
  doc["metrics"] =
      args.trace ? out.metrics.json(kPerLayer) : out.metrics.json(kEndToEnd);
  std::printf("%s\n", doc.dump(0).c_str());
  return 0;
}
