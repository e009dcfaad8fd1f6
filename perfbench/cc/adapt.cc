// adapt: one client, Database::Execute, the paper's §V table at paper scale
// with three Index Buffers competing for a bounded space (Exp. 3 ratios)
// and an online tuner on every column. Uncovered point queries draw a
// Zipf-hot value range and a column mix that both shift every phase. The
// first queries run Algorithm 1 and 2 (indexing scans, demotion, promotion,
// tuner adaptation); later ones take the fully-skipped probe path. The
// table fits the page buffer pool, and the run is single-threaded and
// seeded, so its page and entry counts repeat exactly.

#include <cstdio>
#include <stdexcept>

#include "harness.h"

namespace perfbench {
namespace {

constexpr size_t kTuples = 500000;
constexpr size_t kPhaseQueries = 250;
constexpr size_t kHotRanges = 4;
/// The warm-up is the first two cycles through the phases: every hot range
/// and column mix twice, so every indexing scan and each range's first tuner
/// adaptations. (The first 200 queries alone, ~1.3 s of allocation-heavy
/// indexing scans, spread 30% between runs on the reference host; one cycle
/// still spread 22%.)
constexpr size_t kWarmupQueries = 2 * kPhaseQueries * kHotRanges;
constexpr Value kHotRange = 1000;
/// Coprime with kHotRange: scatters Zipf ranks over the hot range so the
/// hottest values are not adjacent.
constexpr Value kRankStride = 379;
constexpr double kZipfTheta = 0.99;

/// The phase-shifting uncovered point-query stream. Phases cycle through
/// kHotRanges seeded hot ranges, so after the first cycle the tuner has
/// indexed each range's hottest values and the stream settles into a
/// recurring mix instead of paying fresh adaptation every phase.
class QueryStream {
 public:
  explicit QueryStream(uint64_t seed)
      : rng_(seed), zipf_(kHotRange, kZipfTheta) {
    for (Value& lo : hot_lo_) {
      lo = static_cast<Value>(
          rng_.Uniform(kCoveredHi + 1, kValueMax - kHotRange + 1));
    }
  }

  aib::Query Next() {
    const size_t phase = count_++ / kPhaseQueries;
    // Column mix 3:2:1, rotated one column per phase.
    std::array<double, kIntColumns> weights{};
    for (int c = 0; c < kIntColumns; ++c) {
      weights[c] = static_cast<double>(
          kIntColumns - static_cast<int>((c + phase) % kIntColumns));
    }
    double u = rng_.Unit() * (weights[0] + weights[1] + weights[2]);
    ColumnId column = 0;
    while (column + 1 < kIntColumns && u >= weights[column]) {
      u -= weights[column];
      ++column;
    }
    const Value rank = static_cast<Value>(zipf_.Sample(&rng_));
    return aib::Query::Point(column, hot_lo_[phase % kHotRanges] +
                                         (rank * kRankStride) % kHotRange);
  }

 private:
  Rng rng_;
  Zipf zipf_;
  size_t count_ = 0;
  std::array<Value, kHotRanges> hot_lo_{};
};

/// FNV-1a over 64-bit words.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

}  // namespace

RunReport RunAdapt(const Args& args) {
  RunReport report;
  Rng rng(args.seed);
  const std::vector<Row> rows = GenerateRows(kTuples, &rng);

  aib::DatabaseOptions options;
  options.space.max_entries = kTuples * 8 / 5;      // L
  options.space.max_pages_per_scan = kTuples / 155;  // I_MAX
  options.buffer.partition_pages = kTuples / 77;     // P
  LoadedDb loaded = BuildDatabase(options, rows, {0, 1, 2});
  aib::Database& db = *loaded.db;
  for (ColumnId c = 0; c < kIntColumns; ++c) {
    const aib::Status status = db.AttachTuner(c, aib::IndexTunerOptions{});
    if (!status.ok()) throw std::runtime_error(status.ToString());
  }
  report.e2e["setup_s"] = SecondsBetween(ProcessStart(), Clock::now());
  report.layer["setup.load_s"] = loaded.load_s;
  report.layer["setup.index_build_s"] = loaded.index_build_s;

  const size_t pages = db.table().PageCount();
  const size_t budget = options.space.max_entries;
  auto indexed_values = [&] {
    size_t n = 0;
    for (ColumnId c = 0; c < kIntColumns; ++c) {
      n += db.GetTuner(c)->IndexedValueCount();
    }
    return static_cast<double>(n);
  };
  // The answer key: the table is read-only here, so every answer is the
  // loaded rows with the queried value.
  const Oracle oracle(rows, loaded.rids);
  const double indexed_before = indexed_values();
  const CounterSnapshot counters_before = db.metrics().counters();

  QueryStream stream(args.seed ^ 0xada97ULL);
  LayerSamples samples;
  Digest digest;
  TimedWindows timed(Clock::time_point::max(), args.seconds);
  double warmup_s = 0;
  std::vector<Rid> side;
  Clock::time_point deadline = Clock::time_point::max();
  for (size_t i = 0;; ++i) {
    if (i == kWarmupQueries) {
      timed = TimedWindows(Clock::now(), args.seconds);
      deadline = timed.start() + std::chrono::seconds(args.seconds);
    }
    if (i >= kWarmupQueries && Clock::now() >= deadline) break;
    const aib::Query query = stream.Next();
    if (args.trace) {
      const Clock::time_point t = Clock::now();
      const auto plan = db.executor()->PlanQuery(query);
      samples.plan_us.Add(MicrosBetween(t, Clock::now()));
    }
    const Clock::time_point start = Clock::now();
    aib::Result<aib::QueryResult> result = db.Execute(query);
    const Clock::time_point end = Clock::now();
    const double us = MicrosBetween(start, end);
    ++report.attempted;
    if (!result.ok()) {
      ++report.failed;
      continue;
    }
    if (i < kWarmupQueries) {
      warmup_s += us / 1e6;
    } else {
      timed.Add(end, us, /*read=*/true);
    }

    const aib::QueryStats& stats = result.value().stats;
    samples.AddRead(stats);
    const size_t hot = db.space()->TotalEntries();
    if (stats.used_index_buffer && !ScanCoversTable(stats, pages, pages)) {
      report.Fail("query " + std::to_string(i) + " visited " +
                  std::to_string(stats.pages_scanned + stats.pages_skipped) +
                  " of " + std::to_string(pages) + " pages");
    }
    if (!HotWithinBudget(hot, budget)) {
      report.Fail("hot entries " + std::to_string(hot) + " exceed L after query " +
                  std::to_string(i));
    }
    if (i < kWarmupQueries) {
      for (uint64_t v :
           {uint64_t{stats.pages_scanned}, uint64_t{stats.pages_skipped},
            uint64_t{stats.pages_fetched}, uint64_t{stats.entries_added},
            uint64_t{stats.partitions_demoted},
            uint64_t{stats.partitions_promoted}, uint64_t{stats.result_count},
            uint64_t{stats.used_partial_index}, uint64_t{stats.used_index_buffer},
            uint64_t{hot}}) {
        digest.Mix(v);
      }
    }

    if (args.trace) {
      side.clear();
      if (stats.used_partial_index) {
        const Clock::time_point t = Clock::now();
        db.GetIndex(query.column)->Lookup(query.lo, &side);
        samples.partial_lookup_us.Add(MicrosBetween(t, Clock::now()));
      } else if (stats.used_index_buffer) {
        const Clock::time_point t0 = Clock::now();
        db.GetBuffer(query.column)->Lookup(query.lo, &side);
        const Clock::time_point t1 = Clock::now();
        samples.buffer_lookup_us.Add(MicrosBetween(t0, t1));
        if (stats.pages_scanned == 0) {
          for (const Rid& rid : result.value().rids) {
            (void)db.table().Get(rid);
          }
          const double engine_us = static_cast<double>(stats.wall_ns) / 1e3;
          samples.skip_path_overhead_us.Add(
              engine_us - MicrosBetween(t0, Clock::now()));
        }
      }
    }
    // Checking, untimed: ops_per_s counts only the queries' own latency.
    if (!SameRidSet(result.value().rids, oracle.Point(query.column, query.lo))) {
      report.Fail("wrong rids for column " + std::to_string(query.column) +
                  " value " + std::to_string(query.lo));
    }
  }

  report.extra["warmup_s"] = warmup_s;
  const TimedFigures figures = timed.Summarize(/*clients=*/1, 0.99);
  report.e2e["ops_per_s"] = figures.ops_per_s;
  report.e2e["read_p50_us"] = figures.read_p50_us;
  report.e2e["read_tail_us"] = figures.read_tail_us;
  report.e2e["peak_rss_mb"] = PeakRssMb();
  report.extra["timed_reads"] = static_cast<double>(timed.completions());
  report.extra["table_pages"] = static_cast<double>(pages);
  report.extra["cold_entries"] = static_cast<double>(db.space()->ColdEntries());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest.h));
  report.digest = hex;

  if (const aib::Status status = EndStateConsistent(db); !status.ok()) {
    report.Fail("end state: " + status.ToString());
  }

  if (args.trace) {
    FillLayerMetrics(db, counters_before, samples,
                     static_cast<double>(report.attempted),
                     indexed_values() - indexed_before, &report);
    SweepStorage(db, &report);
  }
  return report;
}

}  // namespace perfbench
