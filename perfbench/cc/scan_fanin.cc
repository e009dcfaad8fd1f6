// scan_fanin: four closed-loop clients submit range predicates on a column
// with no partial index to a QueryService with default options (shared
// scans on). The table is about four times the page buffer pool. This
// exercises admission, shared scans, pool eviction and the page gather and
// predicate kernel, and bypasses the Index Buffer entirely: a change to
// src/core should leave it unchanged.

#include "harness.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

constexpr size_t kTuples = 200000;
/// About a quarter of the ~6,850 pages the table takes.
constexpr size_t kPoolFrames = 1700;
constexpr size_t kClients = 4;
/// The warm-up: a cold pool, then steady scans, about four seconds.
constexpr size_t kWarmupPerClient = 32;
constexpr ColumnId kScanColumn = 2;
/// Each predicate spans 1% of the value domain (~2,000 rows).
constexpr Value kRangeWidth = 500;

struct Client {
  Rng rng{0};
  LayerSamples samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

}  // namespace

RunReport RunScanFanin(const Args& args) {
  RunReport report;
  Rng rng(args.seed);
  const std::vector<Row> rows = GenerateRows(kTuples, &rng);

  aib::DatabaseOptions options;
  options.buffer_pool_pages = kPoolFrames;
  LoadedDb loaded = BuildDatabase(options, rows, {0, 1});
  aib::Database& db = *loaded.db;
  aib::QueryService service(db.executor(), &db.table(),
                            aib::QueryServiceOptions{}, &db.metrics());
  report.e2e["setup_s"] = SecondsBetween(ProcessStart(), Clock::now());
  report.layer["setup.load_s"] = loaded.load_s;
  report.layer["setup.index_build_s"] = loaded.index_build_s;
  const CounterSnapshot counters_before = db.metrics().counters();

  // The answer key: the table is read-only, so every scan's answer is the
  // loaded rows in its range.
  const Oracle oracle(rows, loaded.rids);

  std::vector<Client> clients(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients[c].rng = Rng(args.seed * 131 + c + 1);
  }
  auto step = [&](size_t c, TimedWindows* timed) {
    Client& client = clients[c];
    const Value lo = static_cast<Value>(
        client.rng.Uniform(kValueMin, kValueMax - kRangeWidth + 1));
    const aib::Query query =
        aib::Query::Range(kScanColumn, lo, lo + kRangeWidth - 1);
    if (args.trace) {
      const Clock::time_point t = Clock::now();
      const auto plan = db.executor()->PlanQuery(query);
      client.samples.plan_us.Add(MicrosBetween(t, Clock::now()));
    }
    const Clock::time_point start = Clock::now();
    ++client.attempted;
    auto submitted = service.Submit(query);
    if (!submitted.ok()) {
      ++client.failed;
      return;
    }
    aib::Result<aib::QueryResult> result = submitted.value().get();
    const Clock::time_point end = Clock::now();
    if (!result.ok()) {
      ++client.failed;
      return;
    }
    const double us = MicrosBetween(start, end);
    const aib::QueryStats& stats = result.value().stats;
    client.samples.AddRead(stats);
    client.samples.queue_wait_us.Add(
        us - static_cast<double>(stats.wall_ns) / 1e3);
    if (timed != nullptr) timed->Add(end, us, /*read=*/true);
    // Checking, between statements and outside every latency.
    if (!SameRidSet(result.value().rids,
                    oracle.Range(kScanColumn, lo, lo + kRangeWidth - 1)) &&
        client.errors.size() < 20) {
      client.errors.push_back("wrong rids for range starting at " +
                              std::to_string(lo));
    }
  };
  const ClosedLoopResult run =
      RunClosedLoop(kClients, kWarmupPerClient, args.seconds, step);
  report.extra["warmup_s"] = run.warmup_s;

  LayerSamples samples;
  for (const Client& client : clients) {
    report.attempted += client.attempted;
    report.failed += client.failed;
    samples.Merge(client.samples);
    for (const std::string& e : client.errors) report.Fail(e);
  }
  const TimedFigures figures = run.timed.Summarize(kClients, 0.9);
  report.e2e["ops_per_s"] = figures.ops_per_s;
  report.e2e["read_p50_us"] = figures.read_p50_us;
  report.e2e["read_tail_us"] = figures.read_tail_us;
  report.e2e["peak_rss_mb"] = PeakRssMb();
  report.extra["timed_reads"] = static_cast<double>(run.timed.completions());
  report.extra["table_pages"] = static_cast<double>(db.table().PageCount());
  report.extra["pool_frames"] = static_cast<double>(kPoolFrames);
  service.Shutdown();

  if (const aib::Status status = EndStateConsistent(db); !status.ok()) {
    report.Fail("end state: " + status.ToString());
  }

  if (args.trace) {
    FillLayerMetrics(db, counters_before, samples,
                     static_cast<double>(report.attempted), 0, &report);
    SweepStorage(db, &report);
  }
  return report;
}

}  // namespace perfbench
