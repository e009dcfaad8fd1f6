#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/consistency.h"

namespace perfbench {

using aib::Database;
using aib::QueryStats;

// --- Inputs -------------------------------------------------------------------

Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void LogHistogram::Add(double us) {
  const double position =
      (std::log2(std::max(us, 0x1.0p-4)) - kMinExponent) * kPerOctave;
  const size_t bucket = static_cast<size_t>(std::clamp(
      position, 0.0, static_cast<double>(buckets_.size() - 1)));
  ++buckets_[bucket];
  min_ = count_ == 0 ? us : std::min(min_, us);
  max_ = count_ == 0 ? us : std::max(max_, us);
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
}

double LogHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double in = static_cast<double>(buckets_[i]);
    if (in == 0 || below + in < target) {
      below += in;
      continue;
    }
    // Spread the bucket's samples evenly over its width in log space.
    const double position = static_cast<double>(i) + (target - below) / in;
    const double value =
        std::exp2(position / kPerOctave + static_cast<double>(kMinExponent));
    return std::clamp(value, min_, max_);
  }
  return max_;
}

TimedWindows::TimedWindows(Clock::time_point start, int seconds)
    : start_(start), seconds_(seconds), windows_(kTimedWindows) {}

void TimedWindows::Add(Clock::time_point end, double us, bool read) {
  const double at = SecondsBetween(start_, end);
  if (at < 0 || at >= seconds_) return;
  const double window_s = static_cast<double>(seconds_) / kTimedWindows;
  Window& w = windows_[std::min<size_t>(static_cast<size_t>(at / window_s),
                                        kTimedWindows - 1)];
  w.count += 1;
  w.busy_s += us / 1e6;
  if (read) w.reads.Add(us);
}

void TimedWindows::Merge(const TimedWindows& other) {
  for (size_t i = 0; i < windows_.size(); ++i) {
    windows_[i].count += other.windows_[i].count;
    windows_[i].busy_s += other.windows_[i].busy_s;
    windows_[i].reads.Merge(other.windows_[i].reads);
  }
}

uint64_t TimedWindows::completions() const {
  double n = 0;
  for (const Window& w : windows_) n += w.count;
  return static_cast<uint64_t>(n);
}

TimedFigures TimedWindows::Summarize(size_t clients, double tail_q) const {
  std::vector<double> rate, p50, tail;
  for (const Window& w : windows_) {
    if (w.busy_s > 0) {
      rate.push_back(static_cast<double>(clients) * w.count / w.busy_s);
    }
    if (w.reads.Count() == 0) continue;
    p50.push_back(w.reads.Percentile(0.5));
    tail.push_back(w.reads.Percentile(tail_q));
  }
  return {Percentile(rate, 0.5), Percentile(p50, 0.5), Percentile(tail, 0.5)};
}

ClosedLoopResult RunClosedLoop(
    size_t clients, size_t warmup_per_client, int seconds,
    const std::function<void(size_t client, TimedWindows* timed)>& step) {
  const Clock::time_point warmup_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t n = 0; n < warmup_per_client; ++n) step(c, nullptr);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const Clock::time_point timed_start = Clock::now();
  const Clock::time_point deadline = timed_start + std::chrono::seconds(seconds);
  std::vector<TimedWindows> timed(clients, TimedWindows(timed_start, seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (Clock::now() < deadline) step(c, &timed[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ClosedLoopResult result{SecondsBetween(warmup_start, timed_start),
                          TimedWindows(timed_start, seconds)};
  for (const TimedWindows& t : timed) result.timed.Merge(t);
  return result;
}

std::vector<Row> GenerateRows(size_t n, Rng* rng) {
  std::vector<Row> rows(n);
  for (Row& row : rows) {
    for (Value& v : row.values) {
      v = static_cast<Value>(rng->Uniform(kValueMin, kValueMax));
    }
    row.payload_len = static_cast<uint16_t>(rng->Uniform(1, 512));
  }
  return rows;
}

aib::Tuple MakeTuple(const std::array<Value, kIntColumns>& values,
                     uint16_t payload_len) {
  return aib::Tuple(std::vector<Value>(values.begin(), values.end()),
                    {std::string(payload_len, 'x')});
}

Oracle::Oracle(const std::vector<Row>& rows, const std::vector<Rid>& rids)
    : rows_(rows), rids_(rids) {
  for (int c = 0; c < kIntColumns; ++c) {
    std::vector<uint32_t>& order = order_[c];
    order.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      return rows[x].values[c] < rows[y].values[c];
    });
  }
}

std::vector<Rid> Oracle::Point(ColumnId column, Value v) const {
  return Range(column, v, v);
}

std::vector<Rid> Oracle::Range(ColumnId column, Value lo, Value hi) const {
  const std::vector<uint32_t>& order = order_[column];
  auto it = std::lower_bound(order.begin(), order.end(), lo,
                             [&](uint32_t i, Value v) {
                               return rows_[i].values[column] < v;
                             });
  std::vector<Rid> out;
  for (; it != order.end() && rows_[*it].values[column] <= hi; ++it) {
    out.push_back(rids_[*it]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

LoadedDb BuildDatabase(const aib::DatabaseOptions& options,
                       const std::vector<Row>& rows,
                       const std::vector<ColumnId>& indexed_columns) {
  LoadedDb loaded;
  loaded.db = std::make_unique<Database>(
      aib::Schema::PaperSchema(kIntColumns, 512), options);
  loaded.rids.reserve(rows.size());
  const Clock::time_point load_start = Clock::now();
  for (const Row& row : rows) {
    aib::Result<Rid> rid =
        loaded.db->LoadTuple(MakeTuple(row.values, row.payload_len));
    if (!rid.ok()) {
      throw std::runtime_error("load failed: " + rid.status().ToString());
    }
    loaded.rids.push_back(rid.value());
  }
  const Clock::time_point index_start = Clock::now();
  loaded.load_s = SecondsBetween(load_start, index_start);
  for (ColumnId column : indexed_columns) {
    const aib::Status status = loaded.db->CreatePartialIndex(
        column, aib::ValueCoverage::Range(kValueMin, kCoveredHi));
    if (!status.ok()) {
      throw std::runtime_error("index build failed: " + status.ToString());
    }
  }
  loaded.index_build_s = SecondsBetween(index_start, Clock::now());
  return loaded;
}

// --- Checkers -----------------------------------------------------------------

bool SameRidSet(std::vector<Rid> got, std::vector<Rid> expected) {
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  return got == expected;
}

bool ScanCoversTable(const QueryStats& stats, size_t pages_lo,
                     size_t pages_hi) {
  const size_t visited = stats.pages_scanned + stats.pages_skipped;
  return visited >= pages_lo && visited <= pages_hi;
}

bool HotWithinBudget(size_t hot_entries, size_t budget) {
  return hot_entries <= budget;
}

bool TupleCountBalances(size_t tuple_count, size_t loaded, size_t inserted,
                        size_t deleted) {
  return tuple_count + deleted == loaded + inserted;
}

aib::Status EndStateConsistent(Database& db) {
  for (ColumnId column : db.table().schema().IntColumnIds()) {
    if (const aib::PartialIndex* index = db.GetIndex(column)) {
      AIB_RETURN_IF_ERROR(aib::CheckPartialIndexConsistency(db.table(), *index));
    }
  }
  if (db.space() != nullptr) {
    AIB_RETURN_IF_ERROR(aib::CheckSpaceConsistency(db.table(), *db.space()));
  }
  return aib::Status::Ok();
}

namespace {

/// A small indexed table with one uncovered point query run, so its Index
/// Buffer holds entries a corruption can disturb.
struct TinyDb {
  std::vector<Row> rows;
  LoadedDb loaded;
};

TinyDb MakeTinyDb() {
  TinyDb tiny;
  Rng rng(7);
  tiny.rows = GenerateRows(2000, &rng);
  tiny.loaded = BuildDatabase(aib::DatabaseOptions{}, tiny.rows, {0});
  (void)tiny.loaded.db->Execute(aib::Query::Point(0, kValueMax - 1));
  return tiny;
}

}  // namespace

bool RunSelfTest(std::vector<std::string>* errors) {
  const size_t before = errors->size();
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) errors->push_back("self-test: " + what);
  };

  const std::vector<Rid> base = {{1, 0}, {1, 3}, {4, 2}};
  expect(SameRidSet({{4, 2}, {1, 0}, {1, 3}}, base),
         "rid-set check rejects a reordered correct result");
  expect(!SameRidSet({{1, 0}, {4, 2}}, base),
         "rid-set check accepts a result with one rid removed");
  expect(!SameRidSet({{1, 0}, {1, 3}, {4, 2}, {9, 9}}, base),
         "rid-set check accepts a result with a foreign rid added");
  expect(!SameRidSet({{1, 0}, {1, 3}, {4, 2}, {4, 2}}, base),
         "rid-set check accepts a duplicated rid");

  QueryStats stats;
  stats.used_index_buffer = true;
  stats.pages_scanned = 30;
  stats.pages_skipped = 70;
  expect(ScanCoversTable(stats, 100, 100), "scan check rejects a full scan");
  expect(ScanCoversTable(stats, 98, 103),
         "scan check rejects a scan inside a growing table's page range");
  expect(!ScanCoversTable(stats, 101, 101),
         "scan check accepts a scan that missed a page");
  expect(!ScanCoversTable(stats, 90, 99),
         "scan check accepts a scan that visited too many pages");

  expect(HotWithinBudget(800, 800), "budget check rejects hot == L");
  expect(!HotWithinBudget(801, 800), "budget check accepts hot > L");

  expect(TupleCountBalances(105, 100, 10, 5),
         "tuple-count check rejects a balanced count");
  expect(!TupleCountBalances(106, 100, 10, 5),
         "tuple-count check accepts a lost delete");
  expect(!TupleCountBalances(104, 100, 10, 5),
         "tuple-count check accepts a lost insert");

  // Consistency: an intact engine passes; a partial index missing one
  // covered entry fails; an Index Buffer missing one entry (C[p] no longer
  // matches) fails.
  {
    TinyDb tiny = MakeTinyDb();
    expect(EndStateConsistent(*tiny.loaded.db).ok(),
           "consistency check rejects an intact engine");
    for (size_t i = 0; i < tiny.rows.size(); ++i) {
      if (tiny.rows[i].values[0] <= kCoveredHi) {
        tiny.loaded.db->GetIndex(0)->Remove(tiny.rows[i].values[0],
                                            tiny.loaded.rids[i]);
        break;
      }
    }
    expect(!EndStateConsistent(*tiny.loaded.db).ok(),
           "consistency check accepts a partial index missing an entry");
  }
  {
    TinyDb tiny = MakeTinyDb();
    aib::IndexBuffer* buffer = tiny.loaded.db->GetBuffer(0);
    bool removed = false;
    for (size_t i = 0; i < tiny.rows.size() && !removed; ++i) {
      const Value v = tiny.rows[i].values[0];
      if (v <= kCoveredHi) continue;
      aib::Result<size_t> page =
          tiny.loaded.db->table().PageNumberOf(tiny.loaded.rids[i]);
      removed = page.ok() && buffer != nullptr &&
                buffer->RemoveTuple(page.value(), v, tiny.loaded.rids[i]);
    }
    expect(removed, "self-test could not find a buffered entry to remove");
    expect(!EndStateConsistent(*tiny.loaded.db).ok(),
           "consistency check accepts an Index Buffer missing an entry");
  }
  return errors->size() == before;
}

// --- Layer metrics ------------------------------------------------------------

void LayerSamples::AddRead(const QueryStats& stats) {
  reads += 1;
  pages_scanned += static_cast<double>(stats.pages_scanned);
  pages_skipped += static_cast<double>(stats.pages_skipped);
  pages_fetched += static_cast<double>(stats.pages_fetched);
  entries_added += static_cast<double>(stats.entries_added);
  if (stats.used_index_buffer && stats.pages_scanned > 0) indexing_scans += 1;
  engine_read_us.Add(static_cast<double>(stats.wall_ns) / 1e3);
}

void LayerSamples::Merge(const LayerSamples& other) {
  plan_us.Merge(other.plan_us);
  engine_read_us.Merge(other.engine_read_us);
  skip_path_overhead_us.Merge(other.skip_path_overhead_us);
  buffer_lookup_us.Merge(other.buffer_lookup_us);
  partial_lookup_us.Merge(other.partial_lookup_us);
  queue_wait_us.Merge(other.queue_wait_us);
  insert_us.Merge(other.insert_us);
  update_us.Merge(other.update_us);
  delete_us.Merge(other.delete_us);
  reads += other.reads;
  pages_scanned += other.pages_scanned;
  pages_skipped += other.pages_skipped;
  pages_fetched += other.pages_fetched;
  indexing_scans += other.indexing_scans;
  entries_added += other.entries_added;
}

void FillLayerMetrics(Database& db, const CounterSnapshot& before,
                      const LayerSamples& samples, double ops,
                      double tuner_values_added, RunReport* report) {
  const CounterSnapshot after = db.metrics().counters();
  auto delta = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  auto& m = report->layer;

  const double pages_read = delta(aib::kMetricPagesRead);
  const double hits = delta(aib::kMetricBufferHits);
  const double misses = delta(aib::kMetricBufferMisses);
  m["storage.pages_read_per_op"] = ratio(pages_read, ops);
  m["storage.pool_hit_rate"] = ratio(hits, hits + misses);
  m["storage.page_reuse_ratio"] =
      ratio(delta(aib::kMetricScanPagesServed), pages_read);
  m["storage.prefetch_dropped"] = delta(aib::kMetricPrefetchDropped);

  m["exec.plan_us"] = samples.plan_us.Percentile(0.5);
  m["exec.engine_read_us"] = samples.engine_read_us.Percentile(0.5);
  m["exec.skip_path_overhead_us"] =
      samples.skip_path_overhead_us.Percentile(0.5);
  m["exec.pages_scanned_per_read"] = ratio(samples.pages_scanned, samples.reads);
  m["exec.pages_skipped_per_read"] = ratio(samples.pages_skipped, samples.reads);
  m["exec.pages_fetched_per_read"] = ratio(samples.pages_fetched, samples.reads);
  m["exec.insert_us"] = samples.insert_us.Percentile(0.5);
  m["exec.update_us"] = samples.update_us.Percentile(0.5);
  m["exec.delete_us"] = samples.delete_us.Percentile(0.5);

  m["core.indexing_scans"] = samples.indexing_scans;
  m["core.buffer_lookup_us"] = samples.buffer_lookup_us.Percentile(0.5);
  m["core.entries_added"] = samples.entries_added;
  m["core.partitions_demoted"] = delta(aib::kMetricColdPartitionsDemoted);
  m["core.partitions_promoted"] = delta(aib::kMetricColdPartitionsPromoted);
  m["core.promotion_latency_us"] =
      db.metrics().HistogramCopy(aib::kMetricPromotionLatencyMicros)
          .Percentile(0.5);
  m["core.hot_entries"] =
      db.space() == nullptr ? 0 : static_cast<double>(db.space()->TotalEntries());
  m["core.cold_bytes"] =
      db.space() == nullptr ? 0 : static_cast<double>(db.space()->ColdBytes());
  m["core.cold_entries_patched"] = delta(aib::kMetricColdEntriesPatched);
  m["core.cold_runs_invalidated"] = delta(aib::kMetricColdRunsInvalidated);

  m["index.partial_lookup_us"] = samples.partial_lookup_us.Percentile(0.5);
  m["index.tuner_values_added"] = tuner_values_added;

  m["service.queue_wait_p50_us"] = samples.queue_wait_us.Percentile(0.5);
  m["service.queue_wait_p99_us"] = samples.queue_wait_us.Percentile(0.99);

  const aib::Histogram waits =
      db.metrics().HistogramCopy(aib::kMetricLatchWaitMicros);
  m["latch.waits_per_op"] = ratio(delta(aib::kMetricLatchWaits), ops);
  m["latch.wait_p50_us"] = waits.Percentile(0.5);
  m["latch.wait_p99_us"] = waits.Percentile(0.99);
  m["latch.optimistic_retries"] = delta(aib::kMetricLatchOptimisticRetries);
  m["latch.optimistic_fallbacks"] = delta(aib::kMetricLatchOptimisticFallbacks);
}

void SweepStorage(Database& db, RunReport* report) {
  const aib::HeapFile& heap = db.table().heap();
  const size_t pages = heap.PageCount();
  const std::vector<ColumnId> columns = db.table().schema().IntColumnIds();
  std::vector<Rid> rids;
  std::vector<std::vector<Value>> lanes(columns.size());
  Clock::time_point start = Clock::now();
  for (size_t p = 0; p < pages; ++p) {
    rids.clear();
    for (auto& lane : lanes) lane.clear();
    const aib::Status status =
        heap.GatherColumnsOnPage(p, columns, &rids, &lanes);
    if (!status.ok()) report->Fail("gather sweep: " + status.ToString());
  }
  report->layer["storage.gather_ns_per_page"] =
      SecondsBetween(start, Clock::now()) * 1e9 / static_cast<double>(pages);

  aib::BufferPool& pool = db.buffer_pool();
  start = Clock::now();
  for (aib::PageId id : heap.page_ids()) {
    aib::Result<aib::Page*> page = pool.FetchPage(id);
    if (!page.ok()) {
      report->Fail("fetch sweep: " + page.status().ToString());
      continue;
    }
    (void)pool.UnpinPage(id, /*dirty=*/false);
  }
  report->layer["storage.fetch_ns_per_page"] =
      SecondsBetween(start, Clock::now()) * 1e9 / static_cast<double>(pages);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
