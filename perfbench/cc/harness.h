#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared scaffolding of the engine benchmark: the benchmark's own input
// generator (seeded, independent of src/workload so a library change never
// changes the inputs), the loaded-row oracle every answer is checked
// against, percentile helpers, and the per-run report the workloads fill.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "exec/query.h"
#include "workload/database.h"

namespace perfbench {

using aib::ColumnId;
using aib::Rid;
using aib::Value;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Time the process entered main(); setup_s is measured from here.
Clock::time_point ProcessStart();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// splitmix64: small, fast, and fully specified here, so the inputs of a
/// seed never depend on a library's RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf over ranks 0..n-1 (rank 0 hottest) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Exact q-quantile by linear interpolation; 0 for no samples.
double Percentile(std::vector<double> samples, double q);

/// A latency histogram of fixed size: 64 log-spaced buckets per octave
/// from 2^-4 to 2^28 µs, each 1.1% wide, so its memory stays flat however
/// many samples a run adds. Percentile interpolates inside a bucket, so it
/// is within 1.1% of the exact quantile.
class LogHistogram {
 public:
  void Add(double us);
  void Merge(const LogHistogram& other);
  uint64_t Count() const { return count_; }
  /// q-quantile (0 <= q <= 1); 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr int kPerOctave = 64;
  static constexpr int kMinExponent = -4;
  static constexpr int kOctaves = 32;
  std::array<uint64_t, kPerOctave * kOctaves> buckets_{};
  uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
};

struct TimedFigures {
  double ops_per_s = 0;
  double read_p50_us = 0;
  double read_tail_us = 0;
};

/// The timed part [start, start + seconds), cut into kTimedWindows equal
/// windows by completion time (completions after the last window are
/// dropped). Each window folds its completions into a count, their summed
/// latency and a read-latency histogram as they arrive, so memory stays
/// flat in the run's length.
inline constexpr int kTimedWindows = 5;
class TimedWindows {
 public:
  TimedWindows(Clock::time_point start, int seconds);
  void Add(Clock::time_point end, double us, bool read);
  void Merge(const TimedWindows& other);
  Clock::time_point start() const { return start_; }
  uint64_t completions() const;
  /// Each figure's median over the windows, so a host stall inside one
  /// window moves none of them. Throughput is `clients` x completions / the
  /// completions' summed latency: Little's law for `clients` closed-loop
  /// clients, so what a client does between statements (the checks) is not
  /// timed. The tail is the `tail_q` quantile of read latency.
  TimedFigures Summarize(size_t clients, double tail_q) const;

 private:
  struct Window {
    double count = 0;
    double busy_s = 0;
    LogHistogram reads;
  };
  Clock::time_point start_;
  int seconds_;
  std::vector<Window> windows_;
};

/// Runs `clients` closed-loop client threads: each first calls
/// `step(client, nullptr)` `warmup_per_client` times, then, once every
/// client has finished its warm-up, `step(client, &timed)` until `seconds`
/// have passed. Each client gets its own TimedWindows to record into; the
/// result merges them.
struct ClosedLoopResult {
  double warmup_s = 0;
  TimedWindows timed;
};
ClosedLoopResult RunClosedLoop(
    size_t clients, size_t warmup_per_client, int seconds,
    const std::function<void(size_t client, TimedWindows* timed)>& step);

// --- The paper table (§V) -----------------------------------------------------

inline constexpr Value kValueMin = 1;
inline constexpr Value kValueMax = 50000;
/// The partial indexes cover the 10% of the domain [1, 5000].
inline constexpr Value kCoveredHi = 5000;
inline constexpr int kIntColumns = 3;

struct Row {
  std::array<Value, kIntColumns> values{};
  uint16_t payload_len = 0;
};

/// `n` rows: three INTEGER columns uniform in [1, 50000] and a payload of
/// uniform length in [1, 512].
std::vector<Row> GenerateRows(size_t n, Rng* rng);

aib::Tuple MakeTuple(const std::array<Value, kIntColumns>& values,
                     uint16_t payload_len);

/// The answer key of the loaded rows: per column, the row indices sorted by
/// value. It refers to `rows` and `rids`, which must outlive it.
class Oracle {
 public:
  Oracle(const std::vector<Row>& rows, const std::vector<Rid>& rids);
  /// Sorted rids of loaded rows with column == v.
  std::vector<Rid> Point(ColumnId column, Value v) const;
  /// Sorted rids of loaded rows with lo <= column <= hi.
  std::vector<Rid> Range(ColumnId column, Value lo, Value hi) const;

 private:
  const std::vector<Row>& rows_;
  const std::vector<Rid>& rids_;
  std::array<std::vector<uint32_t>, kIntColumns> order_;
};

/// Set-up shared by all workloads: builds the Database, loads `rows`
/// (recording their rids), and creates a 10%-coverage partial index on each
/// of `indexed_columns`. Throws std::runtime_error when either fails.
struct LoadedDb {
  std::unique_ptr<aib::Database> db;
  std::vector<Rid> rids;
  double load_s = 0;
  double index_build_s = 0;
};
LoadedDb BuildDatabase(const aib::DatabaseOptions& options,
                       const std::vector<Row>& rows,
                       const std::vector<ColumnId>& indexed_columns);

// --- Checkers -----------------------------------------------------------------
//
// Every check the workloads apply, kept here so the self-test exercises
// exactly the code the runs use.

/// Multiset equality of rids (a duplicate counts as a difference).
bool SameRidSet(std::vector<Rid> got, std::vector<Rid> expected);
/// A read that ran an indexing scan visited every page: scanned + skipped
/// lies in [pages_lo, pages_hi] (the table's page count before and after
/// the read; equal when nothing writes concurrently).
bool ScanCoversTable(const aib::QueryStats& stats, size_t pages_lo,
                     size_t pages_hi);
bool HotWithinBudget(size_t hot_entries, size_t budget);
bool TupleCountBalances(size_t tuple_count, size_t loaded, size_t inserted,
                        size_t deleted);
/// CheckSpaceConsistency and CheckPartialIndexConsistency of every index.
aib::Status EndStateConsistent(aib::Database& db);

/// Feeds each checker a correct input and a deliberately violating one;
/// false (with messages) when a checker accepts a violation or rejects a
/// correct input.
bool RunSelfTest(std::vector<std::string>* errors);

// --- Report -------------------------------------------------------------------

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Figures printed for the reader but not gated (e.g. write latency,
  /// which only mixed_rw has).
  std::map<std::string, double> extra;
  /// Hash of the method's page and entry counts over a fixed query prefix
  /// (adapt only); equal in traced and untraced runs of a seed.
  std::string digest;
  std::vector<std::string> errors;

  void Fail(const std::string& message) {
    correct = false;
    if (errors.size() < 20) errors.push_back(message);
  }
};

/// Per-read and per-write samples the traced run turns into layer metrics.
struct LayerSamples {
  LogHistogram plan_us;
  LogHistogram engine_read_us;
  LogHistogram skip_path_overhead_us;
  LogHistogram buffer_lookup_us;
  LogHistogram partial_lookup_us;
  LogHistogram queue_wait_us;
  LogHistogram insert_us;
  LogHistogram update_us;
  LogHistogram delete_us;
  double reads = 0;
  double pages_scanned = 0;
  double pages_skipped = 0;
  double pages_fetched = 0;
  double indexing_scans = 0;
  double entries_added = 0;

  void AddRead(const aib::QueryStats& stats);
  void Merge(const LayerSamples& other);
};

/// The engine's Metrics counters (Metrics::counters()) taken after set-up,
/// so layer counts are deltas over the workload alone.
using CounterSnapshot = std::map<std::string, int64_t>;

/// Fills every per-layer metric of `report` from the samples, the counter
/// deltas since `before`, and the engine's histograms. `ops` counts every
/// statement after set-up.
void FillLayerMetrics(aib::Database& db, const CounterSnapshot& before,
                      const LayerSamples& samples, double ops,
                      double tuner_values_added, RunReport* report);

/// Times HeapFile::GatherColumnsOnPage and BufferPool::FetchPage+UnpinPage
/// over every page (quiesced engine only).
void SweepStorage(aib::Database& db, RunReport* report);

/// VmHWM of this process, in MB: the engine plus the harness's fixed-size
/// state (rows, oracle, histograms), which does not grow with the run.
double PeakRssMb();

// --- Workloads ----------------------------------------------------------------

RunReport RunAdapt(const Args& args);
RunReport RunScanFanin(const Args& args);
RunReport RunMixedRw(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
