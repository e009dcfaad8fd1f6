// mixed_rw: four closed-loop clients send Statements to a QueryService over
// the paper table with a bounded Index Buffer Space. 70% are point reads:
// 25% of all statements on covered values (the partial index answers) and
// 45% on the client's own uncovered value band (the Index Buffer answers);
// the split is uneven so the read median does not sit between the two
// modes. 30% are inserts, updates and deletes, 10% each. A client writes
// only rows it inserted, with every column inside its own band, so under
// any interleaving a read's answer is the loaded rows with that value plus
// the client's own live rows with that value, and each client checks its
// reads itself between statements. This puts writes beside reads on the
// core layer adapt reads, and exercises Table I maintenance, cold-run
// patches, page and partition latches, optimistic covered probes, and the
// indexing scans writes trigger again.

#include <unordered_map>

#include "harness.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using aib::StatementKind;

constexpr size_t kTuples = 200000;
constexpr size_t kClients = 4;
/// The warm-up: the Index Buffers fill, then steady traffic, about four
/// seconds.
constexpr size_t kWarmupPerClient = 5000;
/// The uncovered domain [5001, 50000] split into one band per client.
constexpr Value kBandWidth = (kValueMax - kCoveredHi) / kClients;

using Values = std::array<Value, kIntColumns>;

struct Op {
  StatementKind kind = StatementKind::kSelect;
  ColumnId column = 0;
  Value value = 0;
  Rid target;
  Values values{};
};

struct Client {
  Value band_lo = 0;
  Rng rng{0};
  /// The client's live inserted rows, as acknowledged by the engine: a
  /// list to draw write targets from, and per column a value -> rid map to
  /// check reads against.
  std::vector<std::pair<Rid, Values>> live;
  std::array<std::unordered_multimap<Value, Rid>, kIntColumns> live_by_value;
  LayerSamples samples;
  LogHistogram write_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  size_t inserted = 0;
  size_t deleted = 0;
  std::vector<std::string> errors;

  void Fail(std::string message) {
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
};

/// Draws the client's next statement.
Op NextOp(Client* client) {
  Rng& rng = client->rng;
  Op op;
  const int64_t u = rng.Uniform(0, 99);
  auto band_value = [&] {
    return static_cast<Value>(
        rng.Uniform(client->band_lo, client->band_lo + kBandWidth - 1));
  };
  if (u < 25) {
    op.column = static_cast<ColumnId>(rng.Uniform(0, kIntColumns - 1));
    op.value = static_cast<Value>(rng.Uniform(kValueMin, kCoveredHi));
  } else if (u < 70) {
    op.column = static_cast<ColumnId>(rng.Uniform(0, kIntColumns - 1));
    if (!client->live.empty() && rng.Uniform(0, 1) == 0) {
      const size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(client->live.size()) - 1));
      op.value = client->live[i].second[op.column];
    } else {
      op.value = band_value();
    }
  } else {
    op.kind = u < 80 || client->live.empty()
                  ? StatementKind::kInsert
                  : (u < 90 ? StatementKind::kUpdate : StatementKind::kDelete);
    if (op.kind != StatementKind::kInsert) {
      const size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(client->live.size()) - 1));
      op.target = client->live[i].first;
    }
    for (Value& v : op.values) v = band_value();
  }
  return op;
}

aib::Statement ToStatement(const Op& op, uint16_t payload_len) {
  switch (op.kind) {
    case StatementKind::kSelect:
      return aib::Statement::Select(aib::Query::Point(op.column, op.value));
    case StatementKind::kInsert:
      return aib::Statement::Insert(MakeTuple(op.values, payload_len));
    case StatementKind::kUpdate:
      return aib::Statement::Update(op.target,
                                    MakeTuple(op.values, payload_len));
    case StatementKind::kDelete:
      return aib::Statement::Delete(op.target);
  }
  return {};
}

void AddLive(Client* client, Rid rid, const Values& values) {
  client->live.emplace_back(rid, values);
  for (int c = 0; c < kIntColumns; ++c) {
    client->live_by_value[c].emplace(values[c], rid);
  }
}

/// Removes live row `i` from both of the client's records.
void RemoveLive(Client* client, size_t i) {
  const auto [rid, values] = client->live[i];
  for (int c = 0; c < kIntColumns; ++c) {
    auto [it, end] = client->live_by_value[c].equal_range(values[c]);
    while (it != end && it->second != rid) ++it;
    if (it != end) client->live_by_value[c].erase(it);
  }
  client->live[i] = client->live.back();
  client->live.pop_back();
}

/// Applies an acknowledged write (with the rid the engine returned for an
/// insert or update) to the client's live rows.
void ApplyWrite(const Op& op, Rid written, Client* client) {
  if (op.kind == StatementKind::kInsert) {
    AddLive(client, written, op.values);
    ++client->inserted;
    return;
  }
  for (size_t i = 0; i < client->live.size(); ++i) {
    if (client->live[i].first != op.target) continue;
    RemoveLive(client, i);
    if (op.kind == StatementKind::kUpdate) {
      AddLive(client, written, op.values);
    } else {
      ++client->deleted;
    }
    return;
  }
}

}  // namespace

RunReport RunMixedRw(const Args& args) {
  RunReport report;
  Rng rng(args.seed);
  const std::vector<Row> rows = GenerateRows(kTuples, &rng);

  aib::DatabaseOptions options;
  options.space.max_entries = kTuples * 8 / 5;      // L
  options.space.max_pages_per_scan = kTuples / 155;  // I_MAX
  options.buffer.partition_pages = kTuples / 77;     // P
  LoadedDb loaded = BuildDatabase(options, rows, {0, 1, 2});
  aib::Database& db = *loaded.db;
  aib::QueryService service(db.executor(), &db.table(),
                            aib::QueryServiceOptions{}, &db.metrics());
  report.e2e["setup_s"] = SecondsBetween(ProcessStart(), Clock::now());
  report.layer["setup.load_s"] = loaded.load_s;
  report.layer["setup.index_build_s"] = loaded.index_build_s;
  const CounterSnapshot counters_before = db.metrics().counters();

  // The answer key of the loaded rows; each client adds its own live rows.
  const Oracle oracle(rows, loaded.rids);

  std::vector<Client> clients(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients[c].band_lo = kCoveredHi + 1 + static_cast<Value>(c) * kBandWidth;
    clients[c].rng = Rng(args.seed * 131 + c + 1);
  }
  const aib::Table& table = db.table();

  auto step = [&](size_t c, TimedWindows* timed) {
    Client& client = clients[c];
    const Op op = NextOp(&client);
    const uint16_t payload_len =
        static_cast<uint16_t>(client.rng.Uniform(1, 512));
    const aib::Statement statement = ToStatement(op, payload_len);
    const bool read = op.kind == StatementKind::kSelect;
    if (args.trace && read) {
      const Clock::time_point t = Clock::now();
      const auto plan = db.executor()->PlanQuery(statement.query);
      client.samples.plan_us.Add(MicrosBetween(t, Clock::now()));
    }
    const size_t pages_before = table.PageCount();
    const Clock::time_point start = Clock::now();
    ++client.attempted;
    auto submitted = service.Submit(statement);
    aib::Result<aib::StatementResult> result =
        submitted.ok() ? submitted.value().get()
                       : aib::Result<aib::StatementResult>(submitted.status());
    const Clock::time_point end = Clock::now();
    const size_t pages_after = table.PageCount();
    if (!result.ok()) {
      ++client.failed;
      return;
    }
    const double us = MicrosBetween(start, end);
    const aib::QueryStats& stats = result.value().stats;
    const std::vector<Rid>& rids = result.value().rids;
    const double engine_us = static_cast<double>(stats.wall_ns) / 1e3;
    client.samples.queue_wait_us.Add(us - engine_us);
    if (timed != nullptr) {
      timed->Add(end, us, read);
      if (!read) client.write_us.Add(us);
    }
    switch (op.kind) {
      case StatementKind::kSelect:
        client.samples.AddRead(stats);
        break;
      case StatementKind::kInsert:
        client.samples.insert_us.Add(engine_us);
        break;
      case StatementKind::kUpdate:
        client.samples.update_us.Add(engine_us);
        break;
      case StatementKind::kDelete:
        client.samples.delete_us.Add(engine_us);
        break;
    }
    if (!read) {
      if (op.kind != StatementKind::kDelete && rids.size() != 1) {
        client.Fail("write acknowledged with " + std::to_string(rids.size()) +
                    " rids");
      } else {
        ApplyWrite(op, rids.empty() ? Rid{} : rids[0], &client);
      }
      return;
    }

    if (args.trace) {
      std::vector<Rid> side;
      const Clock::time_point t = Clock::now();
      if (op.value <= kCoveredHi) {
        db.GetIndex(op.column)->Lookup(op.value, &side);
        client.samples.partial_lookup_us.Add(MicrosBetween(t, Clock::now()));
      } else if (aib::IndexBuffer* buffer = db.GetBuffer(op.column)) {
        buffer->Lookup(op.value, &side);
        client.samples.buffer_lookup_us.Add(MicrosBetween(t, Clock::now()));
      }
    }
    // Checking, between statements and outside every latency.
    std::vector<Rid> expected = oracle.Point(op.column, op.value);
    auto [own, own_end] = client.live_by_value[op.column].equal_range(op.value);
    for (; own != own_end; ++own) expected.push_back(own->second);
    if (!SameRidSet(rids, expected)) {
      client.Fail("wrong rids for column " + std::to_string(op.column) +
                  " value " + std::to_string(op.value));
    }
    if (stats.used_index_buffer &&
        !ScanCoversTable(stats, pages_before, pages_after)) {
      client.Fail("indexing scan visited " +
                  std::to_string(stats.pages_scanned + stats.pages_skipped) +
                  " pages, table had " + std::to_string(pages_before) + ".." +
                  std::to_string(pages_after));
    }
  };
  const ClosedLoopResult run =
      RunClosedLoop(kClients, kWarmupPerClient, args.seconds, step);
  report.extra["warmup_s"] = run.warmup_s;

  LayerSamples samples;
  LogHistogram write_us;
  size_t inserted = 0;
  size_t deleted = 0;
  for (const Client& client : clients) {
    report.attempted += client.attempted;
    report.failed += client.failed;
    samples.Merge(client.samples);
    write_us.Merge(client.write_us);
    inserted += client.inserted;
    deleted += client.deleted;
    for (const std::string& e : client.errors) report.Fail(e);
  }
  const TimedFigures figures = run.timed.Summarize(kClients, 0.99);
  report.e2e["ops_per_s"] = figures.ops_per_s;
  report.e2e["read_p50_us"] = figures.read_p50_us;
  report.e2e["read_tail_us"] = figures.read_tail_us;
  report.e2e["peak_rss_mb"] = PeakRssMb();
  report.extra["write_p50_us"] = write_us.Percentile(0.5);
  report.extra["write_p99_us"] = write_us.Percentile(0.99);
  report.extra["timed_statements"] = static_cast<double>(run.timed.completions());
  report.extra["timed_writes"] = static_cast<double>(write_us.Count());
  service.Shutdown();
  report.extra["table_pages"] = static_cast<double>(table.PageCount());

  if (!TupleCountBalances(table.TupleCount(), rows.size(), inserted, deleted)) {
    report.Fail("tuple count " + std::to_string(table.TupleCount()) +
                " != loaded " + std::to_string(rows.size()) + " + inserted " +
                std::to_string(inserted) + " - deleted " +
                std::to_string(deleted));
  }
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
