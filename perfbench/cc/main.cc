// The engine benchmark binary. Usage:
//
//   perfbench --workload adapt|scan_fanin|mixed_rw --seed N --seconds S
//             --trace 0|1
//
// Runs one workload, checks every answer, runs the checkers' self-test and
// measures the host, then prints a human-readable report and, as its last
// line, one JSON object with every figure. perfbench/run.py builds this
// binary and turns that object into the benchmark's result line.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload adapt|scan_fanin|mixed_rw --seed N "
               "--seconds S --trace 0|1\n",
               argv0);
  return 2;
}

/// Throughput of a fixed integer loop on `threads` threads relative to one
/// thread: how much parallel CPU this host really gives.
double CpuScaling(size_t threads) {
  // Long enough that idle virtual CPUs are running before it ends.
  constexpr uint64_t kIterations = 100'000'000;
  std::atomic<uint64_t> sink{0};
  auto spin = [&sink] {
    uint64_t x = 88172645463325252ULL;
    for (uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  Clock::time_point start = Clock::now();
  spin();
  const double one = SecondsBetween(start, Clock::now());
  start = Clock::now();
  std::vector<std::thread> pool;
  for (size_t i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  const double many = SecondsBetween(start, Clock::now());
  return static_cast<double>(threads) * one / many;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  return out + "}";
}

void PrintSection(const char* title, const std::map<std::string, double>& m) {
  if (m.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, value] : m) {
    std::printf("  %-32s %.6g\n", name.c_str(), value);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage(argv[0]);
        args.trace = value == "1";
      } else {
        return Usage(argv[0]);
      }
    } catch (const std::exception&) {
      return Usage(argv[0]);
    }
  }

  if (!have_workload || args.seconds < 1 || args.seconds > 3600) {
    return Usage(argv[0]);
  }

  RunReport report;
  try {
    if (args.workload == "adapt") {
      report = RunAdapt(args);
    } else if (args.workload == "scan_fanin") {
      report = RunScanFanin(args);
    } else if (args.workload == "mixed_rw") {
      report = RunMixedRw(args);
    } else {
      return Usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::vector<std::string> selftest_errors;
  if (!RunSelfTest(&selftest_errors)) {
    for (const std::string& e : selftest_errors) report.Fail(e);
  }
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const std::map<std::string, double> host = {
      {"hardware_threads", static_cast<double>(threads)},
      {"cpu_scaling", CpuScaling(threads)}};

  std::printf("workload %s seed %llu seconds %d trace %d: %s, %lld attempted, "
              "%lld failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              report.correct ? "correct" : "INCORRECT",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& e : report.errors) std::printf("  error: %s\n", e.c_str());
  PrintSection("end-to-end", report.e2e);
  PrintSection("per-layer", report.layer);
  PrintSection("extra", report.extra);

  std::string errors = "[";
  for (const std::string& e : report.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += JsonString(e);
  }
  errors += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"e2e\": %s, "
      "\"layer\": %s, \"extra\": %s, \"host\": %s, \"build_type\": %s, "
      "\"digest\": %s, \"errors\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), JsonObject(report.e2e).c_str(),
      JsonObject(report.layer).c_str(), JsonObject(report.extra).c_str(),
      JsonObject(host).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(report.digest).c_str(), errors.c_str());
  return 0;
}
