// perfbench — the repository benchmark driver.
//
//   perfbench --workload verify|optimize|scale|fault --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// --trace 0 (untraced run): repeats "set up, then push every design through
// flow::Pipeline::runMany on one Executor" until S seconds are used, and
// reports the end-to-end metrics as medians over the repetitions.
//
// --trace 1 (traced run): one untraced pass, then repeated closed-loop
// passes in which one client thread per hardware thread takes the next
// design and calls each layer's public function itself, with a span
// around every call. Reports the per-layer metrics (medians of the span
// sums) and writes the spans as Chrome trace-event JSON under DIR/traces.
//
// Every pass is checked against known answers (see workloads.cpp), and its
// deterministic outputs must match every other pass of the run, the other
// mode, and earlier runs of the same seed and binary (DIR/answers). The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Diagnostics go to stderr.

#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/executor.hpp"
#include "lis/synth.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
namespace lf = lis::flow;
using namespace perfbench;

namespace {

/// Setups timed before the measured passes, on top of one per pass, so
/// setup_s is a median of many samples even when a pass takes seconds.
constexpr int kExtraSetups = 50;
constexpr int kMaxPasses = 10000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string outDir = ".";
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
      } else if (key == "--out-dir") {
        a.outDir = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

unsigned hardwareThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Pool size for runMany: the workers plus the submitting thread (which
/// helps drain tasks while it waits) never exceed the hardware threads.
struct Threads {
  unsigned jobs = 1;   // Executor(jobs); 1 = serial, no pool
  unsigned total = 1;  // threads doing flow work
  unsigned clients = 1; // traced-run client threads
};

Threads threadPlan() {
  const unsigned hw = hardwareThreads();
  Threads t;
  t.clients = hw;
  if (hw >= 3) {
    t.jobs = hw - 1;
    t.total = hw;
  }
  return t;
}

/// Verdicts and deterministic outputs of every pass of the run.
class Ledger {
public:
  void addPass(const std::vector<DesignOutcome>& outcomes, const char* mode) {
    std::string rows;
    for (const DesignOutcome& o : outcomes) {
      attempted_ += o.attempted;
      failed_ += o.failed;
      for (const std::string& v : o.violations) violation(v);
      rows += o.row + "\n";
    }
    if (rows_.empty()) {
      rows_ = rows;
    } else if (rows != rows_) {
      violation(std::string("deterministic outputs of a ") + mode +
                " pass differ from the first pass:\n" + rows + "vs\n" + rows_);
    }
  }

  void violation(const std::string& what) {
    if (violations_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++violations_;
  }

  /// Compare against (or record) the outputs of earlier runs of the same
  /// binary, workload and seed.
  void crossRun(const fs::path& answersDir, const std::string& key) {
    std::error_code ec;
    fs::create_directories(answersDir, ec);
    const fs::path file = answersDir / (key + ".txt");
    std::ifstream in(file, std::ios::binary);
    if (in) {
      const std::string before((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
      if (before != rows_) {
        violation("outputs differ from an earlier run with the same seed (" +
                  file.string() + ")");
      }
      return;
    }
    const fs::path tmp = file.string() + ".tmp" +
                         std::to_string(static_cast<unsigned long>(::getpid()));
    {
      std::ofstream out(tmp, std::ios::binary);
      out << rows_;
    }
    fs::rename(tmp, file, ec);
  }

  bool correct() const { return violations_ == 0 && attempted_ > 0; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::string& rows() const { return rows_; }

private:
  std::string rows_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t violations_ = 0;
};

/// FNV-1a of the driver executable: answers are only comparable between
/// runs of the same build.
std::string binaryKey(const char* exe) {
  std::ifstream in(exe, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

// --- untraced -------------------------------------------------------------

struct UntracedPass {
  double setup = 0; // spec construction + executor start + cache clear
  double wall = 0;  // first submission until runMany returns
  double cpu = 0;   // process user+sys CPU over the same window
  std::vector<DesignOutcome> outcomes;
  double slicesTotal = 0;
  double fmaxMin = 0;
};

/// Set-up only: what a pass does before its first submission.
double timeSetup(const Workload& w, const Threads& t) {
  const Clock::time_point t0 = Clock::now();
  std::vector<lf::Design> designs = w.designs();
  lf::Pipeline pipe = w.pipeline();
  lf::Executor exec(t.jobs);
  lis::sync::synthCacheClear();
  return secondsBetween(t0, Clock::now());
}

UntracedPass runUntraced(const Workload& w, const Threads& t) {
  UntracedPass p;
  const Clock::time_point t0 = Clock::now();
  std::vector<lf::Design> designs = w.designs();
  lf::Pipeline pipe = w.pipeline();
  auto exec = std::make_unique<lf::Executor>(t.jobs);
  lis::sync::synthCacheClear();
  const Clock::time_point t1 = Clock::now();
  const double cpu0 = cpuSeconds();
  std::vector<lf::RunResult> results = pipe.runMany(designs, *exec);
  const Clock::time_point t2 = Clock::now();
  p.cpu = cpuSeconds() - cpu0;
  p.setup = secondsBetween(t0, t1);
  p.wall = secondsBetween(t1, t2);
  exec.reset();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    p.outcomes.push_back(w.untraced(designs[i], results[i]));
  }
  // Area and fmax of every spec-backed design, outside the measured
  // window; workloads whose pipeline does not map get the greedy 4-LUT
  // mapping here.
  bool first = true;
  for (lf::Design& d : designs) {
    if (d.systemSpec() == nullptr && d.wrapperConfig() == nullptr) continue;
    p.slicesTotal += static_cast<double>(d.area(4).slices);
    const double fmax = d.timing().fmaxMHz;
    p.fmaxMin = first ? fmax : std::min(p.fmaxMin, fmax);
    first = false;
  }
  return p;
}

// --- traced ---------------------------------------------------------------

struct TracedPass {
  double listWall = 0;
  std::vector<DesignOutcome> outcomes;
  std::vector<SpanEvent> events;
  LayerTally tally;
  std::vector<std::string> errors;
  Clock::time_point epoch;
};

TracedPass runTraced(const Workload& w, unsigned clients) {
  TracedPass p;
  lis::sync::synthCacheClear();
  const std::size_t n = w.size();
  p.outcomes.resize(n);
  std::vector<SpanLog> logs;
  std::vector<LayerTally> tallies(clients);
  std::vector<std::string> errors(clients);
  for (unsigned c = 0; c < clients; ++c) logs.emplace_back(c);
  std::atomic<std::size_t> next{0};
  p.epoch = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i = next++; i < n; i = next++) {
            p.outcomes[i] = w.traced(i, logs[c], tallies[c]);
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        } catch (...) {
          errors[c] = "unknown exception";
        }
      });
    }
  }
  p.listWall = secondsBetween(p.epoch, Clock::now());
  for (unsigned c = 0; c < clients; ++c) {
    p.tally.merge(tallies[c]);
    p.events.insert(p.events.end(), logs[c].events().begin(),
                    logs[c].events().end());
    if (!errors[c].empty()) p.errors.push_back(errors[c]);
  }
  std::sort(p.events.begin(), p.events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start < b.start;
            });
  return p;
}

/// Seconds per span name, layer calls only (probe spans excluded).
std::map<std::string, double> spanSeconds(const TracedPass& p) {
  std::map<std::string, double> s;
  for (const SpanEvent& e : p.events) {
    if (std::string(e.category) != "layer") continue;
    s[e.name] += secondsBetween(e.start, e.end);
  }
  return s;
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (ledger.correct() ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted()
     << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

/// Keep repeating while another pass of the median length still fits.
template <class F>
void repeatFor(double seconds, F&& onePass) {
  const Clock::time_point start = Clock::now();
  std::vector<double> lengths;
  do {
    const Clock::time_point t0 = Clock::now();
    onePass();
    lengths.push_back(secondsBetween(t0, Clock::now()));
  } while (static_cast<int>(lengths.size()) < kMaxPasses &&
           secondsBetween(start, Clock::now()) + median(lengths) <= seconds);
}

std::vector<Metric> untracedRun(const Workload& w, const Threads& t,
                                double seconds, Ledger& ledger) {
  std::vector<double> setups;
  for (int i = 0; i < kExtraSetups; ++i) setups.push_back(timeSetup(w, t));
  std::vector<double> walls;
  std::vector<double> cpus;
  // Peak RSS of the first pass: later passes run on a heap the earlier
  // ones fragmented, so their peaks grow with the number of passes.
  double firstPeakRss = 0;
  double slicesTotal = 0;
  double fmaxMin = 0;
  repeatFor(seconds, [&] {
    const UntracedPass last = runUntraced(w, t);
    if (walls.empty()) firstPeakRss = peakRssMb();
    setups.push_back(last.setup);
    walls.push_back(last.wall);
    cpus.push_back(last.cpu);
    std::fprintf(stderr, "pass %zu: wall %.4f s, cpu %.4f s\n", walls.size(),
                 last.wall, last.cpu);
    ledger.addPass(last.outcomes, "untraced");
    if (last.slicesTotal != slicesTotal || last.fmaxMin != fmaxMin) {
      if (walls.size() > 1) ledger.violation("slices or fmax changed between passes");
      slicesTotal = last.slicesTotal;
      fmaxMin = last.fmaxMin;
    }
  });
  std::fprintf(stderr, "%zu untraced passes, wall_s median %.4f (min %.4f, max %.4f)\n",
               walls.size(), median(walls),
               *std::min_element(walls.begin(), walls.end()),
               *std::max_element(walls.begin(), walls.end()));
  const double attempted = static_cast<double>(ledger.attempted());
  return {
      {"wall_s", median(walls), "s"},
      {"cpu_s", median(cpus), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", firstPeakRss, "MB"},
      {"slices_total", slicesTotal, "count"},
      {"fmax_min_mhz", fmaxMin, "MHz"},
      {"passed_share",
       attempted > 0 ? (attempted - static_cast<double>(ledger.failed())) / attempted
                     : 0.0,
       "share"},
  };
}

void writeTrace(const TracedPass& p, const Threads& t, const Args& a) {
  const fs::path dir = fs::path(a.outDir) / "traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file =
      dir / (a.workload + "-seed" + std::to_string(a.seed) + ".json");
  std::ofstream out(file, std::ios::binary);
  out << chromeTraceJson(p.events, t.clients, p.epoch,
                         "perfbench " + a.workload);
  if (out) std::fprintf(stderr, "trace: %s\n", file.string().c_str());
}

/// Busy share of each span name, so a reader sees which layer dominates.
void printShares(const std::map<std::string, double>& seconds) {
  double busy = 0;
  for (const auto& [name, s] : seconds) busy += s;
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, s] : seconds) rows.emplace_back(s, name);
  std::sort(rows.rbegin(), rows.rend());
  std::fprintf(stderr, "busy time %.3f s by layer span:\n", busy);
  for (const auto& [s, name] : rows) {
    std::fprintf(stderr, "  %-32s %9.4f s %6.2f%%\n", name.c_str(), s,
                 busy > 0 ? 100.0 * s / busy : 0.0);
  }
}

std::vector<Metric> tracedRun(const Workload& w, const Threads& t,
                              const Args& a, Ledger& ledger) {
  const UntracedPass u = runUntraced(w, t);
  ledger.addPass(u.outcomes, "untraced");

  std::vector<double> listWalls;
  std::map<std::string, std::vector<double>> perName;
  TracedPass first;
  bool haveFirst = false;
  repeatFor(a.seconds, [&] {
    TracedPass p = runTraced(w, t.clients);
    for (const std::string& e : p.errors) ledger.violation("traced pass: " + e);
    ledger.addPass(p.outcomes, "traced");
    listWalls.push_back(p.listWall);
    for (const auto& [name, s] : spanSeconds(p)) perName[name].push_back(s);
    if (!haveFirst) {
      first = std::move(p);
      haveFirst = true;
    }
  });
  writeTrace(first, t, a);
  printShares(spanSeconds(first));

  // Median per span name; a name missing from some pass counts as 0 there.
  const std::size_t passes = listWalls.size();
  const auto sec = [&](const std::string& name) {
    auto it = perName.find(name);
    if (it == perName.end()) return 0.0;
    std::vector<double> v = it->second;
    v.resize(passes, 0.0);
    return median(v);
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const LayerTally& c = first.tally;
  const double pdrToken = sec("sat.pdr.token_conservation_s");
  const double pdrOcc = sec("sat.pdr.occupancy_bound_s");
  const double pdrWatch = sec("sat.pdr.deadlock_watchdog_s");
  const double seqEquiv = sec("netlist.seq_equiv_s");
  const double mapS = sec("techmap.map_s");
  const double campaign = sec("fault.campaign_s");
  const double sites = c.get("fault.sites");
  return {
      {"flow.efficiency", ratio(u.cpu, u.wall * t.total), "share"},
      {"flow.list_wall_s", median(listWalls), "s"},
      {"flow.threads", static_cast<double>(t.total), "count"},
      {"lis.build_s", sec("lis.build_s"), "s"},
      {"lis.gates", c.get("lis.gates"), "count"},
      {"lis.dffs", c.get("lis.dffs"), "count"},
      {"aig.optimize_s", sec("aig.optimize_s"), "s"},
      {"aig.ands_before", c.get("aig.ands_before"), "count"},
      {"aig.ands_after", c.get("aig.ands_after"), "count"},
      {"netlist.seq_equiv_s", seqEquiv, "s"},
      {"netlist.seq_equiv_s_per_kand",
       ratio(seqEquiv, c.get("netlist.seq_equiv.kands")), "s/kAND"},
      {"netlist.seq_equiv.sat_conflicts",
       c.get("netlist.seq_equiv.sat_conflicts"), "count"},
      {"netlist.seq_equiv.by_bdd", c.get("netlist.seq_equiv.by_bdd"), "count"},
      {"netlist.encoding_equiv_s", sec("netlist.encoding_equiv_s"), "s"},
      {"techmap.map_s", mapS, "s"},
      {"techmap.map_s_per_klut", ratio(mapS, c.get("techmap.luts") / 1000.0),
       "s/kLUT"},
      {"techmap.luts", c.get("techmap.luts"), "count"},
      {"timing.sta_s", sec("timing.sta_s"), "s"},
      {"timing.lut_depth_max", c.get("timing.lut_depth_max"), "count"},
      {"lis.cosim_s", sec("lis.cosim_s"), "s"},
      {"lis.cosim.gate_us_per_cycle", c.get("lis.cosim.gate_us_per_cycle"),
       "us/cycle"},
      {"lis.cosim.oracle_us_per_cycle",
       c.get("lis.cosim.oracle_us_per_cycle"), "us/cycle"},
      {"lis.cosim.tokens", c.get("lis.cosim.tokens"), "count"},
      {"lis.cosim.vacuous_rows", c.get("lis.cosim.vacuous_rows"), "count"},
      {"sat.sweep_s", sec("sat.sweep_s"), "s"},
      {"sat.sweep.merged", c.get("sat.sweep.merged"), "count"},
      {"sat.pdr_s", pdrToken + pdrOcc + pdrWatch, "s"},
      {"sat.pdr.token_conservation_s", pdrToken, "s"},
      {"sat.pdr.occupancy_bound_s", pdrOcc, "s"},
      {"sat.pdr.deadlock_watchdog_s", pdrWatch, "s"},
      {"sat.pdr.frames", c.get("sat.pdr.frames"), "count"},
      {"sat.pdr.clauses", c.get("sat.pdr.clauses"), "count"},
      {"sat.pdr.obligations", c.get("sat.pdr.obligations"), "count"},
      {"sat.pdr.pushed_clauses", c.get("sat.pdr.pushed_clauses"), "count"},
      {"sat.pdr.conflicts", c.get("sat.pdr.conflicts"), "count"},
      {"sat.pdr.propagations", c.get("sat.pdr.propagations"), "count"},
      {"fault.campaign_s", campaign, "s"},
      {"fault.sites_per_s", ratio(sites, campaign), "1/s"},
      {"fault.silent", c.get("fault.silent"), "count"},
      {"fault.hang", c.get("fault.hang"), "count"},
      {"fault.coverage", ratio(c.get("fault.covered"), sites), "share"},
  };
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload verify|optimize|scale|fault "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  try {
    const std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    const Threads t = threadPlan();
    std::fprintf(stderr, "workload %s seed %llu: %u flow threads (%u pool "
                 "workers + submitter), %u traced clients\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), t.total,
                 t.jobs > 1 ? t.jobs : 0, t.clients);
    Ledger ledger;
    const std::vector<Metric> metrics =
        args.trace ? tracedRun(*w, t, args, ledger)
                   : untracedRun(*w, t, args.seconds, ledger);
    ledger.crossRun(fs::path(args.outDir) / "answers",
                    args.workload + "-seed" + std::to_string(args.seed) +
                        "-" + binaryKey(argv[0]));
    std::fprintf(stderr, "outputs:\n%s", ledger.rows().c_str());
    printResult(ledger, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
