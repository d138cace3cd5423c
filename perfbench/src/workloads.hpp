#pragma once
// The benchmark's workloads. Each one owns its design list and options
// (nothing here is shared with lis_bench, so editing the bench suites
// cannot change the benchmark) and drives the flow two ways:
//
//   untraced  every design through one flow::Pipeline via runMany — the
//             way lis_bench and library users drive the flow; yields the
//             end-to-end metrics.
//   traced    the same designs and options, but each layer's public
//             function called directly from a client thread with a span
//             around every call; yields the per-layer metrics.
//
// Both paths reduce a design to a DesignOutcome whose `row` holds every
// deterministic output (gate counts, slices, fmax, AIG sizes, PDR
// frames/clauses, cosim tokens, fault tallies); rows must be identical
// across iterations, across the two paths and across runs of one seed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/design.hpp"
#include "flow/pipeline.hpp"
#include "spans.hpp"

namespace perfbench {

/// One design's deterministic outputs and verdicts.
struct DesignOutcome {
  std::string row;
  /// Operations: a PDR property, an optimizer equivalence proof, a cosim
  /// row or a fault campaign.
  std::size_t attempted = 0;
  /// Pass errors, unproved or degraded proofs, a wrong verdict on the
  /// known-bad input, cosim rows with a zero-token output channel,
  /// cancelled campaigns.
  std::size_t failed = 0;
  /// Known-answer misses; any entry makes the run incorrect. A vacuous
  /// cosim row is a failed operation, not a wrong answer.
  std::vector<std::string> violations;
};

/// Per-layer counters gathered by the traced run; `sum` adds across
/// designs, `max` keeps the largest value seen.
struct LayerTally {
  std::map<std::string, double> sum;
  std::map<std::string, double> max;

  void add(const std::string& key, double v) { sum[key] += v; }
  void atLeast(const std::string& key, double v) {
    double& m = max[key];
    if (v > m) m = v;
  }
  void merge(const LayerTally& other) {
    for (const auto& [k, v] : other.sum) add(k, v);
    for (const auto& [k, v] : other.max) atLeast(k, v);
  }
  double get(const std::string& key) const {
    if (const auto it = sum.find(key); it != sum.end()) return it->second;
    if (const auto it = max.find(key); it != max.end()) return it->second;
    return 0.0;
  }
};

class Workload {
public:
  virtual ~Workload() = default;

  virtual std::size_t size() const = 0;
  /// Fresh Designs (a Design caches its artifacts, so every pass over the
  /// workload needs new instances).
  virtual std::vector<lis::flow::Design> designs() const = 0;
  virtual lis::flow::Pipeline pipeline() const = 0;
  /// Outcome of one design after an untraced runMany.
  virtual DesignOutcome untraced(lis::flow::Design& design,
                                 const lis::flow::RunResult& result) const = 0;
  /// Design i's layer chain through direct library calls, one span per
  /// call into a layer.
  virtual DesignOutcome traced(std::size_t i, SpanLog& log,
                               LayerTally& tally) const = 0;
};

/// verify | optimize | scale | fault; null for an unknown name. The seed
/// drives the cosim stimulus and the fault site plan.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

} // namespace perfbench
