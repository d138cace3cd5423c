// Tests for the flow layer: Design's lazy cached artifacts and wall-time
// accounting, Pipeline pass sequencing, the diagnostic channel (errors
// stop the pipeline; exceptions become diagnostics), per-pass metrics, and
// JSON / Verilog report emission.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "flow/design.hpp"
#include "flow/pipeline.hpp"
#include "netlist/generate.hpp"
#include "test_util.hpp"

using lis::flow::Design;
using lis::flow::Pipeline;
namespace gen = lis::netlist::gen;

namespace {

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

void dumpDiags(const Pipeline& pipe) {
  for (const auto& d : pipe.diagnostics()) {
    std::printf("%s [%s]: %s\n", severityName(d.severity), d.pass.c_str(),
                d.message.c_str());
  }
}

void testWrapperPipelineHappyPath() {
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 2;
  cfg.encoding = lis::sync::Encoding::Binary;
  Design d(cfg);

  lis::sync::CosimOptions cosim;
  cosim.cycles = 800;
  Pipeline pipe;
  pipe.synthesizeControl()
      .mapLuts(4)
      .sta()
      .proveEncodingEquiv()
      .cosim(cosim)
      .report({/*verilog=*/true});
  const bool ok = pipe.run(d);
  if (!ok) dumpDiags(pipe);
  CHECK(ok);
  CHECK_EQ(pipe.records().size(), 6u);
  for (const auto& rec : pipe.records()) CHECK(rec.ok);

  // Metrics surfaced by the standard passes.
  const lis::flow::PassRecord* map = pipe.record("map-luts");
  CHECK(map != nullptr);
  bool sawLuts = false;
  for (const auto& [key, value] : map->metrics) {
    if (key == "luts") {
      sawLuts = true;
      CHECK(value > 0);
    }
  }
  CHECK(sawLuts);
  const lis::flow::PassRecord* cos = pipe.record("cosim");
  CHECK(cos != nullptr);
  CHECK(d.cosimResult() != nullptr);
  CHECK(d.cosimResult()->ok);
  CHECK_EQ(d.cosimResult()->cyclesRun, 800u);
  // One gate settle pass per cycle plus the reset settle; the wall-clock
  // split of the pass lives in the record's timings, not its metrics.
  bool sawPasses = false;
  for (const auto& [key, value] : cos->metrics) {
    CHECK(key != "gate_s" && key != "oracle_s");
    if (key == "gate_passes") {
      sawPasses = true;
      CHECK_EQ(value, 801.0);
    }
  }
  CHECK(sawPasses);
  CHECK_EQ(d.metrics().value("cosim.gate_passes"), 801.0);
  CHECK_EQ(cos->timings.size(), 2u);
  if (cos->timings.size() == 2) {
    CHECK(cos->timings[0].first == "gate_s");
    CHECK(cos->timings[1].first == "oracle_s");
    CHECK(cos->timings[0].second > 0.0);
    CHECK(cos->timings[1].second > 0.0);
  }

  // Wall times are recorded per artifact stage.
  CHECK(d.stageSeconds("synthesize") > 0.0);
  CHECK(d.stageSeconds("map") > 0.0);
  CHECK(d.stageSeconds("sta") > 0.0);
  CHECK_EQ(d.stageSeconds("nonsense"), 0.0);

  // Report pass artifacts: design JSON + structural Verilog.
  CHECK(contains(d.reportJson(), "\"design\""));
  CHECK(contains(d.reportJson(), "\"area\""));
  CHECK(contains(d.reportJson(), "\"timing\""));
  CHECK(contains(d.reportJson(), "\"cosim\""));
  // proveEncodingEquiv ran, so the accumulated BDD arena stats surface.
  CHECK(contains(d.reportJson(), "\"proof\""));
  CHECK(contains(d.reportJson(), "\"occupancy\""));
  CHECK(contains(d.verilog(), "module wrapper_n2m2d2_binary"));
  CHECK(contains(d.verilog(), "always @(posedge clk)"));

  // Pipeline JSON carries the pass records and an empty diagnostics list.
  const std::string js = pipe.json();
  CHECK(contains(js, "\"ok\": true"));
  CHECK(contains(js, "\"map-luts\""));
  CHECK(contains(js, "\"fmax_mhz\""));
  CHECK(contains(js, "\"timings\": {\"gate_s\": "));
}

void testLazyCachingAndRemap() {
  Design d(gen::adder(8));
  const lis::netlist::Netlist* nl = &d.netlist();
  CHECK(nl == &d.netlist()); // cached, stable address
  const unsigned depth4 = d.mapped(4).depth;
  CHECK(&d.mapped(4) == &d.mapped(4)); // same k -> cached
  CHECK_EQ(d.mappedK(), 4u);
  const double fmax4 = d.timing().fmaxMHz;
  CHECK(d.hasTiming());

  // A different k remaps and invalidates the timing cache.
  const lis::techmap::MappedNetlist& m6 = d.mapped(6);
  CHECK_EQ(d.mappedK(), 6u);
  CHECK(!d.hasTiming());
  CHECK(m6.depth <= depth4); // wider LUTs never deepen the cover
  const double fmax6 = d.timing().fmaxMHz;
  CHECK(fmax6 + 1e-9 >= fmax4); // nor slow the clock

  // Prebuilt designs have no spec-backed artifacts.
  CHECK(d.wrapperConfig() == nullptr);
  CHECK(d.systemSpec() == nullptr);
  CHECK(d.controlStats() == nullptr);
}

void testInvalidConfigStopsPipeline() {
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 0; // invalid: must throw inside synthesis
  Design d(cfg);
  Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta();
  CHECK(!pipe.run(d));
  CHECK(!pipe.ok());
  // Only the failing pass ran, and the diagnostic names the bad field.
  CHECK_EQ(pipe.records().size(), 1u);
  CHECK(!pipe.records().front().ok);
  bool sawError = false;
  for (const auto& diag : pipe.diagnostics()) {
    if (diag.severity == lis::flow::Severity::Error &&
        contains(diag.message, "numInputs")) {
      sawError = true;
    }
  }
  CHECK(sawError);
  CHECK(contains(pipe.json(), "\"ok\": false"));
}

void testPrebuiltDesignSkipsModelPasses() {
  // Spec-less designs pass through the verification passes with notes, and
  // map/sta still work on them through the same pipeline surface.
  Design d(gen::muxTree(3, gen::MuxStyle::Tree));
  Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta().proveEncodingEquiv().cosim();
  const bool ok = pipe.run(d);
  if (!ok) dumpDiags(pipe);
  CHECK(ok);
  CHECK_EQ(pipe.records().size(), 5u);
  bool sawNote = false;
  for (const auto& diag : pipe.diagnostics()) {
    if (diag.severity == lis::flow::Severity::Note) sawNote = true;
  }
  CHECK(sawNote);
}

void testSystemDesignThroughPipeline() {
  Design d(lis::sync::chainSpec(2, 1, lis::sync::Encoding::OneHot));
  Pipeline pipe;
  lis::sync::CosimOptions cosim;
  cosim.cycles = 600;
  pipe.synthesizeControl().mapLuts(4).sta().cosim(cosim).report();
  const bool ok = pipe.run(d);
  if (!ok) dumpDiags(pipe);
  CHECK(ok);
  CHECK(d.systemSpec() != nullptr);
  CHECK(d.controlStats() != nullptr);
  CHECK(d.controlStats()->functions > 0);
  CHECK(d.systemPorts() != nullptr);
  CHECK_EQ(d.systemPorts()->inValid.size(), 1u);
  CHECK(contains(d.reportJson(), "chain2_d1_onehot"));
}

void testPassDeadlineCancelsCosim() {
  // A pass deadline reaches cooperative passes through the cancellation
  // token: a cosim sized far beyond the budget winds down early with a
  // cancellation error, while the earlier (fast) passes stay green and the
  // partial result is kept on the design for inspection.
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 1;
  Design d(cfg);
  lis::sync::CosimOptions cosim;
  cosim.cycles = 50'000'000; // far more work than the deadline allows
  Pipeline pipe;
  pipe.synthesizeControl().cosim(cosim).passDeadline(0.5);
  CHECK(!pipe.run(d));
  CHECK_EQ(pipe.records().size(), 2u);
  CHECK(pipe.records().front().ok);
  CHECK(!pipe.records().back().ok);
  bool sawCancel = false;
  for (const auto& diag : pipe.diagnostics()) {
    if (diag.severity == lis::flow::Severity::Error &&
        contains(diag.message, "cancelled")) {
      sawCancel = true;
    }
  }
  CHECK(sawCancel);
  CHECK(d.cosimResult() != nullptr);
  CHECK(d.cosimResult()->cyclesRun < cosim.cycles);
}

void testPassDeadlineFlagsStubbornPass() {
  // A pass that never polls the token still can't bust the budget
  // silently: the pipeline flags it the moment it returns.
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 1;
  Design d(cfg);
  Pipeline pipe;
  pipe.synthesizeControl().passDeadline(1e-9);
  CHECK(!pipe.run(d));
  CHECK_EQ(pipe.records().size(), 1u);
  CHECK(!pipe.records().front().ok);
  bool sawDeadline = false;
  for (const auto& diag : pipe.diagnostics()) {
    if (contains(diag.message, "deadline")) sawDeadline = true;
  }
  CHECK(sawDeadline);
}

void testReusablePipeline() {
  // One pipeline, many designs — records reset per run.
  Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta();
  for (unsigned n = 1; n <= 2; ++n) {
    lis::sync::WrapperConfig cfg;
    cfg.numInputs = n;
    Design d(cfg);
    CHECK(pipe.run(d));
    CHECK_EQ(pipe.records().size(), 3u);
    CHECK(d.area(4).slices > 0);
  }
}

} // namespace

int main() {
  testWrapperPipelineHappyPath();
  testLazyCachingAndRemap();
  testInvalidConfigStopsPipeline();
  testPrebuiltDesignSkipsModelPasses();
  testSystemDesignThroughPipeline();
  testPassDeadlineCancelsCosim();
  testPassDeadlineFlagsStubbornPass();
  testReusablePipeline();
  return testExit();
}
