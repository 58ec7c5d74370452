// Table 1 (criticality + protection coverage matrix), Table 2 (model zoo),
// and the memory-overhead numbers of §5.2.2.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  bench::print_header("Layer criticality and protection coverage",
                      "Tables 1 and 2, §5.2.2 memory overhead");

  // Table 1: per layer kind, criticality (heuristic) and scheme coverage.
  // Criticality is shown for the architecture that has the layer.
  ModelConfig opt = zoo_entry("opt-sm").config;
  ModelConfig llama = zoo_entry("llama-sm").config;

  Table t1({"layer", "critical?", "ranger", "maximals", "global_clipper",
            "ft2"});
  const LayerKind rows[] = {
      LayerKind::kKProj,   LayerKind::kQProj,    LayerKind::kVProj,
      LayerKind::kOutProj, LayerKind::kFc1,      LayerKind::kFc2,
      LayerKind::kUpProj,  LayerKind::kGateProj, LayerKind::kDownProj};
  for (LayerKind kind : rows) {
    const ModelConfig& cfg = opt.has_layer(kind) ? opt : llama;
    const LayerGraph graph = LayerGraph::build(cfg);
    t1.begin_row().cell(std::string(layer_kind_name(kind)));
    t1.cell(layer_is_critical(graph, kind) ? "Y" : "N");
    for (const SchemeSpec& spec : {scheme_spec(SchemeKind::kRanger, cfg),
                                   scheme_spec(SchemeKind::kMaxiMals, cfg),
                                   scheme_spec(SchemeKind::kGlobalClipper, cfg),
                                   scheme_spec(SchemeKind::kFt2, cfg)}) {
      t1.cell(spec.covers(kind) ? "x" : "");
    }
  }
  t1.print(std::cout);
  std::cout << "(paper Table 1: critical = V_PROJ, OUT_PROJ, FC2, UP_PROJ, "
               "DOWN_PROJ; FT2 covers all of them)\n\n";

  // Table 2: the model zoo.
  Table t2({"paper model", "repo model", "arch", "params", "tasks"});
  for (const auto& e : model_zoo()) {
    Xoshiro256 rng(e.seed);
    const ModelWeights w = init_weights(e.config, rng);
    std::string tasks;
    for (DatasetKind k : e.tasks) {
      if (!tasks.empty()) tasks += "/";
      tasks += dataset_name(k);
    }
    const char* arch = e.config.arch == ArchFamily::kOpt     ? "OPT"
                       : e.config.arch == ArchFamily::kGptj  ? "GPT-J"
                                                             : "Llama";
    t2.begin_row()
        .cell(e.paper_name)
        .cell(e.name)
        .cell(arch)
        .count(w.parameter_count())
        .cell(tasks);
  }
  t2.print(std::cout);

  // Memory overhead (paper: 288 - 512 bytes, 72 - 128 protected layers at
  // paper scale; scaled down with our block counts).
  std::cout << "\nFT2 bound storage per model (2 floats per protected layer):\n";
  Table t3({"model", "protected layers", "bytes"});
  for (const auto& e : model_zoo()) {
    ProtectionHook hook(e.config, scheme_spec(SchemeKind::kFt2, e.config));
    t3.begin_row()
        .cell(e.name)
        .count(hook.protected_layer_count())
        .count(hook.bound_memory_bytes());
  }
  t3.print(std::cout);
  std::cout << "(paper: 288-512 bytes across 72-128 protected layers, <0.2% "
               "of model memory)\n";
  return 0;
}
