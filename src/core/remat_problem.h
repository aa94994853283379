// The tensor rematerialization problem instance (Section 4.1): a
// topologically-labeled data-flow DAG G = (V, E), per-node compute costs C_v
// and output memory M_v, plus the constant memory overhead that is always
// resident (parameters and reserved parameter-gradient space, Eq. 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "model/autodiff.h"
#include "model/cost_model.h"

namespace checkmate {

struct RematProblem {
  std::string name;
  Graph graph;                      // ids follow a topological order
  std::vector<double> cost;         // C_v >= 0 (time or FLOPs)
  std::vector<double> memory;       // M_v in bytes
  double fixed_overhead = 0.0;      // bytes: params + reserved grads
  std::vector<uint8_t> is_backward; // gradient node flags
  std::vector<NodeId> grad_of;      // forward node differentiated, or -1
  std::vector<std::string> node_names;

  int size() const { return graph.size(); }

  double total_cost_all_nodes() const;
  double forward_cost() const;
  double backward_cost() const;
  double max_node_memory() const;
  // Sum of all node memories + overhead: trivial upper bound on any budget.
  double total_memory() const;

  // Structural lower bound on any feasible budget: when node k is
  // evaluated, its output and every direct dependency must be resident
  // simultaneously (plus the fixed overhead). Budgets below this value are
  // infeasible for every schedule.
  double memory_floor() const;

  // First stage at which a backward node is evaluated (== its id), or
  // size() if the problem has no backward nodes.
  int first_backward_stage() const;

  // Canonical content hash of everything the MILP formulation depends on:
  // topology (edge list), per-node costs and memories (exact bit
  // patterns), the fixed overhead, and the backward/grad structure. Names
  // are cosmetic and excluded. Two problems with equal fingerprints yield
  // identical formulations at any budget, so the hash routes the plan
  // store's staircase lookups and the plan service's single-flight
  // requests.
  uint64_t fingerprint() const;

  // Canonical byte encoding of exactly the content fingerprint() hashes
  // (same field order, same -0.0 normalization; names excluded). Two
  // problems yield equal blobs iff they yield identical formulations, so
  // blob equality is the hard collision guard behind the 64-bit
  // fingerprint wherever a wrong match must be impossible -- the disk
  // plan store compares full blobs before serving a record
  // (src/store/plan_store.h). Any change to this layout or to
  // fingerprint() must bump store::kPlanStoreFormatVersion and regenerate
  // tests/data/fingerprints.golden.
  std::string serialize_canonical() const;

  void validate() const;

  // Builds an instance from a training graph produced by
  // model::make_training_graph (or a pure forward graph).
  static RematProblem from_dnn(const model::DnnGraph& graph,
                               model::CostMetric metric,
                               const model::CostModelOptions& options = {});

  // Abstract chain of n nodes with unit cost and unit memory (the Section
  // 4.6 / Appendix A instance family).
  static RematProblem unit_chain(int n);

  // Unit-cost/unit-memory training chain: `layers` forward ops + loss +
  // `layers` gradient ops, n = 2*layers + 1. layers = 8 gives the paper's
  // n = 17 example (Section 4.6, Appendix A). Gradient of layer k depends
  // on v_k, v_{k-1} and the upstream gradient.
  static RematProblem unit_training_chain(int layers);
};

}  // namespace checkmate
