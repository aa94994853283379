// Umbrella header: the full public API of the Checkmate C++ library.
//
// Quickstart:
//
//   #include "checkmate.h"
//   using namespace checkmate;
//
//   auto net   = model::zoo::vgg16(/*batch=*/32);
//   auto train = model::make_training_graph(net);
//   auto prob  = RematProblem::from_dnn(train,
//                                       model::CostMetric::kProfiledTimeUs);
//   Scheduler sched(prob);
//   auto result = sched.solve_optimal_ilp(/*budget_bytes=*/8e9);
//   // result.plan is the rematerialization schedule; result.sim validates
//   // cost and peak memory.
#pragma once

#include "baselines/baselines.h"
#include "core/batch_search.h"
#include "core/ilp_builder.h"
#include "core/plan.h"
#include "core/remat_problem.h"
#include "core/rounding.h"
#include "core/scheduler.h"
#include "core/simulator.h"
#include "core/solution.h"
#include "graph/graph.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "milp/milp.h"
#include "model/autodiff.h"
#include "model/cost_model.h"
#include "model/graph_builder.h"
#include "model/model_stats.h"
#include "model/zoo.h"
#include "service/plan_service.h"
