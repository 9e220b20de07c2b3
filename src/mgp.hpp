// Umbrella header: the full public API of the mgp library.
//
// Most applications only need three calls:
//
//   mgp::Graph g = mgp::read_metis_graph_file("mesh.graph");
//   mgp::Rng rng(1995);
//   auto part = mgp::kway_partition(g, 8, mgp::MultilevelConfig{}, rng);
//
// Include the individual headers instead when compile time matters.
#pragma once

// Substrates.
#include "support/types.hpp"       // vid_t / eid_t / weights
#include "support/rng.hpp"         // deterministic randomness
#include "support/timer.hpp"       // wall-clock stopwatch
#include "support/thread_pool.hpp" // work-helping pool for the parallel pipeline
#include "support/bucket_queue.hpp"

// Observability: tracing spans, sharded metrics, phase times, structured
// run reports.  Attach an obs::Obs via MultilevelConfig::obs; see DESIGN.md §6.
#include "obs/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"           // CTime/ITime/RTime/PTime counters
#include "obs/report.hpp"

// Graphs.
#include "graph/csr.hpp"           // the CSR Graph
#include "graph/builder.hpp"       // edge-list construction
#include "graph/generators.hpp"    // meshes, circuits, the paper suite
#include "graph/io.hpp"            // METIS / MatrixMarket files
#include "graph/partition_io.hpp"  // partition & permutation files
#include "graph/components.hpp"
#include "graph/permute.hpp"

// The multilevel algorithm (the paper's contribution).
#include "coarsen/matching.hpp"    // RM / HEM / LEM / HCM
#include "coarsen/parallel_matching.hpp"
#include "coarsen/contract.hpp"
#include "initpart/graph_grow.hpp" // GGP / GGGP
#include "initpart/spectral_init.hpp"
#include "refine/refine.hpp"       // GR / KLR / BGR / BKLR / BKLGR
#include "core/config.hpp"
#include "core/multilevel.hpp"     // one bisection
#include "core/kway.hpp"           // recursive k-way
#include "core/kway_direct.hpp"    // direct multilevel k-way (extension)
#include "core/chaco_ml.hpp"       // the Chaco-ML baseline

// Dynamic graphs (extension): delta batches, the CSR patcher, and
// warm-start incremental repartitioning.
#include "dynamic/delta.hpp"
#include "dynamic/delta_script.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/incremental.hpp"

// Spectral methods (baselines).
#include "spectral/fiedler.hpp"
#include "spectral/msb.hpp"        // MSB / MSB-KL

// Fill-reducing orderings.
#include "order/nested_dissection.hpp"  // MLND / SND
#include "order/mmd.hpp"                // multiple minimum degree
#include "order/symbolic.hpp"           // symbolic Cholesky / etree metrics

// Numeric solvers (extensions).
#include "cholesky/sparse_cholesky.hpp"

// Geometry (extensions).
#include "geom/geometry.hpp"
#include "geom/geometric_bisect.hpp"
#include "geom/delaunay.hpp"

// Quality metrics.
#include "metrics/partition_metrics.hpp"
#include "metrics/ordering_metrics.hpp"
