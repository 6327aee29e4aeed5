// Umbrella header for the tcfrag library — data fragmentation for parallel
// transitive closure strategies (Houtsma, Apers & Schipper, ICDE 1993).
//
// Typical usage (see examples/quickstart.cc):
//
//   tcf::Rng rng(7);
//   tcf::TransportationGraphOptions gen;
//   auto t = tcf::GenerateTransportationGraph(gen, &rng);
//
//   tcf::BondEnergyOptions bea;
//   tcf::Fragmentation frag = tcf::BondEnergyFragmentation(t.graph, bea);
//
//   tcf::DsaDatabase db(&frag);
//   auto answer = db.ShortestPath(0, 99);
#pragma once

#include "dsa/batch.h"           // IWYU pragma: export
#include "dsa/bottleneck.h"      // IWYU pragma: export
#include "dsa/chains.h"          // IWYU pragma: export
#include "dsa/complementary.h"   // IWYU pragma: export
#include "dsa/executor.h"        // IWYU pragma: export
#include "dsa/local_query.h"     // IWYU pragma: export
#include "dsa/maintenance.h"     // IWYU pragma: export
#include "dsa/phe.h"             // IWYU pragma: export
#include "dsa/query_api.h"       // IWYU pragma: export
#include "dsa/sites.h"           // IWYU pragma: export
#include "fragment/bond_energy.h"       // IWYU pragma: export
#include "fragment/center_based.h"      // IWYU pragma: export
#include "fragment/fragmentation.h"     // IWYU pragma: export
#include "fragment/fragmentation_io.h"  // IWYU pragma: export
#include "fragment/kernighan_lin.h"     // IWYU pragma: export
#include "fragment/linear.h"            // IWYU pragma: export
#include "fragment/metrics.h"           // IWYU pragma: export
#include "fragment/node_partition.h"    // IWYU pragma: export
#include "fragment/random_partition.h"  // IWYU pragma: export
#include "fragment/relevant_nodes.h"    // IWYU pragma: export
#include "graph/algorithms.h"    // IWYU pragma: export
#include "graph/builder.h"       // IWYU pragma: export
#include "graph/generator.h"     // IWYU pragma: export
#include "graph/graph.h"         // IWYU pragma: export
#include "graph/io.h"            // IWYU pragma: export
#include "graph/min_cut.h"       // IWYU pragma: export
#include "graph/status_score.h"  // IWYU pragma: export
#include "relational/operators.h"           // IWYU pragma: export
#include "relational/relation.h"            // IWYU pragma: export
#include "relational/transitive_closure.h"  // IWYU pragma: export
#include "relational/warshall.h"            // IWYU pragma: export
#include "storage/buffer_pool.h"  // IWYU pragma: export
#include "storage/crc32c.h"       // IWYU pragma: export
#include "storage/database_io.h"  // IWYU pragma: export
#include "storage/page.h"         // IWYU pragma: export
#include "storage/page_store.h"   // IWYU pragma: export
#include "util/logging.h"      // IWYU pragma: export
#include "util/rng.h"          // IWYU pragma: export
#include "util/stats.h"        // IWYU pragma: export
#include "util/status.h"       // IWYU pragma: export
#include "util/channel.h"      // IWYU pragma: export
#include "util/thread_pool.h"  // IWYU pragma: export
#include "util/timer.h"        // IWYU pragma: export
