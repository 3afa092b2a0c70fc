// atlas-lint phase-2 cross-TU rules. These see the whole ProjectIndex:
//
//   layer-dag                 include edges must follow the architectural
//                             DAG util -> ckpt -> {stats, trace} ->
//                             synth -> {cdn, cluster} -> {analysis, energy};
//                             a violation names the offending include chain.
//   lock-order                the global lock-acquisition-order graph
//                             (built from observed MutexLock nestings,
//                             with mutexes resolved to their declaring
//                             file) must be acyclic; a cycle reports every
//                             edge with its witness path.
//   unguarded-parallel-write  a mutable field (trailing-underscore member)
//                             written inside a ParallelFor/ParallelReduce
//                             lambda must be ATLAS_GUARDED_BY, atomic, or
//                             carry a justified allow.
//   fp-accumulation-order     floating-point +=/-= inside ParallelFor/
//                             ParallelReduce or ForEach lambdas accumulates
//                             in a thread- or table-layout-dependent order
//                             and threatens the golden-digest determinism
//                             proofs.
//   unused-suppression        an allow() pragma that suppressed nothing in
//                             the whole run is stale and must be deleted
//                             (runs last; consumes the Sink usage record).
#pragma once

#include <vector>

#include "atlas_lint/diagnostics.h"
#include "atlas_lint/index.h"

namespace atlas::lint {

// Rank of a src/ layer in the architectural DAG, or -1 for unknown paths.
// util=0, ckpt=1, stats=trace=2, synth=3, cdn=cluster=4, analysis=energy=5.
int LayerRank(const std::string& layer);

// Runs every project rule. `sinks[i]` belongs to `index.files[i]` and must
// already contain the per-file rule results (unused-suppression needs the
// full suppression-usage record, so this is the last phase).
void RunProjectRules(const ProjectIndex& index, std::vector<Sink>& sinks);

}  // namespace atlas::lint
