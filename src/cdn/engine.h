// The sharded, streaming, deterministic simulation engine.
//
// One engine run drives any number of sites through the delivery
// simulation concurrently. Work is sharded **by edge data center**: the
// geo mapping pins every user to one home DC (RouteIndex), so a
// shard = (site, DC) owns its edge cache, the browser caches of the users
// routed there, its slice of the site's time-sorted events, and a private
// cursor into the site's push plan. Shards never share mutable state, so
// they run freely on util::par's pool — and because the decomposition is a
// pure function of the workload (never of the thread count), the output is
// byte-identical at any `threads` value.
//
// Time advances in fixed epochs (SimulatorConfig::epoch_ms). Within an
// epoch every shard processes its events independently; at the epoch
// barrier each shard (a) finalizes the records whose timestamps fall
// before the boundary — no future event can emit an earlier record — and
// (b) when peer_fill is on, publishes an immutable, sorted snapshot of its
// cache holdings for sibling DCs to consult during the next epoch. The
// finalized shard streams are then k-way merged by
// (timestamp, site, event, chunk) into the RecordSink, which reproduces
// the legacy sequential simulator's stable time-sort byte for byte while
// holding only one epoch of records in memory.
// Checkpointing: at an epoch barrier every record with a timestamp before
// the boundary has already been merged into the sink and every cache/cursor
// is quiescent, so a snapshot taken there is both crash-consistent and
// trace-invariant — the barriers are fixed multiples of epoch_ms whether or
// not snapshots happen, so checkpoint cadence never changes the output
// stream. CheckpointOptions arms the trigger; a resumed run rebuilds the
// immutable structures (event routing, push plans) from the regenerated
// workload and restores only mutable state from the snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cdn/simulator.h"
#include "ckpt/checkpoint.h"
#include "synth/workload.h"
#include "trace/sink.h"

namespace atlas::cdn {

// One site's input to the engine. The generator supplies the object
// catalog and user population; `events` must be time-sorted (the engine
// throws std::invalid_argument otherwise). Records are tagged with
// `publisher_id`. Sites are merged in job order on timestamp ties.
struct SiteJob {
  const synth::WorkloadGenerator* generator = nullptr;
  const std::vector<synth::RequestEvent>* events = nullptr;
  std::uint32_t publisher_id = 0;
};

// Epoch-aligned checkpoint/restore policy for RunSharded.
struct CheckpointOptions {
  // Snapshot every N epoch barriers; 0 disables saving.
  std::uint64_t every_epochs = 0;
  // Snapshot destination; each save commits atomically (tmp + rename), so
  // a crash mid-save leaves the previous snapshot usable.
  std::string path;
  // Appends caller-owned sections (e.g. the TraceWriter's partial-block
  // state via SaveState) to every snapshot, after the engine's sections.
  // Runs inside the atomic commit, before the rename.
  std::function<void(ckpt::Writer&)> save_extra;
  // Called after each committed snapshot with the number of barriers
  // completed; return false to stop the run immediately (the in-process
  // "kill" the crash tests use). A stopped run's results are partial —
  // resume from the snapshot instead of using them.
  std::function<bool(std::uint64_t barriers_done)> after_save;
  // Restore engine state from this checkpoint before the first epoch. The
  // jobs/config must match the checkpointed run (verified by fingerprint).
  ckpt::Reader* resume = nullptr;
};

// Runs every job through the sharded engine, streaming the merged,
// time-sorted record stream of all sites into `sink`, and returns one
// counter accumulator per job (in job order). `threads <= 0` means
// util::DefaultThreads(). Checkpoint/restore is armed per `ckpt_options`
// (the default saves nothing and restores nothing).
std::vector<SimulatorResult> RunSharded(
    std::span<const SiteJob> jobs, const SimulatorConfig& config,
    trace::RecordSink& sink, int threads = 0,
    const CheckpointOptions& ckpt_options = {});

}  // namespace atlas::cdn
