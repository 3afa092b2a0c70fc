#include "atlas_lint/diagnostics.h"

#include <algorithm>
#include <tuple>

#include "atlas_lint/index.h"

namespace atlas::lint {

bool FindingBefore(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.col, a.rule) <
         std::tie(b.file, b.line, b.col, b.rule);
}

std::string FormatFinding(const Finding& f) {
  std::string out = f.file + ":" + std::to_string(f.line);
  if (f.col > 0) out += ":" + std::to_string(f.col);
  out += ": [" + f.rule + "] " + f.message;
  return out;
}

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"ckpt-unversioned-blob",
       "SaveState implementations must serialize through ckpt::Writer's "
       "typed, versioned section API, never raw stream writes"},
      {"fp-accumulation-order",
       "floating-point +=/-= reductions inside ParallelFor/ForEach lambdas "
       "depend on evaluation order and threaten golden-digest determinism"},
      {"layer-dag",
       "includes must follow the architectural DAG util -> ckpt -> "
       "{stats, trace} -> synth -> {cdn, cluster} -> {analysis, energy}"},
      {"lock-order",
       "the global lock-acquisition-order graph must stay acyclic; a cycle "
       "is a potential deadlock"},
      {"missing-pragma-once", "every header starts with #pragma once"},
      {"mutex-unannotated",
       "every Mutex must guard something via ATLAS_GUARDED_BY/REQUIRES"},
      {"narrow-byte-counter",
       "byte/size counters in cdn/analysis must be 64-bit unsigned"},
      {"nondet-rand", "rand()/srand() are banned; use util::Rng"},
      {"nondet-random-device",
       "std::random_device is nondeterministic; seed util::Rng explicitly"},
      {"nondet-system-clock",
       "wall-clock reads are banned in library code outside util/time"},
      {"nondet-time", "wall-clock time() is banned in library code"},
      {"perrecord-in-hotpath",
       "hot analysis/cdn layers stream SoA RecordBlocks, not per-record "
       "NextRecord()/PushRecord() adapter calls"},
      {"raw-new-delete",
       "no raw new/delete; use containers or std::unique_ptr"},
      {"raw-std-mutex",
       "raw std synchronization types are invisible to -Wthread-safety; "
       "use util::Mutex/MutexLock/CondVar"},
      {"stale-baseline",
       "a .lint-baseline entry no longer matches any live finding; "
       "regenerate the baseline with --write-baseline"},
      {"tracebuffer-in-cdn",
       "the simulator streams through trace::RecordSink; no materialized "
       "TraceBuffer members/returns in src/cdn/"},
      {"unchecked-index-cast",
       "static_cast<uint32_t> in the synth layer wraps silently; use "
       "util::CheckedIndexU32"},
      {"unguarded-parallel-write",
       "a mutable field written inside a parallel-region lambda needs "
       "ATLAS_GUARDED_BY, an atomic type, or a justified allow"},
      {"unordered-iter",
       "accumulating over unordered-container iteration order must be "
       "proven order-insensitive and annotated"},
      {"unused-suppression",
       "an atlas-lint allow() pragma that no longer suppresses anything is "
       "stale and must be deleted"},
  };
  return kRules;
}

std::vector<std::string> RuleNames() {
  std::vector<std::string> names;
  names.reserve(Rules().size());
  for (const RuleInfo& r : Rules()) names.emplace_back(r.name);
  return names;
}

bool IsKnownRule(const std::string& rule) {
  for (const RuleInfo& r : Rules()) {
    if (rule == r.name) return true;
  }
  return false;
}

std::size_t Sink::AllowLineFor(std::size_t line,
                               const std::string& rule) const {
  const auto at = [&](std::size_t l) {
    const auto it = file_.allows.find(l);
    return it != file_.allows.end() && it->second.count(rule) > 0;
  };
  if (at(line)) return line;
  // A multi-line justification may carry the allow() on its first line:
  // walk up through the contiguous block of comment-only lines directly
  // above the finding.
  for (std::size_t l = line; l > 1;) {
    --l;
    if (l >= file_.scrubbed.code.size()) break;
    const bool comment_only =
        file_.scrubbed.code[l].find_first_not_of(" \t") ==
            std::string::npos &&
        !file_.scrubbed.comment[l].empty();
    if (!comment_only) break;
    if (at(l)) return l;
  }
  return 0;
}

void Sink::Report(std::size_t line, std::size_t col, const std::string& rule,
                  const std::string& message) {
  if (const std::size_t allow_line = AllowLineFor(line, rule)) {
    used_allows_.insert({allow_line, rule});
    return;
  }
  findings_.push_back({file_.path, line, col, rule, message});
}

}  // namespace atlas::lint
