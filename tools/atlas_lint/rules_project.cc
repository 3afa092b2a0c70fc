#include "atlas_lint/rules_project.h"

#include <algorithm>
#include <map>
#include <queue>
#include <regex>
#include <set>
#include <string>
#include <utility>

namespace atlas::lint {
namespace {

constexpr const char* kDagText =
    "util -> ckpt -> {stats, trace} -> synth -> {cdn, cluster} -> "
    "{analysis, energy}";

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// "src/<layer>/..." -> "<layer>"; "" otherwise.
std::string LayerOf(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  const std::size_t end = path.find('/', 4);
  if (end == std::string::npos) return "";
  return path.substr(4, end - 4);
}

// First component of an include target, with an optional "src/" prefix
// stripped: "util/par.h" -> "util", "src/util/par.h" -> "util".
std::string TargetLayer(const std::string& target) {
  std::string t = target;
  if (StartsWith(t, "src/")) t = t.substr(4);
  const std::size_t end = t.find('/');
  if (end == std::string::npos) return "";
  return t.substr(0, end);
}

// ---------------------------------------------------------------------------
// layer-dag
// ---------------------------------------------------------------------------

void CheckLayerDag(const ProjectIndex& index, std::vector<Sink>& sinks) {
  // Reverse include map (resolved within the project), for naming the
  // chain a violating header is reached through.
  std::map<std::string, std::set<std::string>> included_by;
  for (const FileIndex& f : index.files) {
    for (const IncludeEdge& inc : f.includes) {
      if (const FileIndex* target = index.Resolve(f.path, inc.target)) {
        included_by[target->path].insert(f.path);
      }
    }
  }
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const FileIndex& f = index.files[i];
    const std::string layer = LayerOf(f.path);
    const int rank = LayerRank(layer);
    if (rank < 0) continue;  // tools/ and bench/ may include anything
    for (const IncludeEdge& inc : f.includes) {
      const std::string target_layer = TargetLayer(inc.target);
      const int target_rank = LayerRank(target_layer);
      if (target_rank < 0) continue;      // not a layered include
      if (target_layer == layer) continue;  // intra-layer is fine
      if (target_rank < rank) continue;     // strictly downward is fine
      // The chain: who reaches this file, then the offending edge. A
      // violation inside a header names one includer so the report reads
      // as the path a consumer actually takes.
      std::string chain = f.path + " -> \"" + inc.target + "\"";
      const auto rev = included_by.find(f.path);
      if (rev != included_by.end() && !rev->second.empty()) {
        chain = *rev->second.begin() + " -> " + chain;
      }
      sinks[i].Report(
          inc.line, 1, "layer-dag",
          "include chain " + chain + " crosses the layer DAG upward: '" +
              layer + "' (rank " + std::to_string(rank) +
              ") must not depend on '" + target_layer + "' (rank " +
              std::to_string(target_rank) + "); the DAG is " + kDagText);
    }
  }
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

struct LockWitness {
  std::string file;
  std::size_t held_line = 0;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string held_name;      // unqualified, as written at the site
  std::string acquired_name;
};

// Resolves a mutex name acquired in `from` to a stable global key: the
// declaring file (searched breadth-first through the include closure,
// nearest declaration wins) plus the name. Undeclared names fall back to
// the acquiring file so unrelated same-named locals never alias.
std::string MutexKey(const ProjectIndex& index, const FileIndex& from,
                     const std::string& name) {
  // Prefer the sibling header: a mutex declared there is one lock shared
  // by the .h and the .cc, and both must resolve to the same key.
  const std::size_t dot = from.path.find_last_of('.');
  if (dot != std::string::npos && from.path.substr(dot) != ".h" &&
      from.path.substr(dot) != ".hpp") {
    const FileIndex* header = index.Find(from.path.substr(0, dot) + ".h");
    if (header != nullptr && header->mutex_decls.count(name) > 0) {
      return header->path + "::" + name;
    }
  }
  std::queue<const FileIndex*> frontier;
  std::set<std::string> seen;
  frontier.push(&from);
  seen.insert(from.path);
  while (!frontier.empty()) {
    const FileIndex* f = frontier.front();
    frontier.pop();
    if (f->mutex_decls.count(name) > 0) return f->path + "::" + name;
    for (const IncludeEdge& inc : f->includes) {
      if (const FileIndex* target = index.Resolve(f->path, inc.target)) {
        if (seen.insert(target->path).second) frontier.push(target);
      }
    }
  }
  return from.path + "::" + name;
}

void CheckLockOrder(const ProjectIndex& index, std::vector<Sink>& sinks) {
  // Build the global acquired-while-held graph; keep the first witness per
  // edge (files are sorted and nestings appear in file order, so "first"
  // is deterministic).
  std::map<std::pair<std::string, std::string>, LockWitness> edges;
  std::map<std::string, std::size_t> anchor_sink;  // edge from-key -> file
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const FileIndex& f = index.files[i];
    for (const LockNesting& nest : f.lock_nestings) {
      const std::string from = MutexKey(index, f, nest.held);
      const std::string to = MutexKey(index, f, nest.acquired);
      const auto key = std::make_pair(from, to);
      if (edges.count(key) > 0) continue;
      edges[key] = {f.path, nest.held_line, nest.line, nest.col,
                    nest.held,  nest.acquired};
      anchor_sink[from + "\n" + to] = i;
    }
  }
  // Tarjan-free SCC via Kosaraju on the (small, sorted) key graph.
  std::set<std::string> nodes;
  std::map<std::string, std::set<std::string>> fwd, rev;
  for (const auto& [key, w] : edges) {
    nodes.insert(key.first);
    nodes.insert(key.second);
    fwd[key.first].insert(key.second);
    rev[key.second].insert(key.first);
  }
  const auto reach = [](const std::map<std::string, std::set<std::string>>& g,
                        const std::string& start) {
    std::set<std::string> out;
    std::queue<std::string> q;
    q.push(start);
    out.insert(start);
    while (!q.empty()) {
      const std::string n = q.front();
      q.pop();
      const auto it = g.find(n);
      if (it == g.end()) continue;
      for (const std::string& m : it->second) {
        if (out.insert(m).second) q.push(m);
      }
    }
    return out;
  };
  std::set<std::string> reported;
  for (const std::string& node : nodes) {
    if (reported.count(node) > 0) continue;
    std::set<std::string> scc;
    const std::set<std::string> down = reach(fwd, node);
    const std::set<std::string> up = reach(rev, node);
    for (const std::string& n : down) {
      if (up.count(n) > 0) scc.insert(n);
    }
    // A cycle needs either several mutually-reachable locks or a self-edge
    // (the same mutex re-acquired while already held).
    const bool self_loop =
        fwd.count(node) > 0 && fwd.at(node).count(node) > 0;
    if (scc.size() < 2 && !self_loop) continue;
    for (const std::string& n : scc) reported.insert(n);
    // Every edge inside the component, each with its witness path.
    std::string detail;
    const LockWitness* anchor = nullptr;
    std::size_t anchor_file = 0;
    for (const auto& [key, w] : edges) {
      if (scc.count(key.first) == 0 || scc.count(key.second) == 0) continue;
      if (!detail.empty()) detail += "; ";
      detail += key.first + " -> " + key.second + " witnessed at " + w.file +
                ":" + std::to_string(w.line) + " ('" + w.acquired_name +
                "' acquired while holding '" + w.held_name + "' from line " +
                std::to_string(w.held_line) + ")";
      if (anchor == nullptr) {
        anchor = &w;
        anchor_file = anchor_sink.at(key.first + "\n" + key.second);
      }
    }
    if (anchor == nullptr) continue;
    std::string members;
    for (const std::string& n : scc) {
      if (!members.empty()) members += ", ";
      members += n;
    }
    if (members.empty()) members = node;
    sinks[anchor_file].Report(
        anchor->line, anchor->col, "lock-order",
        "lock-acquisition-order cycle (potential deadlock) among {" +
            members + "}: " + detail +
            " — acquire these mutexes in one global order");
  }
}

// ---------------------------------------------------------------------------
// unguarded-parallel-write
// ---------------------------------------------------------------------------

void CheckUnguardedParallelWrite(const ProjectIndex& index,
                                 std::vector<Sink>& sinks) {
  static const std::regex kFieldWrite(
      R"re((?:^|[^\w.>:])([A-Za-z_]\w*_)\s*()re"
      R"re(\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--|=[^=]))re");
  static const std::regex kPrefixIncDec(
      R"((?:\+\+|--)\s*([A-Za-z_]\w*_)\b)");
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const FileIndex& f = index.files[i];
    if (!StartsWith(f.path, "src/")) continue;
    if (f.parallel_regions.empty()) continue;
    const auto check = [&](std::size_t at, const std::string& name) {
      if (!f.InParallelRegion(at)) return;
      if (f.guarded_fields.count(name) > 0) return;
      if (f.atomic_fields.count(name) > 0) return;
      sinks[i].Report(
          f.line_of[at], f.col_of[at], "unguarded-parallel-write",
          "mutable field '" + name +
              "' is written inside a parallel-region lambda but carries no "
              "ATLAS_GUARDED_BY and is not atomic; guard it, make the slot "
              "shard-private, or justify with "
              "// atlas-lint: allow(unguarded-parallel-write)");
    };
    for (auto it = std::sregex_iterator(f.flat.begin(), f.flat.end(),
                                        kFieldWrite);
         it != std::sregex_iterator(); ++it) {
      check(static_cast<std::size_t>(it->position(1)), (*it)[1].str());
    }
    for (auto it = std::sregex_iterator(f.flat.begin(), f.flat.end(),
                                        kPrefixIncDec);
         it != std::sregex_iterator(); ++it) {
      check(static_cast<std::size_t>(it->position(1)), (*it)[1].str());
    }
  }
}

// ---------------------------------------------------------------------------
// fp-accumulation-order
// ---------------------------------------------------------------------------

void CheckFpAccumulationOrder(const ProjectIndex& index,
                              std::vector<Sink>& sinks) {
  static const std::regex kAccum(R"(([A-Za-z_]\w*)\s*(\+=|-=))");
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const FileIndex& f = index.files[i];
    if (!StartsWith(f.path, "src/")) continue;
    if (f.parallel_regions.empty() && f.foreach_regions.empty()) continue;
    for (auto it =
             std::sregex_iterator(f.flat.begin(), f.flat.end(), kAccum);
         it != std::sregex_iterator(); ++it) {
      const std::size_t at = static_cast<std::size_t>(it->position(1));
      const std::string name = (*it)[1].str();
      if (f.fp_names.count(name) == 0) continue;
      const bool parallel = f.InParallelRegion(at);
      const bool foreach = f.InForEachRegion(at);
      if (!parallel && !foreach) continue;
      const std::string where =
          parallel ? "a ParallelFor/ParallelReduce lambda"
                   : "a ForEach lambda (unordered-table iteration order)";
      sinks[i].Report(
          f.line_of[at], f.col_of[at], "fp-accumulation-order",
          "floating-point accumulation '" + name + " " + (*it)[2].str() +
              "' inside " + where +
              " folds in an execution-order-dependent sequence; FP addition "
              "does not commute bit-exactly, so this threatens the "
              "golden-digest determinism proofs — reduce into per-shard "
              "slots folded in index order (util::ParallelReduce), sort the "
              "keys first, or justify with "
              "// atlas-lint: allow(fp-accumulation-order)");
    }
  }
}

// ---------------------------------------------------------------------------
// unused-suppression
// ---------------------------------------------------------------------------

void CheckUnusedSuppressions(const ProjectIndex& index,
                             std::vector<Sink>& sinks) {
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const FileIndex& f = index.files[i];
    // Snapshot: reporting below may itself consume an
    // allow(unused-suppression) pragma, which is fine — but it must never
    // retroactively mark anything else used.
    const auto used = sinks[i].used_allows();
    for (const auto& [line, rules] : f.allows) {
      for (const std::string& rule : rules) {
        if (rule == "unused-suppression") continue;
        if (used.count({line, rule}) > 0) continue;
        const std::string why =
            IsKnownRule(rule)
                ? "no '" + rule +
                      "' finding is suppressed by this pragma anymore"
                : "'" + rule + "' is not a known rule";
        sinks[i].Report(line, 1, "unused-suppression",
                        "stale suppression: " + why +
                            "; delete the allow() (the finding it silenced "
                            "is gone, and a stale allow would mask a future "
                            "regression)");
      }
    }
  }
}

}  // namespace

int LayerRank(const std::string& layer) {
  if (layer == "util") return 0;
  if (layer == "ckpt") return 1;
  if (layer == "stats" || layer == "trace") return 2;
  if (layer == "synth") return 3;
  if (layer == "cdn" || layer == "cluster") return 4;
  if (layer == "analysis" || layer == "energy") return 5;
  return -1;
}

void RunProjectRules(const ProjectIndex& index, std::vector<Sink>& sinks) {
  CheckLayerDag(index, sinks);
  CheckLockOrder(index, sinks);
  CheckUnguardedParallelWrite(index, sinks);
  CheckFpAccumulationOrder(index, sinks);
  CheckUnusedSuppressions(index, sinks);  // must run last
}

}  // namespace atlas::lint
