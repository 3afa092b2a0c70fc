// atlas-lint phase 1: the project index.
//
// BuildProjectIndex walks src/, tools/ and bench/ under the repo root and
// builds one FileIndex per translation unit (deterministically, in sorted
// path order; the per-file work runs under util::ParallelFor and is a pure
// function of the file contents, so the index is byte-stable at any thread
// count). Phase 2 rules — per-file (rules_file.h) and cross-TU
// (rules_project.h) — run over these facts and never re-read the tree.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "atlas_lint/lexer.h"

namespace atlas::lint {

// A `#include "..."` edge (quoted includes only; system headers carry no
// layering or declaration information we use).
struct IncludeEdge {
  std::size_t line = 0;
  std::string target;  // as written, e.g. "util/par.h"
};

// One `util::MutexLock lock(expr);` acquisition site.
struct LockSite {
  std::string mutex;     // last identifier of the locked expression
  std::size_t line = 0;
  std::size_t col = 0;
};

// An acquisition observed while another lock is held in an enclosing scope
// of the same function body: the raw material of the lock-order graph.
struct LockNesting {
  std::string held;           // outer mutex name
  std::size_t held_line = 0;
  std::string acquired;       // inner mutex name
  std::size_t line = 0;       // acquisition line of the inner lock
  std::size_t col = 0;
};

// A half-open [begin, end) range into FileIndex::flat.
struct FlatRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct FileIndex {
  std::string path;  // repo-relative, '/'-separated

  ScrubbedFile scrubbed;
  std::map<std::size_t, std::set<std::string>> allows;

  // Flattened code view for multi-line constructs: newlines become spaces;
  // line_of/col_of map flat positions back to 1-based line/column.
  std::string flat;
  std::vector<std::size_t> line_of;
  std::vector<std::size_t> col_of;

  // Sibling-header code (declarations context), flattened. Empty for
  // headers. Name sets below already merge the context's declarations.
  std::string decl_flat;

  std::vector<IncludeEdge> includes;

  // Declared `Mutex name` members/globals (file + declaration context).
  std::set<std::string> mutex_decls;
  // Names referenced by an ATLAS_GUARDED_BY/REQUIRES/... annotation.
  std::set<std::string> guarded_fields;
  // Names declared with a std::atomic type.
  std::set<std::string> atomic_fields;
  // Names declared float/double (conservative: any declaration counts).
  std::set<std::string> fp_names;

  std::vector<LockSite> lock_sites;
  std::vector<LockNesting> lock_nestings;

  // Argument ranges of parallel calls and of .ForEach(...) calls
  // (unordered-iteration regions), in flat. A parallel call is one to
  // ParallelFor, ParallelReduce or a pool's Run, or to a forwarder: a
  // function, defined anywhere in the project, that hands a std::function
  // parameter straight to one of those three (cdn::Engine::ForEachShard,
  // StreamingAnalysis::RunTasks), so its callers' lambdas run on the pool.
  std::vector<FlatRange> parallel_regions;
  std::vector<FlatRange> foreach_regions;
  // The forwarders this file defines.
  std::set<std::string> forwarders;

  bool InParallelRegion(std::size_t flat_pos) const;
  bool InForEachRegion(std::size_t flat_pos) const;
};

// Indexes one file. `decl_context` is optional extra source whose
// declarations count when resolving names (the sibling header of a .cc).
FileIndex BuildFileIndex(const std::string& path, const std::string& content,
                         const std::string& decl_context = "");

struct ProjectIndex {
  std::vector<FileIndex> files;  // sorted by path
  // Path -> index into files. Keys include both the repo-relative path and
  // its src/-relative alias (how in-tree code spells its includes).
  std::map<std::string, std::size_t> by_path;

  const FileIndex* Find(const std::string& path) const;
  // Resolves an include target as seen from `from` to an indexed file, or
  // nullptr (system/vendored headers).
  const FileIndex* Resolve(const std::string& from,
                           const std::string& target) const;
};

// Builds the index over every .h/.hpp/.cc/.cpp file under root/{src,tools,
// bench}. File contents are read sequentially (sorted order); per-file
// indexing fans out over util::ParallelFor(threads).
ProjectIndex BuildProjectIndex(const std::string& root, int threads = 0);

// Wraps already-loaded sources (path -> content) into a ProjectIndex; the
// corpus tests use this to index fixture trees without touching disk.
ProjectIndex IndexSources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    int threads = 0);

}  // namespace atlas::lint
