#include "atlas_lint/index.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <utility>

#include "util/par.h"

namespace atlas::lint {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Last [A-Za-z0-9_]+ run in `expr` — "other.mu_" -> "mu_", "*mu" -> "mu".
std::string LastIdentifier(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && !(std::isalnum(static_cast<unsigned char>(expr[end - 1])) ||
                      expr[end - 1] == '_')) {
    --end;
  }
  std::size_t begin = end;
  while (begin > 0 && (std::isalnum(static_cast<unsigned char>(
                           expr[begin - 1])) ||
                       expr[begin - 1] == '_')) {
    --begin;
  }
  return expr.substr(begin, end - begin);
}

// Quoted includes. Directive detection runs on the scrubbed code (so a
// commented-out #include never matches) but the path itself is read from
// the raw line — Scrub blanks string bodies, and the include path *is* a
// string body.
std::vector<IncludeEdge> ExtractIncludes(const std::string& content,
                                         const ScrubbedFile& scrubbed) {
  std::vector<IncludeEdge> out;
  static const std::regex kDirective(R"(^\s*#\s*include\s*")");
  static const std::regex kRawPath(R"re(#\s*include\s*"([^"\n]+)")re");
  std::vector<std::string> raw_lines;
  raw_lines.emplace_back();  // [0] unused
  std::istringstream in(content);
  for (std::string line; std::getline(in, line);) raw_lines.push_back(line);
  for (std::size_t i = 1; i < scrubbed.code.size() && i < raw_lines.size();
       ++i) {
    if (!std::regex_search(scrubbed.code[i], kDirective)) continue;
    std::smatch m;
    if (std::regex_search(raw_lines[i], m, kRawPath)) {
      out.push_back({i, m[1].str()});
    }
  }
  return out;
}

void CollectNames(const std::string& text, FileIndex& idx) {
  // `Mutex name` declarations (members, locals, globals). MutexLock does
  // not match: \b requires the token to be exactly `Mutex`.
  static const std::regex kMutexDecl(R"(\bMutex\s+([A-Za-z_]\w*)\s*[;={])");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kMutexDecl);
       it != std::sregex_iterator(); ++it) {
    idx.mutex_decls.insert((*it)[1].str());
  }
  // Names inside thread-safety annotations: both the guarded field (the
  // identifier directly before the macro) and the mutexes referenced in
  // the argument list.
  static const std::regex kAnnotation(
      R"(([A-Za-z_]\w*)\s*ATLAS_(?:PT_)?GUARDED_BY\s*\(([^)]*)\))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kAnnotation);
       it != std::sregex_iterator(); ++it) {
    idx.guarded_fields.insert((*it)[1].str());
  }
  // std::atomic<...> name / std::atomic_uint name.
  static const std::regex kAtomic(
      R"(\batomic(?:_\w+)?\s*(?:<[^;{}]*?>)?\s+([A-Za-z_]\w*)\s*[;={(])");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kAtomic);
       it != std::sregex_iterator(); ++it) {
    idx.atomic_fields.insert((*it)[1].str());
  }
  // float/double declarations. Conservative aliasing: any identifier ever
  // declared floating counts everywhere in the file.
  static const std::regex kFp(
      R"(\b(?:double|float)\s+(?:const\s+)?([A-Za-z_]\w*)\s*([;={,)\[]|\+=|-=))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kFp);
       it != std::sregex_iterator(); ++it) {
    idx.fp_names.insert((*it)[1].str());
  }
}

// Finds call-argument ranges of `re` matches: the range spans from the
// opening '(' (exclusive) to its balanced ')' (exclusive).
void CollectCallRanges(const std::string& flat, const std::regex& re,
                       std::vector<FlatRange>& out) {
  for (auto it = std::sregex_iterator(flat.begin(), flat.end(), re);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position(0)) +
                      static_cast<std::size_t>(it->length(0));
    // position is just past the '(' matched by the regex tail.
    const std::size_t begin = pos;
    int depth = 1;
    while (pos < flat.size() && depth > 0) {
      if (flat[pos] == '(') ++depth;
      if (flat[pos] == ')') --depth;
      ++pos;
    }
    out.push_back({begin, pos > begin ? pos - 1 : begin});
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Identifier ending just before `end` in `flat`, skipping whitespace.
std::string IdentifierBefore(const std::string& flat, std::size_t end) {
  while (end > 0 && flat[end - 1] == ' ') --end;
  std::size_t begin = end;
  while (begin > 0 && IsIdentChar(flat[begin - 1])) --begin;
  return flat.substr(begin, end - begin);
}

// The parameter list, '(' to ')' inclusive, of the function whose body
// encloses `pos`, and its name; an empty name if `pos` is in no function
// body. Blocks of control statements, lambdas, classes and namespaces are
// stepped over outward.
std::pair<std::string, std::string> EnclosingFunction(const std::string& flat,
                                                      std::size_t pos) {
  static const std::set<std::string> kNotFunctions = {
      "if", "for", "while", "switch", "catch", "return", "sizeof"};
  static const std::set<std::string> kQualifiers = {
      "const", "noexcept", "override", "final", "mutable"};
  int depth = 0;
  for (std::size_t p = pos; p-- > 0;) {
    if (flat[p] == '}') ++depth;
    if (flat[p] != '{') continue;
    if (depth > 0) {
      --depth;
      continue;
    }
    // An unmatched '{' opens the block around pos: a function body when it
    // follows "name(params) qualifiers".
    std::size_t q = p;
    for (;;) {
      while (q > 0 && flat[q - 1] == ' ') --q;
      const std::string word = IdentifierBefore(flat, q);
      if (word.empty() || kQualifiers.count(word) == 0) break;
      q -= word.size();
    }
    if (q == 0 || flat[q - 1] != ')') continue;
    std::size_t open = q - 1;
    int parens = 0;
    for (std::size_t r = q; r-- > 0;) {
      if (flat[r] == ')') ++parens;
      if (flat[r] == '(' && --parens == 0) {
        open = r;
        break;
      }
    }
    const std::string name = IdentifierBefore(flat, open);
    if (name.empty() || kNotFunctions.count(name) > 0) continue;
    return {name, flat.substr(open, q - open)};
  }
  return {};
}

// Functions that pass one of their std::function parameters into one of
// `calls` (the argument ranges of parallel calls in `flat`).
void CollectForwarders(const std::string& flat,
                       const std::vector<FlatRange>& calls,
                       std::set<std::string>& out) {
  static const std::regex kFunctionParam(
      R"(\bfunction\s*<[^;{}]*?>\s*&*\s*([A-Za-z_]\w*)\s*[,)=])");
  for (const FlatRange& call : calls) {
    const auto [name, params] = EnclosingFunction(flat, call.begin);
    if (name.empty()) continue;
    const std::string args = flat.substr(call.begin, call.end - call.begin);
    for (auto it = std::sregex_iterator(params.begin(), params.end(),
                                        kFunctionParam);
         it != std::sregex_iterator(); ++it) {
      const std::regex use("\\b" + (*it)[1].str() + "\\b");
      if (std::regex_search(args, use)) out.insert(name);
    }
  }
}

void CollectLocks(FileIndex& idx) {
  static const std::regex kAcquire(
      R"(\bMutexLock\s+[A-Za-z_]\w*\s*\(\s*([^();]*)\))");
  struct Site {
    std::size_t pos;
    std::string mutex;
  };
  std::vector<Site> sites;
  for (auto it = std::sregex_iterator(idx.flat.begin(), idx.flat.end(),
                                      kAcquire);
       it != std::sregex_iterator(); ++it) {
    const std::string mutex = LastIdentifier((*it)[1].str());
    if (mutex.empty()) continue;
    sites.push_back({static_cast<std::size_t>(it->position(0)), mutex});
  }
  for (const Site& s : sites) {
    idx.lock_sites.push_back(
        {s.mutex, idx.line_of[s.pos], idx.col_of[s.pos]});
  }
  // One pass over flat, tracking brace depth; a lock lives until the brace
  // block containing its declaration closes. Every acquisition made while
  // other locks are live yields a nesting edge.
  struct Held {
    std::string mutex;
    int depth;
    std::size_t line;
  };
  std::vector<Held> held;
  std::size_t next_site = 0;
  int depth = 0;
  for (std::size_t p = 0; p < idx.flat.size(); ++p) {
    if (next_site < sites.size() && sites[next_site].pos == p) {
      const Site& s = sites[next_site++];
      for (const Held& h : held) {
        idx.lock_nestings.push_back(
            {h.mutex, h.line, s.mutex, idx.line_of[p], idx.col_of[p]});
      }
      held.push_back({s.mutex, depth, idx.line_of[p]});
    }
    if (idx.flat[p] == '{') ++depth;
    if (idx.flat[p] == '}') {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
    }
  }
}

}  // namespace

bool FileIndex::InParallelRegion(std::size_t flat_pos) const {
  for (const FlatRange& r : parallel_regions) {
    if (flat_pos >= r.begin && flat_pos < r.end) return true;
  }
  return false;
}

bool FileIndex::InForEachRegion(std::size_t flat_pos) const {
  for (const FlatRange& r : foreach_regions) {
    if (flat_pos >= r.begin && flat_pos < r.end) return true;
  }
  return false;
}

FileIndex BuildFileIndex(const std::string& path, const std::string& content,
                         const std::string& decl_context) {
  FileIndex idx;
  idx.path = path;
  idx.scrubbed = Scrub(content);
  idx.allows = CollectAllows(idx.scrubbed);
  for (std::size_t i = 1; i < idx.scrubbed.code.size(); ++i) {
    std::size_t col = 1;
    for (char c : idx.scrubbed.code[i]) {
      idx.flat += c;
      idx.line_of.push_back(i);
      idx.col_of.push_back(col++);
    }
    idx.flat += ' ';
    idx.line_of.push_back(i);
    idx.col_of.push_back(col);
  }
  if (!decl_context.empty()) {
    const ScrubbedFile ctx = Scrub(decl_context);
    for (const std::string& line : ctx.code) {
      idx.decl_flat += line;
      idx.decl_flat += ' ';
    }
  }
  idx.includes = ExtractIncludes(content, idx.scrubbed);
  CollectNames(idx.flat, idx);
  if (!idx.decl_flat.empty()) CollectNames(idx.decl_flat, idx);
  static const std::regex kParallel(
      R"((?:\bParallel(?:For|Reduce)|(?:->|\.)\s*Run)\s*\()");
  static const std::regex kForEach(R"(\bForEach\s*\()");
  CollectCallRanges(idx.flat, kParallel, idx.parallel_regions);
  CollectCallRanges(idx.flat, kForEach, idx.foreach_regions);
  CollectForwarders(idx.flat, idx.parallel_regions, idx.forwarders);
  CollectLocks(idx);
  return idx;
}

const FileIndex* ProjectIndex::Find(const std::string& path) const {
  const auto it = by_path.find(path);
  return it == by_path.end() ? nullptr : &files[it->second];
}

const FileIndex* ProjectIndex::Resolve(const std::string& from,
                                       const std::string& target) const {
  if (const FileIndex* f = Find(target)) return f;
  for (const char* top : {"src/", "tools/", "bench/"}) {
    if (const FileIndex* f = Find(top + target)) return f;
  }
  const std::size_t slash = from.find_last_of('/');
  if (slash != std::string::npos) {
    if (const FileIndex* f = Find(from.substr(0, slash + 1) + target)) {
      return f;
    }
  }
  return nullptr;
}

namespace {

ProjectIndex BuildFromContents(
    std::vector<std::pair<std::string, std::string>> sources, int threads) {
  std::sort(sources.begin(), sources.end());
  std::map<std::string, std::size_t> source_at;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    source_at[sources[i].first] = i;
  }
  ProjectIndex index;
  index.files.resize(sources.size());
  util::ParallelFor(
      sources.size(),
      [&](std::size_t i) {
        const std::string& path = sources[i].first;
        std::string decl_context;
        if (EndsWith(path, ".cc") || EndsWith(path, ".cpp")) {
          const std::string header =
              path.substr(0, path.find_last_of('.')) + ".h";
          const auto it = source_at.find(header);
          if (it != source_at.end()) decl_context = sources[it->second].second;
        }
        index.files[i] = BuildFileIndex(path, sources[i].second, decl_context);
      },
      threads);
  // Calls to a forwarder are parallel calls too, wherever they are made.
  std::string forwarders;
  for (const FileIndex& f : index.files) {
    for (const std::string& name : f.forwarders) {
      if (name == "ParallelFor" || name == "ParallelReduce") continue;
      forwarders += (forwarders.empty() ? "" : "|") + name;
    }
  }
  if (!forwarders.empty()) {
    const std::regex calls("\\b(?:" + forwarders + ")\\s*\\(");
    for (FileIndex& f : index.files) {
      CollectCallRanges(f.flat, calls, f.parallel_regions);
    }
  }
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const std::string& path = index.files[i].path;
    index.by_path.emplace(path, i);
    // src-relative alias: how in-tree code spells its includes.
    for (const char* top : {"src/", "tools/", "bench/"}) {
      const std::string prefix = top;
      if (path.compare(0, prefix.size(), prefix) == 0) {
        index.by_path.emplace(path.substr(prefix.size()), i);
      }
    }
  }
  return index;
}

}  // namespace

ProjectIndex BuildProjectIndex(const std::string& root, int threads) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> sources;
  for (const char* top : {"src", "tools", "bench"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp") {
        continue;
      }
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      sources.emplace_back(fs::relative(entry.path(), root).generic_string(),
                           buf.str());
    }
  }
  return BuildFromContents(std::move(sources), threads);
}

ProjectIndex IndexSources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    int threads) {
  return BuildFromContents(sources, threads);
}

}  // namespace atlas::lint
