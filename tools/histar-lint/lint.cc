#include "tools/histar-lint/lint.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace histar {
namespace lint {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Finds `token` as a left-word-bounded match in `line`, from `from`.
size_t FindWord(const std::string& line, const std::string& token, size_t from = 0) {
  size_t pos = from;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(line[pos - 1])) {
      return pos;
    }
    ++pos;
  }
  return std::string::npos;
}

// Matches a scoped-object declaration: `Type ident(` or `Type ident;` (with
// arbitrary spacing). Returns true when `line` declares an object of
// `type` at or after `from`.
bool MatchesDecl(const std::string& line, const std::string& type) {
  size_t pos = 0;
  while ((pos = FindWord(line, type, pos)) != std::string::npos) {
    size_t i = pos + type.size();
    if (i >= line.size() || line[i] != ' ') {
      ++pos;
      continue;  // TableLock::Mode, class TableLock, ~TableLock...
    }
    while (i < line.size() && line[i] == ' ') {
      ++i;
    }
    size_t ident_start = i;
    while (i < line.size() && IsIdentChar(line[i])) {
      ++i;
    }
    if (i == ident_start) {
      ++pos;
      continue;
    }
    while (i < line.size() && line[i] == ' ') {
      ++i;
    }
    if (i < line.size() && (line[i] == '(' || line[i] == ';' || line[i] == '{')) {
      return true;
    }
    ++pos;
  }
  return false;
}

// The kernel translation units whose label checks must be registry-mediated.
const char* kKernelLabelSources[] = {
    "src/kernel/kernel.cc",       "src/kernel/kernel_seg.cc",
    "src/kernel/kernel_thread.cc", "src/kernel/kernel_persist.cc",
    "src/kernel/kernel_batch.cc", "src/kernel/syscall_abi.cc",
};

bool IsKernelLabelSource(const std::string& path) {
  for (const char* p : kKernelLabelSources) {
    if (EndsWith(path, p)) {
      return true;
    }
  }
  return false;
}

bool InSrcTree(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

struct Rule {
  const char* name;
  // Whether the rule applies to this path when no explicit rule list is
  // given. Defining-file exemptions (checked separately) always hold.
  bool (*applies)(const std::string& path);
  // Files exempt even under an explicit --rule (the defining file).
  bool (*exempt)(const std::string& path);
};

bool ExemptNone(const std::string&) { return false; }
bool ExemptSyncH(const std::string& p) { return EndsWith(p, "src/core/sync.h"); }
bool ExemptObjectTable(const std::string& p) {
  return EndsWith(p, "src/kernel/object_table.h");
}
bool ExemptEpoch(const std::string& p) {
  return EndsWith(p, "src/core/epoch.h") || EndsWith(p, "src/core/epoch.cc");
}
bool ExemptStoreAlloc(const std::string& p) {
  return EndsWith(p, "src/store/store_alloc.h");
}
bool AppliesKernelTU(const std::string& p) { return IsKernelLabelSource(p); }
bool AppliesSrcNotObjectTable(const std::string& p) {
  return InSrcTree(p) && !ExemptObjectTable(p);
}
bool AppliesSrcNotEpoch(const std::string& p) { return InSrcTree(p) && !ExemptEpoch(p); }
bool AppliesSrcNotStoreAlloc(const std::string& p) {
  return InSrcTree(p) && !ExemptStoreAlloc(p);
}
bool AppliesSrcNotSyncH(const std::string& p) { return InSrcTree(p) && !ExemptSyncH(p); }
bool ExemptTrace(const std::string& p) {
  return EndsWith(p, "src/core/trace.h") || EndsWith(p, "src/core/trace.cc");
}
bool AppliesSrcNotTrace(const std::string& p) { return InSrcTree(p) && !ExemptTrace(p); }

const Rule kRules[] = {
    {"second-table-lock", AppliesSrcNotObjectTable, ExemptObjectTable},
    {"registry-bypass", AppliesKernelTU, ExemptNone},
    {"epoch-guard-blocking", AppliesSrcNotEpoch, ExemptEpoch},
    {"nofail-region-check", AppliesSrcNotStoreAlloc, ExemptStoreAlloc},
    {"shard-mutex-outside-tablelock", AppliesSrcNotObjectTable, ExemptObjectTable},
    {"raw-sync-primitive", AppliesSrcNotSyncH, ExemptSyncH},
    {"raw-clock-read", AppliesSrcNotTrace, ExemptTrace},
};

bool RuleEnabled(const Rule& rule, const std::string& path,
                 const std::vector<std::string>& only_rules) {
  if (rule.exempt(path)) {
    return false;
  }
  if (!only_rules.empty()) {
    return std::find(only_rules.begin(), only_rules.end(), rule.name) != only_rules.end();
  }
  return rule.applies(path);
}

// ---- per-line checks -------------------------------------------------------------

void CheckRegistryBypass(const std::string& path, int lineno, const std::string& line,
                         std::vector<Finding>* out) {
  // Allocating / list-walking label calls, forbidden outright in kernel TUs.
  static const char* kForbidden[] = {".ToHi(", ".ToStar(", "RaiseForRead("};
  for (const char* pat : kForbidden) {
    if (line.find(pat) != std::string::npos) {
      out->push_back({path, lineno, "registry-bypass",
                      std::string(pat) + " bypasses the label registry's precomputed "
                                         "shifted forms"});
    }
  }
  // ⊑ / ⊔ / ⊓ are legal only as registry calls (registry_.Leq is memoized;
  // label.Leq is the bypass).
  static const char* kRegistryOnly[] = {".Leq(", ".Join(", ".Meet("};
  static const char* kReceivers[] = {"registry_", "registry"};
  for (const char* pat : kRegistryOnly) {
    size_t pos = 0;
    while ((pos = line.find(pat, pos)) != std::string::npos) {
      bool ok = false;
      for (const char* recv : kReceivers) {
        size_t n = std::char_traits<char>::length(recv);
        if (pos >= n && line.compare(pos - n, n, recv) == 0 &&
            (pos == n || !IsIdentChar(line[pos - n - 1]))) {
          ok = true;
        }
      }
      if (!ok) {
        out->push_back({path, lineno, "registry-bypass",
                        std::string("non-registry ") + pat +
                            " — kernel label checks must be memoized"});
      }
      ++pos;
    }
  }
}

void CheckRawSync(const std::string& path, int lineno, const std::string& line,
                  std::vector<Finding>* out) {
  static const char* kRaw[] = {
      "std::mutex",       "std::shared_mutex",       "std::recursive_mutex",
      "std::timed_mutex", "std::condition_variable", "std::lock_guard",
      "std::unique_lock", "std::shared_lock",        "std::scoped_lock",
  };
  for (const char* pat : kRaw) {
    size_t pos = FindWord(line, pat);
    if (pos != std::string::npos &&
        !IsIdentChar(line[pos + std::char_traits<char>::length(pat)])) {
      out->push_back({path, lineno, "raw-sync-primitive",
                      std::string(pat) + " — use the annotated wrappers in "
                                         "src/core/sync.h so -Wthread-safety sees the "
                                         "lock graph"});
    }
  }
}

void CheckShardMutex(const std::string& path, int lineno, const std::string& line,
                     std::vector<Finding>* out) {
  // TableCap's acquire/release pair belongs to TableLock and
  // PublishedReadTableCap alone; the table's mutex is object_table.h-private.
  static const char* kForbidden[] = {"cap().Acquire(", "cap().Release(",
                                     "cap_.Acquire(", "cap_.Release(", "table_mu_"};
  for (const char* pat : kForbidden) {
    const size_t n = std::char_traits<char>::length(pat);
    for (size_t pos = FindWord(line, pat); pos != std::string::npos;
         pos = FindWord(line, pat, pos + 1)) {
      // A token ending in an identifier character must also end the word,
      // so `table_mu_count` is not the table's mutex.
      if (!IsIdentChar(pat[n - 1]) || !IsIdentChar(line[pos + n])) {
        out->push_back({path, lineno, "shard-mutex-outside-tablelock",
                        std::string(pat) + " — the table lock is acquired only through "
                                           "the scoped TableLock"});
        break;
      }
    }
  }
}

void CheckRawClockRead(const std::string& path, int lineno, const std::string& line,
                       std::vector<Finding>* out) {
  // Timing must route through trace::NowNs()/SteadyNow() so the
  // HISTAR_TRACE=0 build really compiles clock reads out. Only *reads* are
  // findings: `steady_clock::duration` and other type mentions are legal,
  // so the chrono patterns require the `::now(` call form.
  static const char* kClockCalls[] = {
      "steady_clock::now",
      "system_clock::now",
      "high_resolution_clock::now",
  };
  for (const char* pat : kClockCalls) {
    size_t pos = FindWord(line, pat);
    if (pos != std::string::npos) {
      size_t i = pos + std::char_traits<char>::length(pat);
      while (i < line.size() && line[i] == ' ') {
        ++i;
      }
      if (i < line.size() && line[i] == '(') {
        out->push_back({path, lineno, "raw-clock-read",
                        std::string(pat) + "() — clock reads go through "
                                           "trace::NowNs()/SteadyNow() so HISTAR_TRACE=0 "
                                           "compiles them out"});
      }
    }
  }
  static const char* kClockWords[] = {"clock_gettime", "gettimeofday", "__rdtsc",
                                      "rdtsc"};
  for (const char* pat : kClockWords) {
    size_t pos = FindWord(line, pat);
    if (pos != std::string::npos &&
        (pos + std::char_traits<char>::length(pat) >= line.size() ||
         !IsIdentChar(line[pos + std::char_traits<char>::length(pat)]))) {
      out->push_back({path, lineno, "raw-clock-read",
                      std::string(pat) + " — clock reads go through "
                                         "trace::NowNs()/SteadyNow() so HISTAR_TRACE=0 "
                                         "compiles them out"});
    }
  }
}

// ---- scoped region rules ---------------------------------------------------------

struct Region {
  const char* kind;  // "table-lock" | "epoch" | "nofail"
  int depth;         // brace depth at the declaration
  int line;
};

void CheckScopedLine(const std::string& path, int lineno, const std::string& line,
                     std::vector<Region>* regions, int depth, bool rule_table_lock,
                     bool rule_epoch, bool rule_nofail, std::vector<Finding>* out) {
  bool in_table_lock = false;
  bool in_epoch = false;
  bool in_nofail = false;
  for (const Region& r : *regions) {
    in_table_lock |= r.kind[0] == 't';
    in_epoch |= r.kind[0] == 'e';
    in_nofail |= r.kind[0] == 'n';
  }

  if (rule_epoch && in_epoch) {
    static const char* kBlocking[] = {
        "MutexLock",     "WriterMutexLock", "ReaderMutexLock", ".Lock(",
        ".Wait(",        ".WaitFor(",       "sleep_for",       "sys_futex_wait",
    };
    for (const char* pat : kBlocking) {
      if (FindWord(line, pat) != std::string::npos ||
          (pat[0] == '.' && line.find(pat) != std::string::npos)) {
        out->push_back({path, lineno, "epoch-guard-blocking",
                        std::string(pat) + " inside an EpochGuard scope — a pinned "
                                           "reader that blocks stalls epoch advancement"});
      }
    }
    if (MatchesDecl(line, "TableLock")) {
      out->push_back({path, lineno, "epoch-guard-blocking",
                      "TableLock inside an EpochGuard scope — the lock-free batch path "
                      "must not fall back to shard locks while pinned"});
    }
  }

  if (rule_nofail && in_nofail) {
    if (FindWord(line, "throw") != std::string::npos) {
      out->push_back({path, lineno, "nofail-region-check",
                      "throw inside a StoreAllocNoFail scope — cleanup must not become "
                      "a second fault"});
    }
    if (line.find("StoreAlloc::Check(") != std::string::npos) {
      out->push_back({path, lineno, "nofail-region-check",
                      "StoreAlloc::Check() inside a StoreAllocNoFail scope — the check "
                      "is suppressed there; the call indicates a misplaced boundary"});
    }
  }

  // Declarations open regions AFTER the checks above, so the declaring line
  // itself is not inside its own region.
  if ((rule_table_lock || rule_epoch) &&
      (MatchesDecl(line, "TableLock") || MatchesDecl(line, "PublishedReadTableCap"))) {
    if (rule_table_lock && in_table_lock) {
      out->push_back({path, lineno, "second-table-lock",
                      "second table-capability acquisition while one is already live — "
                      "one TableLock per syscall"});
    }
    regions->push_back({"table-lock", depth, lineno});
  }
  if (rule_epoch && MatchesDecl(line, "EpochGuard")) {
    regions->push_back({"epoch", depth, lineno});
  }
  if (rule_nofail && MatchesDecl(line, "StoreAllocNoFail")) {
    regions->push_back({"nofail", depth, lineno});
  }
}

}  // namespace

std::string CleanSource(const std::string& content) {
  std::string out = content;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < out.size(); ++i) {
    char c = out[i];
    char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' && (i == 0 || !IsIdentChar(out[i - 1]))) {
          size_t paren = out.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + out.substr(i + 2, paren - i - 2) + "\"";
            st = St::kRawString;
            for (size_t j = i; j <= paren; ++j) {
              if (out[j] != '\n') out[j] = ' ';
            }
            i = paren;
          }
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRawString:
        if (out.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> AllRuleNames() {
  std::vector<std::string> names;
  for (const Rule& r : kRules) {
    names.push_back(r.name);
  }
  return names;
}

std::vector<Finding> LintSource(const std::string& rel_path, const std::string& content,
                                const std::vector<std::string>& only_rules) {
  bool enabled[sizeof(kRules) / sizeof(kRules[0])];
  bool any = false;
  for (size_t i = 0; i < sizeof(kRules) / sizeof(kRules[0]); ++i) {
    enabled[i] = RuleEnabled(kRules[i], rel_path, only_rules);
    any |= enabled[i];
  }
  std::vector<Finding> findings;
  if (!any) {
    return findings;
  }
  const bool rule_table_lock = enabled[0];
  const bool rule_registry = enabled[1];
  const bool rule_epoch = enabled[2];
  const bool rule_nofail = enabled[3];
  const bool rule_shard = enabled[4];
  const bool rule_raw_sync = enabled[5];
  const bool rule_raw_clock = enabled[6];

  std::string clean = CleanSource(content);
  std::istringstream in(clean);
  std::string line;
  int lineno = 0;
  int depth = 0;
  std::vector<Region> regions;
  while (std::getline(in, line)) {
    ++lineno;
    if (rule_registry) {
      CheckRegistryBypass(rel_path, lineno, line, &findings);
    }
    if (rule_raw_sync) {
      CheckRawSync(rel_path, lineno, line, &findings);
    }
    if (rule_raw_clock) {
      CheckRawClockRead(rel_path, lineno, line, &findings);
    }
    if (rule_shard) {
      CheckShardMutex(rel_path, lineno, line, &findings);
    }
    if (rule_table_lock || rule_epoch || rule_nofail) {
      CheckScopedLine(rel_path, lineno, line, &regions, depth, rule_table_lock,
                      rule_epoch, rule_nofail, &findings);
    }
    // Update brace depth and close regions whose enclosing block ended.
    for (char c : line) {
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        while (!regions.empty() && depth < regions.back().depth) {
          regions.pop_back();
        }
      }
    }
  }
  return findings;
}

}  // namespace lint
}  // namespace histar
