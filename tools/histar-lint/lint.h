// histar-lint: token-level enforcement of the repo's concurrency and
// label-discipline invariants that Clang's thread-safety analysis cannot
// express (ARCHITECTURE.md, "Statically enforced invariants").
//
// Each rule encodes ONE invariant:
//
//  * second-table-lock       A TableLock (or PublishedReadTableCap) may not
//                            be constructed while another is live in an
//                            enclosing scope: the table capability is
//                            acquired once per syscall, and a nested
//                            acquisition of the non-recursive table lock
//                            is a self-deadlock.
//  * registry-bypass         Kernel hot paths must route every label-algebra
//                            call (⊑, ⊔, shift) through the memoized
//                            LabelRegistry — a bare Label::Leq or per-check
//                            ToHi() silently reintroduces the allocation the
//                            registry exists to remove.
//  * epoch-guard-blocking    No blocking or lock acquisition inside an
//                            EpochGuard scope: a pinned reader that sleeps
//                            stalls epoch advancement and lets limbo grow
//                            without bound.
//  * nofail-region-check     No `throw` and no StoreAlloc::Check() inside a
//                            StoreAllocNoFail scope: cleanup paths must not
//                            become a second fault mid-recovery from the
//                            first.
//  * shard-mutex-outside-tablelock
//                            The object table's mutex (table_mu_) and the
//                            TableCap Acquire/Release pair are touched only
//                            inside object_table.h — everyone else goes
//                            through the scoped TableLock, which is what
//                            keeps lock accounting and the static
//                            capability in step with the real mutex.
//  * raw-sync-primitive      No std::mutex / condition_variable / lock
//                            guards outside src/core/sync.h: the annotated
//                            wrappers are what make -Wthread-safety able to
//                            see the lock graph at all.
//  * raw-clock-read          No steady/system/high-resolution clock ::now()
//                            calls, clock_gettime, or rdtsc outside
//                            src/core/trace.* — timing routes through
//                            trace::NowNs()/SteadyNow() so the
//                            HISTAR_TRACE=0 build compiles every clock read
//                            out. Type mentions (steady_clock::duration)
//                            stay legal.
//
// The checker is deliberately token-level (no libclang in the build image):
// comments and string literals are blanked before matching, and scoped
// rules track brace depth, which is exact enough for the discipline being
// enforced — every rule ships with good/bad fixtures proving it fires and
// stays quiet where it should.
#ifndef TOOLS_HISTAR_LINT_LINT_H_
#define TOOLS_HISTAR_LINT_LINT_H_

#include <string>
#include <vector>

namespace histar {
namespace lint {

struct Finding {
  std::string file;     // repo-relative path as given to LintSource
  int line = 0;         // 1-based
  std::string rule;     // rule name (see AllRuleNames)
  std::string message;  // what was matched and why it is a violation
};

// All rule names, in a stable order.
std::vector<std::string> AllRuleNames();

// Lints one source file. `rel_path` is the repo-relative path (forward
// slashes); it drives per-rule applicability — e.g. raw-sync-primitive
// exempts src/core/sync.h, registry-bypass applies only to the kernel
// translation units. With a non-empty `only_rules`, exactly those rules run
// and the path-based applicability gate is skipped (the defining-file
// exemptions still hold) — that is how the fixture tests and `--rule` drive
// a rule against an arbitrary file.
std::vector<Finding> LintSource(const std::string& rel_path, const std::string& content,
                                const std::vector<std::string>& only_rules = {});

// Strips // and /* */ comments plus string/char literal contents, replacing
// them with spaces (newlines preserved, so line numbers survive). Exposed
// for tests.
std::string CleanSource(const std::string& content);

}  // namespace lint
}  // namespace histar

#endif  // TOOLS_HISTAR_LINT_LINT_H_
