// Clang Thread Safety Analysis attribute macros.
//
// These expand to __attribute__((...)) under clang and to nothing under
// other compilers, so the tier-1 g++ build is unaffected while the
// static-analysis CI job (clang, -Wthread-safety -Werror=thread-safety)
// proves the lock discipline on every path at compile time. The macro
// set and spelling follow the canonical form from the Clang docs /
// abseil's thread_annotations.h so the analysis recognizes them.
//
// ARCHITECTURE.md ("Statically enforced invariants") maps each normative
// concurrency rule to the annotation or histar-lint rule that enforces it.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define HISTAR_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HISTAR_THREAD_ANNOTATION_(x)
#endif
#else
#define HISTAR_THREAD_ANNOTATION_(x)
#endif

// Type attributes ---------------------------------------------------------

// Marks a class as a capability (a lock). `x` is the capability kind
// string shown in diagnostics, e.g. CAPABILITY("mutex").
#define CAPABILITY(x) HISTAR_THREAD_ANNOTATION_(capability(x))

// Marks an RAII class whose lifetime equals a capability acquisition.
#define SCOPED_CAPABILITY HISTAR_THREAD_ANNOTATION_(scoped_lockable)

// Data-member attributes --------------------------------------------------

// Reads of the member require the capability held (shared suffices);
// writes require it held exclusively.
#define GUARDED_BY(x) HISTAR_THREAD_ANNOTATION_(guarded_by(x))

// Like GUARDED_BY but for the data a pointer member points at.
#define PT_GUARDED_BY(x) HISTAR_THREAD_ANNOTATION_(pt_guarded_by(x))

// Lock-ordering edges (capability x must be acquired before/after this).
#define ACQUIRED_BEFORE(...) \
  HISTAR_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  HISTAR_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Function attributes -----------------------------------------------------

// The function must be called with the capabilities held (exclusively /
// at least shared) and does not release them.
#define REQUIRES(...) \
  HISTAR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  HISTAR_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// The function acquires / releases the capability.
#define ACQUIRE(...) \
  HISTAR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  HISTAR_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  HISTAR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  HISTAR_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  HISTAR_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

// Conditional acquisition: acquires only when returning `b`.
#define TRY_ACQUIRE(b, ...) \
  HISTAR_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))
#define TRY_ACQUIRE_SHARED(b, ...) \
  HISTAR_THREAD_ANNOTATION_(try_acquire_shared_capability(b, __VA_ARGS__))

// The capability must NOT be held when calling (deadlock prevention).
#define EXCLUDES(...) HISTAR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Runtime-checked assertion that the capability is held; tells the
// analysis to treat it as held from here on (used by accessors whose
// lock the caller took in a mode the analysis cannot see, e.g. the
// object table's mutex under a runtime-mode TableLock).
#define ASSERT_CAPABILITY(x) \
  HISTAR_THREAD_ANNOTATION_(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  HISTAR_THREAD_ANNOTATION_(assert_shared_capability(x))

// The function returns a reference to the given capability (lets
// accessors like `cap()` participate in lock expressions).
#define RETURN_CAPABILITY(x) HISTAR_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch: the function is deliberately outside the analysis.
// Every use must carry a justification comment.
#define NO_THREAD_SAFETY_ANALYSIS \
  HISTAR_THREAD_ANNOTATION_(no_thread_safety_analysis)
