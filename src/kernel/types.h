// Shared kernel types: object IDs, object types, container entries.
#ifndef SRC_KERNEL_TYPES_H_
#define SRC_KERNEL_TYPES_H_

#include <cstdint>
#include <cstring>

#include "src/core/category.h"

namespace histar {

// Objects, like categories, are named by unique 61-bit identifiers produced
// by encrypting an allocation counter (paper §3).
using ObjectId = uint64_t;
inline constexpr ObjectId kInvalidObject = 0;

// Reserved pseudo-object id meaning "the current thread's local segment"
// when it appears in an address-space mapping (paper §3.4).
inline constexpr ObjectId kLocalSegmentId = ~uint64_t{0};

// The kernel object types: the paper's six (§3). The enum values are also
// the bit positions used by container avoid_types masks, and appear in
// serialized object blobs, so new types append at the end. Value 6 was an
// async submission ring in older images; it is never reused, so restore
// rejects such a blob as corrupt instead of reading it as something else.
enum class ObjectType : uint8_t {
  kContainer = 0,
  kThread = 1,
  kSegment = 2,
  kAddressSpace = 3,
  kGate = 4,
  kDevice = 5,
};

inline constexpr int kNumObjectTypes = 6;

inline uint32_t TypeBit(ObjectType t) { return 1u << static_cast<uint32_t>(t); }

// Most system calls name objects by ⟨container, object⟩ pairs so the kernel
// can verify the caller is entitled to know the object exists (paper §3.2).
struct ContainerEntry {
  ObjectId container = kInvalidObject;
  ObjectId object = kInvalidObject;

  bool operator==(const ContainerEntry&) const = default;
};

// Shorthand for the common self-referential entry ⟨D,D⟩: every container
// contains itself.
inline ContainerEntry SelfEntry(ObjectId d) { return ContainerEntry{d, d}; }

// Address-space mapping permission bits.
inline constexpr uint32_t kMapRead = 1u << 0;
inline constexpr uint32_t kMapWrite = 1u << 1;
inline constexpr uint32_t kMapExec = 1u << 2;
// Convenience bits reserved for user-level software (paper §3.4); the kernel
// stores but never interprets them.
inline constexpr uint32_t kMapUserFlag0 = 1u << 16;
inline constexpr uint32_t kMapUserFlag1 = 1u << 17;

// Simulated page size. Segment lengths are byte-granular but address-space
// mappings are page-granular, like the real kernel.
inline constexpr uint64_t kPageSize = 4096;

// Quota value meaning "unlimited" (the root container always has it).
inline constexpr uint64_t kQuotaInfinite = ~uint64_t{0};

// Fixed bookkeeping charge for any object, standing in for the kernel data
// structures that the real system charges to the enclosing container.
inline constexpr uint64_t kObjectOverheadBytes = 128;

// Overflow-safe bounds check: true iff [off, off+len) fits in a buffer (or
// budget) of `size` bytes. `off + len > size` is NOT equivalent — a huge
// user-supplied off or len wraps the sum past the test and turns a range
// error into out-of-bounds access.
inline bool RangeOk(uint64_t off, uint64_t len, uint64_t size) {
  return off <= size && len <= size - off;
}

// memcpy with the zero-length case made explicit. RangeOk admits len == 0 at
// off == size (including on an empty buffer), where either pointer may be
// null — an empty vector's data(), or a caller passing nullptr for a
// zero-byte transfer. memcpy's contract makes a null argument UB even for
// n == 0, so every byte-range syscall copies through this instead.
inline void CopyBytes(void* dst, const void* src, uint64_t len) {
  if (len != 0) {
    memcpy(dst, src, len);
  }
}

// Length of the descriptive string attached to every object.
inline constexpr size_t kDescripLen = 32;
// Mutable user-defined metadata bytes on every object (paper §3).
inline constexpr size_t kMetadataLen = 64;

}  // namespace histar

#endif  // SRC_KERNEL_TYPES_H_
