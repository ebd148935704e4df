// Free-space management with two B+-trees (paper §4): one indexed by extent
// size (find an appropriately sized extent) and one by location (coalesce
// adjacent extents on free).
#ifndef SRC_STORE_EXTENT_ALLOC_H_
#define SRC_STORE_EXTENT_ALLOC_H_

#include <cstdint>
#include <vector>

#include "src/core/status.h"
#include "src/store/bptree.h"

namespace histar {

class ExtentAllocator {
 public:
  // Manages the byte range [start, start + length).
  ExtentAllocator(uint64_t start, uint64_t length);

  // Allocates `len` bytes: best-fit via the by-size tree. Returns the offset
  // or kNoSpace.
  Result<uint64_t> Allocate(uint64_t len);
  // Returns an extent to the pool, coalescing with neighbors.
  void Free(uint64_t offset, uint64_t len);

  // Removes a specific range from the free pool (recovery: re-reserving the
  // extents the object map says are live). Fails if any byte of the range is
  // not currently free.
  bool ReserveRange(uint64_t offset, uint64_t len);
  bool ReserveExtents(const std::vector<Extent>& extents);

  uint64_t free_bytes() const { return free_bytes_; }
  // Number of distinct free extents (fragmentation metric).
  size_t fragment_count() const { return by_offset_.size(); }

  // Resets to a single free extent covering the whole range.
  void Reset();

 private:
  uint64_t start_;
  uint64_t length_;
  uint64_t free_bytes_ = 0;
  // (size, offset) → unused; by-size index for allocation.
  BPlusTree<Key128, uint64_t> by_size_;
  // offset → size; by-location index for coalescing.
  BPlusTree<uint64_t, uint64_t> by_offset_;
};

}  // namespace histar

#endif  // SRC_STORE_EXTENT_ALLOC_H_
