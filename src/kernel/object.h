// Kernel object base class and the six concrete object types (paper §3).
//
// Every object has a unique 61-bit id, a label, a quota bounding its storage
// usage, 64 bytes of mutable user metadata, a 32-byte descriptive string and
// two one-way flags: immutable (irrevocably read-only) and fixed-quota
// (required before the object can be multiply hard-linked).
//
// Objects are passive data; all rule enforcement lives in Kernel. Except for
// threads, labels are specified at creation and then immutable — which is
// why objects do not store a Label at all: they hold a LabelId handle into
// the kernel's LabelRegistry, where the canonical label and its precomputed
// shifted variants live. Resolving an id back to a Label goes through
// Kernel::LabelOf / the registry.
//
// Objects carry no locks of their own. Every accessor here — including the
// `*_internal` mutators — assumes the caller holds the object table's lock
// (src/kernel/object_table.h): shared mode for the const readers,
// exclusive for anything that mutates (see ARCHITECTURE.md "Concurrency
// model" and the helper contracts in kernel.h).
//
// PR 6 exception: the fields the lock-free read path may touch are
// atomics (label id, quota, thread halted/clearance) or published
// snapshots (container link list, segment length), so epoch-protected
// readers holding NO table lock see them torn-free. Everything else —
// segment payload bytes, AS mappings, metadata, alerts — is still
// lock-disciplined plain data, and the syscalls that read it stay on the
// locked path (see kernel.h's batch-plan table).
#ifndef SRC_KERNEL_OBJECT_H_
#define SRC_KERNEL_OBJECT_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/core/label.h"
#include "src/core/label_registry.h"
#include "src/kernel/types.h"

namespace histar {

class Object {
 public:
  Object(ObjectId id, ObjectType type, LabelId label_id)
      : id_(id), type_(type), label_id_(label_id) {
    descrip_.fill(0);
    metadata_.fill(0);
  }
  virtual ~Object() = default;

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  ObjectId id() const { return id_; }
  ObjectType type() const { return type_; }

  // Creation sequence number: checkpoints write objects in this order, so
  // delayed allocation lays consecutively created objects out contiguously
  // (the §4 single-level-store behavior that makes LFS reads fast).
  uint64_t creation_seq() const { return creation_seq_; }
  void set_creation_seq(uint64_t s) { creation_seq_ = s; }

  // Handle of this object's label in the kernel's LabelRegistry. The ToHi
  // form needed by observation checks is reached through the registry
  // (HiOf), not stored here. Acquire/release: a lock-free reader that
  // loads the id must also see the registry entry the interning thread
  // published behind it.
  LabelId label_id() const { return label_id_.load(std::memory_order_acquire); }
  // Only Kernel may relabel, and only for threads (self_set_label).
  void set_label_id_internal(LabelId v) {
    label_id_.store(v, std::memory_order_release);
  }

  uint64_t quota() const { return quota_.load(std::memory_order_relaxed); }
  void set_quota_internal(uint64_t q) {
    quota_.store(q, std::memory_order_relaxed);
  }

  bool fixed_quota() const { return fixed_quota_; }
  void set_fixed_quota_internal() { fixed_quota_ = true; }

  bool immutable() const { return immutable_; }
  void set_immutable_internal() { immutable_ = true; }

  // Number of container hard links currently referencing this object.
  uint32_t link_count() const { return link_count_; }
  void add_link_internal() { ++link_count_; }
  void drop_link_internal() { --link_count_; }

  std::string descrip() const {
    return std::string(descrip_.data(),
                       strnlen(descrip_.data(), kDescripLen));
  }
  void set_descrip_internal(const std::string& d) {
    descrip_.fill(0);
    memcpy(descrip_.data(), d.data(), std::min(d.size(), kDescripLen));
  }

  const std::array<uint8_t, kMetadataLen>& metadata() const { return metadata_; }
  std::array<uint8_t, kMetadataLen>& metadata_mutable() { return metadata_; }

  // Storage footprint of this object alone (not counting contained quotas);
  // used by the quota system and by the store's space accounting.
  virtual uint64_t OwnUsage() const { return kObjectOverheadBytes; }

  // Called by ObjectTable::InsertLocked just before the object becomes
  // reachable from the lock-free published index: subclasses with derived
  // published state (segment length, container link snapshot) seed it
  // here so no reader can observe the object without it.
  virtual void OnPublish() {}

 private:
  const ObjectId id_;
  const ObjectType type_;
  uint64_t creation_seq_ = 0;
  std::atomic<LabelId> label_id_{kInvalidLabelId};
  std::atomic<uint64_t> quota_{0};
  bool fixed_quota_ = false;
  bool immutable_ = false;
  uint32_t link_count_ = 0;
  std::array<char, kDescripLen> descrip_;
  std::array<uint8_t, kMetadataLen> metadata_;
};

// Segment: a variable-length byte array — the file/memory primitive.
class Segment : public Object {
 public:
  Segment(ObjectId id, LabelId label_id) : Object(id, ObjectType::kSegment, label_id) {}

  std::vector<uint8_t>& bytes() { return bytes_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  // Length as seen by the lock-free read path (sys_segment_get_len).
  // Every length mutation under the exclusive lock republishes; the
  // payload itself is NOT lock-free-readable (reads stay locked).
  uint64_t published_len() const {
    return published_len_.load(std::memory_order_acquire);
  }
  void publish_len_internal() {
    published_len_.store(bytes_.size(), std::memory_order_release);
  }

  void OnPublish() override { publish_len_internal(); }

  uint64_t OwnUsage() const override { return kObjectOverheadBytes + bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
  std::atomic<uint64_t> published_len_{0};
};

// Container: holds hard links to objects and anchors the quota hierarchy.
class Container : public Object {
 public:
  Container(ObjectId id, LabelId label_id, uint32_t avoid_types, ObjectId parent)
      : Object(id, ObjectType::kContainer, label_id),
        avoid_types_(avoid_types),
        parent_(parent) {}

  uint32_t avoid_types() const { return avoid_types_; }
  ObjectId parent() const { return parent_; }

  const std::vector<ObjectId>& links() const { return links_; }
  std::vector<ObjectId>& links_mutable() { return links_; }
  bool HasLink(ObjectId o) const;

  // Immutable copy of the link list for the lock-free read path
  // (ResolveEntry's membership check, sys_container_list/has). Mutators
  // (LinkInto / UnlinkFrom, under the exclusive lock) call
  // RepublishLinks and retire the returned stale snapshot through the
  // epoch layer; the final snapshot dies with the container (whose own
  // destruction is itself epoch-deferred).
  const std::vector<ObjectId>* links_snapshot() const {
    return links_snapshot_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::vector<ObjectId>* RepublishLinks() {
    const std::vector<ObjectId>* fresh = new std::vector<ObjectId>(links_);
    return links_snapshot_.exchange(fresh, std::memory_order_acq_rel);
  }

  void OnPublish() override {
    delete links_snapshot_.exchange(new std::vector<ObjectId>(links_),
                                    std::memory_order_acq_rel);
  }

  ~Container() override {
    delete links_snapshot_.load(std::memory_order_relaxed);
  }

  // Sum of quotas of contained objects plus our own structures.
  uint64_t usage() const { return usage_; }
  void set_usage_internal(uint64_t u) { usage_ = u; }

  uint64_t OwnUsage() const override {
    return kObjectOverheadBytes + links_.size() * 16;
  }

 private:
  const uint32_t avoid_types_;
  const ObjectId parent_;
  std::vector<ObjectId> links_;
  // Sum of contained objects' quotas only; OwnUsage() covers our structures.
  uint64_t usage_ = 0;
  std::atomic<const std::vector<ObjectId>*> links_snapshot_{nullptr};
};

// A single address-space mapping: VA → ⟨segment, offset, npages, flags⟩.
struct Mapping {
  uint64_t va = 0;                 // page-aligned virtual address
  ContainerEntry segment;          // ⟨D,O⟩ naming the backing segment
  uint64_t start_page = 0;         // offset into the segment, in pages
  uint64_t npages = 0;
  uint32_t flags = 0;              // kMapRead | kMapWrite | kMapExec | user bits

  bool Covers(uint64_t addr) const {
    return addr >= va && addr < va + npages * kPageSize;
  }
  bool operator==(const Mapping&) const = default;
};

class AddressSpace : public Object {
 public:
  AddressSpace(ObjectId id, LabelId label_id)
      : Object(id, ObjectType::kAddressSpace, label_id) {}

  const std::vector<Mapping>& mappings() const { return mappings_; }
  std::vector<Mapping>& mappings_mutable() { return mappings_; }

  // Find the mapping covering `va`, or nullptr.
  const Mapping* Lookup(uint64_t va) const;

  uint64_t OwnUsage() const override {
    return kObjectOverheadBytes + mappings_.size() * sizeof(Mapping);
  }

 private:
  std::vector<Mapping> mappings_;
};

// Thread: the only object whose label can change after creation. A thread
// also carries a clearance bounding how far it may taint itself, a one-page
// thread-local segment, and a queue of pending alerts.
class Thread : public Object {
 public:
  Thread(ObjectId id, LabelId label_id, LabelId clearance_id)
      : Object(id, ObjectType::kThread, label_id), clearance_id_(clearance_id) {
    local_segment_.resize(kPageSize, 0);
  }

  // Atomic for the same reason as Object::label_id_: threads are
  // relabeled after publication (gate invoke, self_set_clearance) while
  // lock-free readers check them.
  LabelId clearance_id() const {
    return clearance_id_.load(std::memory_order_acquire);
  }
  void set_clearance_id_internal(LabelId v) {
    clearance_id_.store(v, std::memory_order_release);
  }

  ContainerEntry address_space() const { return address_space_; }
  void set_address_space_internal(ContainerEntry as) { address_space_ = as; }

  std::vector<uint8_t>& local_segment() { return local_segment_; }

  bool halted() const { return halted_.load(std::memory_order_acquire); }
  void set_halted_internal() { halted_.store(true, std::memory_order_release); }

  std::deque<uint64_t>& alerts() { return alerts_; }

  uint64_t OwnUsage() const override { return kObjectOverheadBytes + kPageSize; }

 private:
  std::atomic<LabelId> clearance_id_{kInvalidLabelId};
  ContainerEntry address_space_;
  std::vector<uint8_t> local_segment_;
  std::atomic<bool> halted_{false};
  std::deque<uint64_t> alerts_;
};

// Context passed to a gate entry function when a thread crosses the gate.
class Kernel;
struct GateCall {
  Kernel* kernel = nullptr;
  ObjectId thread = kInvalidObject;          // the (relabeled) invoking thread
  std::vector<uint64_t> closure;             // gate creator's closure words
  ContainerEntry gate;                       // the gate that was invoked
  Label verify;                              // caller's verify label L_V (§3.5)
};

// Entry functions simulate "code segments": real HiStar stores an address
// space + PC in the gate; we store the id of a function registered in the
// kernel's GateEntryRegistry so gates survive checkpoint/restore the same
// way code segments survive on disk.
using GateEntryFn = std::function<void(GateCall&)>;

// Gate: protected control transfer carrying privilege (paper §3.5). Gate
// labels, unlike other object labels, may contain ⋆.
class Gate : public Object {
 public:
  Gate(ObjectId id, LabelId label_id, LabelId clearance_id, std::string entry_name,
       std::vector<uint64_t> closure)
      : Object(id, ObjectType::kGate, label_id),
        clearance_id_(clearance_id),
        entry_name_(std::move(entry_name)),
        closure_(std::move(closure)) {}

  LabelId clearance_id() const { return clearance_id_; }
  const std::string& entry_name() const { return entry_name_; }
  const std::vector<uint64_t>& closure() const { return closure_; }

  uint64_t OwnUsage() const override {
    return kObjectOverheadBytes + entry_name_.size() + closure_.size() * 8;
  }

 private:
  const LabelId clearance_id_;
  const std::string entry_name_;
  const std::vector<uint64_t> closure_;
};

// Device kinds supported by the simulated kernel (paper §4.1: console,
// network; the disk is internal to the single-level store).
enum class DeviceKind : uint8_t {
  kConsole = 0,
  kNet = 1,
};

// Runtime attachment point for a network device; implemented by src/net.
// Not persisted: like a real NIC, it is re-attached at boot.
class NetPort {
 public:
  virtual ~NetPort() = default;
  virtual std::array<uint8_t, 6> MacAddress() = 0;
  // Queue a frame for transmission. Returns false if the TX ring is full.
  virtual bool Transmit(const std::vector<uint8_t>& frame) = 0;
  // Dequeue a received frame; returns false if none pending.
  virtual bool Receive(std::vector<uint8_t>* frame) = 0;
  // Block until a frame arrives or `deadline_ms` of simulated patience runs
  // out. Returns false on timeout.
  virtual bool WaitForFrame(uint32_t timeout_ms) = 0;
};

class Device : public Object {
 public:
  Device(ObjectId id, LabelId label_id, DeviceKind kind)
      : Object(id, ObjectType::kDevice, label_id), kind_(kind) {}

  DeviceKind kind() const { return kind_; }

  NetPort* net_port() const { return net_port_; }
  void set_net_port(NetPort* p) { net_port_ = p; }

  // Console output sink (tests capture it; default accumulates).
  std::string& console_buffer() { return console_buffer_; }

 private:
  const DeviceKind kind_;
  NetPort* net_port_ = nullptr;
  std::string console_buffer_;
};

}  // namespace histar

#endif  // SRC_KERNEL_OBJECT_H_
