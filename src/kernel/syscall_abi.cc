// Name table of the syscall kinds and the completion status helper for the
// batched syscall descriptors (syscall_abi.h).
#include "src/kernel/syscall_abi.h"

namespace histar {

namespace {
// One entry per syscall kind: the SyscallReq alternatives in ABI order,
// then the DirectKind values in enum order.
constexpr const char* kSyscallKindNames[] = {
    "cat_create", "self_set_label", "self_set_clearance", "self_get_label",
    "self_get_clearance", "self_set_as", "self_get_as", "self_halt",
    "thread_create", "thread_alert", "self_next_alert", "self_local_read",
    "self_local_write", "container_create", "container_get_parent",
    "container_list", "container_link", "container_has", "obj_get_type",
    "obj_get_label", "obj_get_descrip", "obj_get_quota", "obj_get_metadata",
    "obj_set_metadata", "obj_set_fixed_quota", "obj_set_immutable",
    "quota_move", "segment_create", "segment_copy", "segment_resize",
    "segment_get_len", "segment_read", "segment_write", "as_create", "as_set",
    "as_get", "gate_create", "gate_get_closure", "console_write",
    // DirectKind
    "container_unref", "as_access", "gate_invoke", "futex_wait", "futex_wake",
    "net_mac_addr", "net_transmit", "net_receive", "net_wait", "sync",
    "sync_object", "sync_pages", "trace_read",
};
static_assert(sizeof(kSyscallKindNames) / sizeof(kSyscallKindNames[0]) ==
                  kNumSyscallKinds,
              "name every syscall kind (append here too)");
}  // namespace

const char* SyscallKindName(size_t index) {
  return index < kNumSyscallKinds ? kSyscallKindNames[index] : "unknown";
}

Status ResStatus(const SyscallRes& res) {
  return std::visit([](const auto& c) { return StatusOf(c); }, res);
}

}  // namespace histar
