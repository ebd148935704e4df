// Binding of host threads to kernel Thread objects.
//
// The simulator uses host threads as the execution substrate: a kernel
// Thread object is a passive record of label state until some host thread
// "runs" it. RunOnHostThread is the analogue of the kernel scheduler placing
// a thread on a CPU.
#ifndef SRC_KERNEL_THREAD_RUNNER_H_
#define SRC_KERNEL_THREAD_RUNNER_H_

#include <functional>
#include <thread>

#include "src/kernel/kernel.h"

namespace histar {

// Runs `body` on a new host thread bound (via CurrentThread) to kernel
// thread `tid`. The kernel thread is halted when the body returns, so its
// label can never be reused by unrelated host code.
inline std::thread RunOnHostThread(Kernel* kernel, ObjectId tid, std::function<void()> body) {
  return std::thread([kernel, tid, body = std::move(body)]() {
    CurrentThread bind(tid);
    body();
    kernel->sys_self_halt(tid);
  });
}

// Runs `body` synchronously on the calling host thread bound to `tid`,
// restoring the previous binding afterwards. Used for gate-entry style
// borrowed execution in tests.
inline void RunBound(ObjectId tid, const std::function<void()>& body) {
  CurrentThread bind(tid);
  body();
}

}  // namespace histar

#endif  // SRC_KERNEL_THREAD_RUNNER_H_
