// The interface every benchmark workload implements, and the registry
// main.cc dispatches on.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Boots the world and creates the seeded inputs for `opts.clients`
  // clients. Timed: setup_s is the median over several fresh instances.
  // False on failure.
  virtual bool Setup(const Options& opts) = 0;
  // The kernel the counters are read from.
  virtual histar::Kernel* kernel() = 0;
  // Its counters (a workload that replaces its kernel mid-run keeps them
  // running across kernels).
  virtual KernelSnap Snap() { return SnapKernel(kernel()); }
  // The closed loop of the measured phase; clients and seconds are filled
  // in by the caller. The closures may be run for several phases in a row.
  virtual LoopSpec Loop() = 0;
  // Called right before a measured phase starts (workload-local counters).
  virtual void BeginPhase() {}
  // After the last phase: checks end state against the client models and
  // sets the workload's own metrics for the phase `res`. Returns false if a
  // check failed.
  virtual bool Finish(LoopResult& res, Report* report) = 0;
  // Default number of client threads.
  virtual int default_clients() const = 0;
};

std::unique_ptr<Workload> MakeFsDurable();
std::unique_ptr<Workload> MakeWebLogin();
std::unique_ptr<Workload> MakeNetStream();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
