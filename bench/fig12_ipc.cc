// Figure 12, "IPC benchmark, per RTT": the average round-trip time of an
// 8-byte message over a pair of uni-directional pipes between two processes.
//
//   paper: HiStar 3.11 µs · Linux 4.32 µs · OpenBSD 2.13 µs
//
// The HiStar row exercises the full user-level pipe stack: fd segments,
// shared pipe-buffer segments, segment-mutex locking and kernel futexes. The
// baseline row is the monolithic in-kernel pipe (one lock, one buffer) that
// the Linux column enjoys. The paper's point is the *closeness* of the two —
// a user-level Unix implementation does not forfeit IPC performance.
#include <benchmark/benchmark.h>

#include <atomic>

#include "bench/bench_util.h"
#include "src/baseline/mono_fs.h"

namespace histar::bench {
namespace {

// HiStar: parent and echo child connected by two pipes; the child bounces
// every 8-byte message back.
void BM_HiStarPipeRTT(::benchmark::State& state) {
  World w = BootWorld(/*with_store=*/false);
  ProcessContext& ctx = w.ctx();
  Kernel* k = w.kernel.get();

  FdTable fds(k, ctx.ids, Label());
  Result<std::pair<int, int>> ping = fds.CreatePipe(w.init());   // parent → child
  Result<std::pair<int, int>> pong = fds.CreatePipe(w.init());   // child → parent
  if (!ping.ok() || !pong.ok()) {
    state.SkipWithError("pipe setup failed");
    return;
  }

  std::atomic<bool> stop{false};
  w.unix->procs().RegisterProgram("echo", [&stop](ProcessContext& c) -> int64_t {
    // fd 0 = ping read end, fd 1 = pong write end (adoption order).
    char buf[8];
    while (!stop.load(std::memory_order_relaxed)) {
      Result<uint64_t> n = c.fds->ReadTimeout(c.self, 0, buf, sizeof(buf), 200);
      if (n.ok() && n.value() > 0) {
        c.fds->Write(c.self, 1, buf, n.value());
      } else if (!n.ok() && n.status() != Status::kAgain) {
        break;
      }
    }
    return 0;
  });
  ProcessOpts opts;
  opts.inherit_fds = {fds.Entry(ping.value().first).value(),
                      fds.Entry(pong.value().second).value()};
  Result<std::unique_ptr<ProcHandle>> child = w.unix->procs().Spawn(ctx, "echo", {}, opts);
  if (!child.ok()) {
    state.SkipWithError("spawn failed");
    return;
  }

  char msg[8] = {'p', 'i', 'n', 'g', '1', '2', '3', '4'};
  char back[8];
  for (auto _ : state) {
    fds.Write(w.init(), ping.value().second, msg, sizeof(msg));
    uint64_t got = 0;
    while (got < sizeof(back)) {
      Result<uint64_t> n =
          fds.Read(w.init(), pong.value().first, back + got, sizeof(back) - got);
      if (!n.ok()) {
        state.SkipWithError("pipe read failed");
        return;
      }
      got += n.value();
    }
    ::benchmark::DoNotOptimize(back);
  }
  stop.store(true);
  child.value()->Wait(w.init());
  PaperCounter(state, 3.11e-6);  // seconds per RTT
  CurrentThread::Set(kInvalidObject);
}
BENCHMARK(BM_HiStarPipeRTT)->Unit(::benchmark::kMicrosecond);

// Baseline: the monolithic kernel's pipe — the Linux 4.32 µs column's moral
// equivalent in this simulator.
void BM_BaselinePipeRTT(::benchmark::State& state) {
  monosim::MonoPipe ping;
  monosim::MonoPipe pong;
  std::atomic<bool> stop{false};
  std::thread echo([&]() {
    char buf[8];
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t n = ping.Read(buf, sizeof(buf));
      if (n == 0) {
        return;  // peer closed
      }
      pong.Write(buf, n);
    }
  });

  char msg[8] = {'p', 'o', 'n', 'g', '1', '2', '3', '4'};
  char back[8];
  for (auto _ : state) {
    ping.Write(msg, sizeof(msg));
    uint64_t got = 0;
    while (got < sizeof(back)) {
      got += pong.Read(back + got, sizeof(back) - got);
    }
    ::benchmark::DoNotOptimize(back);
  }
  stop.store(true);
  // Unblock the echo thread if it sits in Read.
  ping.Write(msg, sizeof(msg));
  echo.join();
  PaperCounter(state, 4.32e-6);  // the Linux column
}
BENCHMARK(BM_BaselinePipeRTT)->Unit(::benchmark::kMicrosecond);

// Batched syscall-run variant (PR 3): the pipe RTT above is dominated by a
// run of small same-segment syscalls (fd-state load, ring reads/writes,
// header commits). This row isolates that shape — sixteen 8-byte segment
// ops per iteration, submitted in batches of `batch_size` descriptors — so
// the per-call TableLock round-trip the batch ABI amortizes is measured
// directly: batch=1 is the legacy per-call cost, batch=16 pays one lock
// acquisition for the whole run. (The pipe stack itself now submits its
// data+header ops as one batch, so BM_HiStarPipeRTT already includes the
// win; see EXPERIMENTS.md for the single-CPU caveat.)
void BM_HiStarBatchedSegOps(::benchmark::State& state) {
  const uint64_t batch = static_cast<uint64_t>(state.range(0));
  constexpr uint64_t kOpsPerIter = 16;
  World w = BootWorld(/*with_store=*/false);
  Kernel* k = w.kernel.get();

  CreateSpec spec;
  spec.container = k->root_container();
  spec.label = Label();
  spec.descrip = "ipcbuf";
  spec.quota = kObjectOverheadBytes + 4096 + kPageSize;
  Result<ObjectId> seg = k->sys_segment_create(w.init(), spec, 4096);
  if (!seg.ok()) {
    state.SkipWithError("segment setup failed");
    return;
  }
  ContainerEntry ce{k->root_container(), seg.value()};

  char buf[8] = {'b', 'a', 't', 'c', 'h', '1', '2', '8'};
  std::vector<SyscallReq> reqs(batch);
  std::vector<SyscallRes> res(batch);
  for (auto _ : state) {
    for (uint64_t done = 0; done < kOpsPerIter; done += batch) {
      for (uint64_t i = 0; i < batch; ++i) {
        uint64_t off = 8 * ((done + i) % 16);
        // 3 reads : 1 write, the fd/pipe mix.
        if ((done + i) % 4 == 3) {
          reqs[i] = SegmentWriteReq{ce, buf, off, 8};
        } else {
          reqs[i] = SegmentReadReq{ce, buf, off, 8};
        }
      }
      k->SubmitBatch(w.init(), std::span<const SyscallReq>(reqs.data(), batch),
                     std::span<SyscallRes>(res.data(), batch));
      ::benchmark::DoNotOptimize(res.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kOpsPerIter);
  CurrentThread::Set(kInvalidObject);
}
BENCHMARK(BM_HiStarBatchedSegOps)->Arg(1)->Arg(4)->Arg(16)->Unit(::benchmark::kMicrosecond);

// Warm lock-free batch reads (PR 6 fast path): sixteen read-only descriptors
// — type, quota, len, container-has — on already-resolved hot objects, the
// group the gate dispatches with zero TableLocks. This is the
// tracing-overhead canary for PR 10: each descriptor records one flight-
// recorder event plus a histogram bump, and on this path that bookkeeping is
// the only kernel work besides the reads themselves, so any recorder
// regression shows here first. scripts/bench_json.sh runs this row from both
// the normal tree and a -DHISTAR_TRACE=0 tree into BENCH_pr10.json and
// scripts/check_bench_pr10.sh holds the delta under 5%.
void BM_HiStarLockFreeBatchGet(::benchmark::State& state) {
  constexpr uint64_t kOpsPerIter = 16;
  World w = BootWorld(/*with_store=*/false);
  Kernel* k = w.kernel.get();

  CreateSpec spec;
  spec.container = k->root_container();
  spec.label = Label();
  spec.descrip = "lfbuf";
  spec.quota = kObjectOverheadBytes + 4096 + kPageSize;
  Result<ObjectId> seg = k->sys_segment_create(w.init(), spec, 4096);
  if (!seg.ok()) {
    state.SkipWithError("segment setup failed");
    return;
  }
  ContainerEntry ce{k->root_container(), seg.value()};

  std::vector<SyscallReq> reqs(kOpsPerIter);
  std::vector<SyscallRes> res(kOpsPerIter);
  for (uint64_t i = 0; i < kOpsPerIter; ++i) {
    switch (i % 4) {
      case 0: reqs[i] = ObjGetTypeReq{ce}; break;
      case 1: reqs[i] = ObjGetQuotaReq{ce}; break;
      case 2: reqs[i] = SegmentGetLenReq{ce}; break;
      default: reqs[i] = ContainerHasReq{k->root_container(), seg.value()}; break;
    }
  }
  // Warm the resolve/label memos so steady-state cost is what's measured.
  k->SubmitBatch(w.init(), std::span<const SyscallReq>(reqs),
                 std::span<SyscallRes>(res));

  for (auto _ : state) {
    k->SubmitBatch(w.init(), std::span<const SyscallReq>(reqs),
                   std::span<SyscallRes>(res));
    ::benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kOpsPerIter);
  CurrentThread::Set(kInvalidObject);
}
BENCHMARK(BM_HiStarLockFreeBatchGet)->Unit(::benchmark::kMicrosecond);

}  // namespace
}  // namespace histar::bench

BENCHMARK_MAIN();
