// Process, spawn/fork/exec, pipe, and signal tests (paper §5.2–§5.6, §7.1).
#include "src/unixlib/process.h"

#include <gtest/gtest.h>

#include <atomic>

#include "src/unixlib/unix.h"

namespace histar {
namespace {

class ProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
  }
  void TearDown() override { CurrentThread::Set(kInvalidObject); }

  ProcessContext& init() { return world_->init_context(); }
  ProcessManager& procs() { return world_->procs(); }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
};

TEST_F(ProcessTest, SpawnRunsProgramAndReportsExitStatus) {
  procs().RegisterProgram("ret42", [](ProcessContext&) -> int64_t { return 42; });
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "ret42", {});
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  Result<int64_t> status = h.value()->Wait(init().self);
  ASSERT_TRUE(status.ok()) << StatusName(status.status());
  EXPECT_EQ(status.value(), 42);
}

TEST_F(ProcessTest, SpawnPathResolvesBinaries) {
  procs().RegisterProgram("true", [](ProcessContext&) -> int64_t { return 0; });
  ASSERT_TRUE(procs()
                  .InstallBinary(init().self, &world_->fs(), world_->bin_dir(), "true", "true",
                                 Label())
                  .ok());
  Result<std::unique_ptr<ProcHandle>> h = procs().SpawnPath(init(), "/bin/true", {});
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  Result<int64_t> status = h.value()->Wait(init().self);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 0);
}

TEST_F(ProcessTest, ProcessesSeeOwnArgs) {
  procs().RegisterProgram("argcheck", [](ProcessContext& ctx) -> int64_t {
    return static_cast<int64_t>(ctx.args.size());
  });
  Result<std::unique_ptr<ProcHandle>> h =
      procs().Spawn(init(), "argcheck", {"argcheck", "a", "b"});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value()->Wait(init().self).value(), 3);
}

TEST_F(ProcessTest, InternalContainerIsPrivate) {
  // Figure 6: another process cannot observe a process's internals (AS,
  // heap, stack) — they are labeled {pr3, pw0, 1}.
  std::atomic<bool> checked{false};
  procs().RegisterProgram("sleeper", [&](ProcessContext&) -> int64_t {
    while (!checked.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return 0;
  });
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "sleeper", {});
  ASSERT_TRUE(h.ok());
  const ProcessIds& ids = h.value()->ids();
  ObjectId stranger = kernel_->BootstrapThread(Label(), Label(Level::k2), "stranger");
  // The process container itself is readable (exit status must be), but
  // the internal container is not.
  Result<std::vector<ObjectId>> outer = kernel_->sys_container_list(stranger, ids.proc_ct);
  EXPECT_TRUE(outer.ok()) << StatusName(outer.status());
  Result<std::vector<ObjectId>> inner = kernel_->sys_container_list(stranger, ids.internal_ct);
  EXPECT_FALSE(inner.ok());
  // Nor can a stranger write the exit-status segment ({pw0, 1}).
  uint64_t fake = 1;
  EXPECT_EQ(kernel_->sys_segment_write(stranger, ContainerEntry{ids.proc_ct, ids.exit_seg},
                                       &fake, 0, 8),
            Status::kLabelCheckFailed);
  checked.store(true);
  EXPECT_TRUE(h.value()->Wait(init().self).ok());
}

TEST_F(ProcessTest, PipesCarryDataBetweenProcesses) {
  ASSERT_TRUE(init().fds->CreatePipe(init().self).ok());
  // fds 0 (read) and 1 (write) now exist in init's table.
  procs().RegisterProgram("producer", [](ProcessContext& ctx) -> int64_t {
    const char msg[] = "through the pipe";
    Result<uint64_t> n = ctx.fds->Write(ctx.self, 1, msg, sizeof(msg));
    return n.ok() ? 0 : -1;
  });
  ProcessOpts opts;
  opts.inherit_fds.push_back(init().fds->Entry(0).value());
  opts.inherit_fds.push_back(init().fds->Entry(1).value());
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "producer", {}, opts);
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  char buf[64] = {};
  Result<uint64_t> n = init().fds->Read(init().self, 0, buf, sizeof(buf));
  ASSERT_TRUE(n.ok()) << StatusName(n.status());
  EXPECT_STREQ(buf, "through the pipe");
  EXPECT_EQ(h.value()->Wait(init().self).value(), 0);
}

TEST_F(ProcessTest, PipeEofWhenWritersClose) {
  Result<std::pair<int, int>> p = init().fds->CreatePipe(init().self);
  ASSERT_TRUE(p.ok());
  const char msg[] = "x";
  ASSERT_TRUE(init().fds->Write(init().self, p.value().second, msg, 1).ok());
  ASSERT_EQ(init().fds->Close(init().self, p.value().second), Status::kOk);
  char buf[4];
  Result<uint64_t> n1 = init().fds->Read(init().self, p.value().first, buf, 4);
  ASSERT_TRUE(n1.ok());
  EXPECT_EQ(n1.value(), 1u);
  Result<uint64_t> n2 = init().fds->Read(init().self, p.value().first, buf, 4);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(n2.value(), 0u);  // EOF
}

TEST_F(ProcessTest, SharedSeekPositionAcrossFork) {
  // §5.3: descriptors shared via fork share their seek position, because
  // the offset lives in the fd segment itself.
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = world_->fs().Create(init().self, tmp, "seekfile", Label());
  ASSERT_TRUE(f.ok());
  const char content[] = "0123456789";
  ASSERT_EQ(world_->fs().WriteAt(init().self, tmp, f.value(), content, 0, 10), Status::kOk);
  Result<int> fd = init().fds->OpenFile(init().self, tmp, f.value(), 0);
  ASSERT_TRUE(fd.ok());
  int the_fd = fd.value();

  Result<std::unique_ptr<ProcHandle>> h =
      procs().Fork(init(), [the_fd](ProcessContext& ctx) -> int64_t {
        char b[4] = {};
        Result<uint64_t> n = ctx.fds->Read(ctx.self, the_fd, b, 4);
        return n.ok() && n.value() == 4 && memcmp(b, "0123", 4) == 0 ? 0 : -1;
      });
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  ASSERT_EQ(h.value()->Wait(init().self).value(), 0);
  // The child consumed 4 bytes; the parent's next read continues at 4.
  char b[4] = {};
  Result<uint64_t> n = init().fds->Read(init().self, the_fd, b, 4);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(memcmp(b, "4567", 4), 0);
}

TEST_F(ProcessTest, ForkCopiesHeap) {
  // Writes to the parent's heap before fork are visible in the child's
  // *copy*; child writes do not come back (copy, not share).
  uint32_t magic = 0xfeedface;
  ASSERT_EQ(kernel_->sys_segment_write(init().self,
                                       ContainerEntry{init().ids.internal_ct, init().ids.heap},
                                       &magic, 0, 4),
            Status::kOk);
  Result<std::unique_ptr<ProcHandle>> h =
      procs().Fork(init(), [](ProcessContext& ctx) -> int64_t {
        uint32_t v = 0;
        Status st = ctx.kernel->sys_segment_read(
            ctx.self, ContainerEntry{ctx.ids.internal_ct, ctx.ids.heap}, &v, 0, 4);
        if (st != Status::kOk || v != 0xfeedface) {
          return -1;
        }
        uint32_t w = 0x12345678;
        ctx.kernel->sys_segment_write(ctx.self,
                                      ContainerEntry{ctx.ids.internal_ct, ctx.ids.heap}, &w, 0,
                                      4);
        return 0;
      });
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  ASSERT_EQ(h.value()->Wait(init().self).value(), 0);
  uint32_t after = 0;
  ASSERT_EQ(kernel_->sys_segment_read(init().self,
                                      ContainerEntry{init().ids.internal_ct, init().ids.heap},
                                      &after, 0, 4),
            Status::kOk);
  EXPECT_EQ(after, 0xfeedface);  // parent's heap unchanged
}

TEST_F(ProcessTest, ExecReplacesImage) {
  procs().RegisterProgram("ret7", [](ProcessContext&) -> int64_t { return 7; });
  ASSERT_TRUE(procs()
                  .InstallBinary(init().self, &world_->fs(), world_->bin_dir(), "seven",
                                 "ret7", Label())
                  .ok());
  procs().RegisterProgram("execer", [](ProcessContext& ctx) -> int64_t {
    ObjectId old_heap = ctx.ids.heap;
    Result<int64_t> st = ctx.mgr->Exec(ctx, "/bin/seven", {});
    if (!st.ok()) {
      return -1;
    }
    // exec created a fresh heap and dropped the old one.
    if (ctx.ids.heap == old_heap) {
      return -2;
    }
    return st.value();
  });
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "execer", {});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value()->Wait(init().self).value(), 7);
}

TEST_F(ProcessTest, SignalsDeliverToHandlers) {
  std::atomic<int> got_signo{0};
  std::atomic<bool> ready{false};
  procs().RegisterProgram("sighandler", [&](ProcessContext& ctx) -> int64_t {
    ctx.signal_handlers[15] = [&](int s) { got_signo.store(s); };
    ready.store(true);
    for (int i = 0; i < 500 && got_signo.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ctx.PollSignals();
    }
    return got_signo.load();
  });
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "sighandler", {});
  ASSERT_TRUE(h.ok());
  while (!ready.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(h.value()->Kill(init().self, 15), Status::kOk);
  Result<int64_t> status = h.value()->Wait(init().self);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), 15);
  EXPECT_EQ(got_signo.load(), 15);
}

TEST_F(ProcessTest, SignalGateGuardBlocksUnauthorized) {
  // §5.6: the signal gate's clearance is {uw0, 2} — only owners of the
  // guard category may signal.
  Result<CategoryId> guard = kernel_->sys_cat_create(world_->init_thread());
  ASSERT_TRUE(guard.ok());
  std::atomic<bool> done{false};
  procs().RegisterProgram("guarded", [&](ProcessContext&) -> int64_t {
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return 0;
  });
  ProcessOpts opts;
  opts.signal_guard = guard.value();
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "guarded", {}, opts);
  ASSERT_TRUE(h.ok()) << StatusName(h.status());

  // A stranger without the guard category cannot signal.
  ObjectId stranger = kernel_->BootstrapThread(Label(), Label(Level::k2), "stranger");
  ProcHandle stranger_view(kernel_.get(), h.value()->ids());
  EXPECT_EQ(stranger_view.Kill(stranger, 9), Status::kLabelCheckFailed);
  // init owns the guard: allowed.
  EXPECT_EQ(h.value()->Kill(init().self, 9), Status::kOk);
  done.store(true);
  EXPECT_TRUE(h.value()->Wait(init().self).ok());
}

TEST_F(ProcessTest, DestroyRevokesWithoutCooperation) {
  // §3.2 / §9: the administrator (anyone with write access to the parent
  // container) can revoke a process's resources without being able to
  // observe or modify it.
  std::atomic<bool> spin{true};
  procs().RegisterProgram("stubborn", [&](ProcessContext& ctx) -> int64_t {
    while (spin.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      // A destroyed thread notices at its next syscall.
      if (ctx.kernel->sys_self_get_label(ctx.self).status() == Status::kHalted) {
        return -1;
      }
    }
    return 0;
  });
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "stubborn", {});
  ASSERT_TRUE(h.ok());
  ObjectId thread_id = h.value()->ids().thread;
  ASSERT_TRUE(kernel_->ObjectExists(thread_id));
  ASSERT_EQ(h.value()->Destroy(init().self), Status::kOk);
  EXPECT_FALSE(kernel_->ObjectExists(thread_id));
  spin.store(false);  // let the host thread unwind
}

TEST_F(ProcessTest, SpawnIsCheaperThanForkExecInSyscalls) {
  // §7.1's headline: fork+exec needs ~2.5× the syscalls of spawn. We verify
  // the ordering and a sensible gap, not the exact 317/127 (our scaffolding
  // differs in detail).
  procs().RegisterProgram("true", [](ProcessContext&) -> int64_t { return 0; });
  ASSERT_TRUE(procs()
                  .InstallBinary(init().self, &world_->fs(), world_->bin_dir(), "true", "true",
                                 Label())
                  .ok());

  uint64_t spawn_before = kernel_->syscall_count();
  {
    Result<std::unique_ptr<ProcHandle>> h = procs().SpawnPath(init(), "/bin/true", {});
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(h.value()->Wait(init().self).ok());
  }
  uint64_t spawn_cost = kernel_->syscall_count() - spawn_before;

  uint64_t fork_before = kernel_->syscall_count();
  {
    Result<std::unique_ptr<ProcHandle>> h =
        procs().Fork(init(), [](ProcessContext& ctx) -> int64_t {
          Result<int64_t> st = ctx.mgr->Exec(ctx, "/bin/true", {});
          return st.ok() ? st.value() : -1;
        });
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(h.value()->Wait(init().self).ok());
  }
  uint64_t forkexec_cost = kernel_->syscall_count() - fork_before;

  EXPECT_GT(forkexec_cost, spawn_cost + 10)
      << "spawn=" << spawn_cost << " fork+exec=" << forkexec_cost;
}

// Exits 0 only if the process's thread owns its own pr and pw.
int64_t OwnsPrPw(ProcessContext& ctx) {
  Result<Label> l = ctx.kernel->sys_self_get_label(ctx.self);
  return l.ok() && l.value().Owns(ctx.ids.pr) && l.value().Owns(ctx.ids.pw) ? 0 : 1;
}

// §5.2: the spawner mints pr/pw, builds the child with them, and hands them
// to the child's thread. Afterwards only the child (thread, signal and exit
// gates) owns them; the spawner's label and clearance are what they were.
class HandbackTest : public ProcessTest {
 protected:
  void SetUp() override {
    ProcessTest::SetUp();
    procs().RegisterProgram("true", [](ProcessContext&) -> int64_t { return 0; });
    procs().RegisterProgram("owns-prpw", OwnsPrPw);
  }

  Label SpawnerLabel() { return kernel_->sys_self_get_label(init().self).value(); }
  Label SpawnerClearance() { return kernel_->sys_self_get_clearance(init().self).value(); }

  // Runs `launch` and checks the spawner comes out with the label and
  // clearance it went in with.
  template <typename F>
  void ExpectUnchangedBy(const char* what, F launch) {
    Label label = SpawnerLabel();
    Label clearance = SpawnerClearance();
    launch();
    EXPECT_EQ(SpawnerLabel(), label) << what << ": " << SpawnerLabel().ToString();
    EXPECT_EQ(SpawnerClearance(), clearance) << what << ": " << SpawnerClearance().ToString();
  }
};

TEST_F(HandbackTest, SpawnerLabelAndClearanceAreUnchangedByEveryLaunch) {
  ASSERT_TRUE(procs()
                  .InstallBinary(init().self, &world_->fs(), world_->bin_dir(), "owns", "owns-prpw",
                                 Label())
                  .ok());
  ExpectUnchangedBy("Spawn", [&] {
    Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "owns-prpw", {});
    ASSERT_TRUE(h.ok()) << StatusName(h.status());
    // The spawner no longer owns the child's categories; the child does.
    EXPECT_FALSE(SpawnerLabel().Owns(h.value()->ids().pr));
    EXPECT_FALSE(SpawnerLabel().Owns(h.value()->ids().pw));
    EXPECT_EQ(h.value()->Wait(init().self).value(), 0);
  });
  ExpectUnchangedBy("SpawnPath", [&] {
    Result<std::unique_ptr<ProcHandle>> h = procs().SpawnPath(init(), "/bin/owns", {});
    ASSERT_TRUE(h.ok()) << StatusName(h.status());
    EXPECT_EQ(h.value()->Wait(init().self).value(), 0);
  });
  ExpectUnchangedBy("Fork", [&] {
    Result<std::unique_ptr<ProcHandle>> h = procs().Fork(init(), OwnsPrPw);
    ASSERT_TRUE(h.ok()) << StatusName(h.status());
    EXPECT_EQ(h.value()->Wait(init().self).value(), 0);
  });
}

TEST_F(HandbackTest, FailedLaunchStillHandsTheCategoriesBack) {
  // Fails in Adopt, after the whole process is built.
  ExpectUnchangedBy("invalid inherited fd", [&] {
    ProcessOpts opts;
    opts.inherit_fds.push_back(ContainerEntry{init().ids.proc_ct, 0x7fffffff});
    Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "true", {}, opts);
    EXPECT_FALSE(h.ok());
  });
  // Fails inside the build, right after the categories are minted.
  ExpectUnchangedBy("missing process parent", [&] {
    ProcessOpts opts;
    opts.proc_parent = 0x7fffffff;
    Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "true", {}, opts);
    EXPECT_FALSE(h.ok());
  });
}

TEST_F(HandbackTest, FailedLaunchLeavesNothingBehind) {
  // The child adopts the pipe's write end, then fails on an invalid entry.
  Result<std::pair<int, int>> p = init().fds->CreatePipe(init().self);
  ASSERT_TRUE(p.ok());
  ObjectId proc_root = world_->env().proc_root;
  size_t entries = kernel_->sys_container_list(init().self, proc_root).value().size();
  ProcessOpts opts;
  opts.inherit_fds.push_back(init().fds->Entry(p.value().second).value());
  opts.inherit_fds.push_back(ContainerEntry{init().ids.proc_ct, 0x7fffffff});
  EXPECT_FALSE(procs().Spawn(init(), "true", {}, opts).ok());
  // The half-built process is unlinked...
  EXPECT_EQ(kernel_->sys_container_list(init().self, proc_root).value().size(), entries);
  // ...and its adopted write end is closed, so closing ours reads as EOF.
  ASSERT_EQ(init().fds->Close(init().self, p.value().second), Status::kOk);
  char buf[4];
  Result<uint64_t> n = init().fds->ReadTimeout(init().self, p.value().first, buf, 4, 50);
  ASSERT_TRUE(n.ok()) << StatusName(n.status());
  EXPECT_EQ(n.value(), 0u);
}

TEST_F(HandbackTest, SpawnerStillWaitsKillsAndDestroysWithoutOwnership) {
  std::atomic<int> got_signo{0};
  std::atomic<bool> ready{false};
  procs().RegisterProgram("until-signal", [&](ProcessContext& ctx) -> int64_t {
    ctx.signal_handlers[15] = [&](int s) { got_signo.store(s); };
    ready.store(true);
    for (int i = 0; i < 2500 && got_signo.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ctx.PollSignals();
    }
    return got_signo.load();
  });
  Label label = SpawnerLabel();
  Label clearance = SpawnerClearance();
  Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "until-signal", {});
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  const ProcessIds ids = h.value()->ids();
  EXPECT_FALSE(SpawnerLabel().Owns(ids.pr));
  while (!ready.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Kill borrows pr⋆/pw⋆ from the signal gate for the crossing only.
  ASSERT_EQ(h.value()->Kill(init().self, 15), Status::kOk);
  EXPECT_EQ(SpawnerLabel(), label) << SpawnerLabel().ToString();
  EXPECT_EQ(SpawnerClearance(), clearance) << SpawnerClearance().ToString();
  // Wait reads the {pw0, 1} exit segment.
  Result<int64_t> status = h.value()->Wait(init().self);
  ASSERT_TRUE(status.ok()) << StatusName(status.status());
  EXPECT_EQ(status.value(), 15);
  // Destroy needs only write access to the parent container (§3.2).
  ASSERT_TRUE(kernel_->ObjectExists(ids.proc_ct));
  ASSERT_EQ(h.value()->Destroy(init().self), Status::kOk);
  EXPECT_FALSE(kernel_->ObjectExists(ids.proc_ct));
  EXPECT_FALSE(kernel_->ObjectExists(ids.thread));
}

TEST_F(HandbackTest, SpawnerLabelDoesNotGrowWithEveryChild) {
  // A spawner that kept pr⋆/pw⋆ (and pr3/pw3) would gain two label and two
  // clearance entries per cycle.
  size_t label_entries = SpawnerLabel().entry_count();
  size_t clearance_entries = SpawnerClearance().entry_count();
  for (int i = 0; i < 200; ++i) {
    Result<std::unique_ptr<ProcHandle>> h = procs().Spawn(init(), "true", {});
    ASSERT_TRUE(h.ok()) << "cycle " << i << ": " << StatusName(h.status());
    ASSERT_EQ(h.value()->Wait(init().self).value(), 0) << "cycle " << i;
    ASSERT_EQ(h.value()->Destroy(init().self), Status::kOk) << "cycle " << i;
  }
  EXPECT_EQ(SpawnerLabel().entry_count(), label_entries);
  EXPECT_EQ(SpawnerClearance().entry_count(), clearance_entries);
}

}  // namespace
}  // namespace histar
