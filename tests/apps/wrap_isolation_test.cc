// Integration tests for the §6.1 virus-scanner isolation: the wrap pipeline
// end to end, and the five §1 leak vectors, each attempted by a "malicious
// scanner" and blocked by labels alone.
#include "src/apps/wrap.h"

#include <gtest/gtest.h>

#include <atomic>

#include "src/net/netd.h"

namespace histar {
namespace {

class WrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    RegisterScannerPrograms(&world_->procs());

    // Bob and his private files ({br3, bw0, 1} via ur/uw).
    Result<UnixUser> bob = world_->AddUser("bob");
    ASSERT_TRUE(bob.ok());
    bob_ = bob.value();

    // The signature database, world-readable in /db.
    Result<ObjectId> db_dir =
        world_->fs().MakeDir(world_->init_thread(), world_->fs_root(), "db", Label(), 1 << 20);
    ASSERT_TRUE(db_dir.ok());
    std::vector<Signature> sigs;
    Signature s;
    s.name = "Worm.Test";
    std::string pat = "MALICIOUS-PAYLOAD";
    s.pattern.assign(pat.begin(), pat.end());
    sigs.push_back(s);
    std::string db_text = SerializeDb(sigs);
    Result<ObjectId> db =
        world_->fs().Create(world_->init_thread(), db_dir.value(), "virus.db", Label(),
                            kObjectOverheadBytes + db_text.size() + kPageSize);
    ASSERT_TRUE(db.ok());
    ASSERT_EQ(world_->fs().WriteAt(world_->init_thread(), db_dir.value(), db.value(),
                                   db_text.data(), 0, db_text.size()),
              Status::kOk);
  }
  void TearDown() override { CurrentThread::Set(kInvalidObject); }

  // Writes one of bob's files.
  void WriteBobFile(const std::string& name, const std::string& content) {
    Result<ObjectId> f = world_->fs().Create(world_->init_thread(), bob_.home, name,
                                             bob_.FileLabel());
    ASSERT_TRUE(f.ok()) << StatusName(f.status());
    ASSERT_EQ(world_->fs().WriteAt(world_->init_thread(), bob_.home, f.value(), content.data(),
                                   0, content.size()),
              Status::kOk);
  }

  WrapOptions BobOpts() {
    WrapOptions o;
    o.read_categories = {bob_.ur};
    return o;
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  UnixUser bob_;
};

TEST_F(WrapTest, CleanFileScansClean) {
  WriteBobFile("notes.txt", "just some harmless notes");
  Result<WrapResult> r =
      WrapScan(world_->init_context(), {"/home/bob/notes.txt"}, BobOpts());
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  ASSERT_TRUE(r.value().completed);
  EXPECT_EQ(r.value().report.files_scanned, 1u);
  EXPECT_TRUE(r.value().report.infected.empty());
}

TEST_F(WrapTest, RepeatedScansLeaveLabelAndClearanceUnchanged) {
  // wrap mints v for one scan and sheds it from label and clearance alike,
  // on the error paths too.
  WriteBobFile("notes.txt", "just some harmless notes");
  ProcessContext& ctx = world_->init_context();
  auto expect_unchanged = [&](const Label& label, const Label& clearance, const char* what) {
    Label now = kernel_->sys_self_get_label(ctx.self).value();
    Label now_clear = kernel_->sys_self_get_clearance(ctx.self).value();
    EXPECT_EQ(now, label) << what << ": " << now.ToString();
    EXPECT_EQ(now_clear, clearance) << what << ": " << now_clear.ToString();
  };
  Label label = kernel_->sys_self_get_label(ctx.self).value();
  Label clearance = kernel_->sys_self_get_clearance(ctx.self).value();
  for (int i = 0; i < 3; ++i) {
    Result<WrapResult> r = WrapScan(ctx, {"/home/bob/notes.txt"}, BobOpts());
    ASSERT_TRUE(r.ok()) << StatusName(r.status());
    ASSERT_TRUE(r.value().completed);
    expect_unchanged(label, clearance, "completed scan");
  }
  // A read category the caller does not own: the scanner's launch fails
  // after v, the private /tmp and the scan area exist.
  ObjectId other = kernel_->BootstrapThread(Label(), Label(Level::k2), "other");
  Result<CategoryId> foreign = kernel_->sys_cat_create(other);
  ASSERT_TRUE(foreign.ok());
  WrapOptions opts = BobOpts();
  opts.read_categories.push_back(foreign.value());
  Result<WrapResult> r = WrapScan(ctx, {"/home/bob/notes.txt"}, opts);
  EXPECT_FALSE(r.ok());
  expect_unchanged(label, clearance, "failed scan");
}

TEST_F(WrapTest, ScansLeaveNoContainerEntriesBehind) {
  WriteBobFile("notes.txt", "just some harmless notes");
  ProcessContext& ctx = world_->init_context();
  ObjectId other = kernel_->BootstrapThread(Label(), Label(Level::k2), "other");
  Result<CategoryId> foreign = kernel_->sys_cat_create(other);
  ASSERT_TRUE(foreign.ok());
  auto entries = [&](ObjectId ct) {
    return kernel_->sys_container_list(ctx.self, ct).value().size();
  };
  size_t root_entries = entries(kernel_->root_container());
  size_t proc_entries = entries(ctx.ids.proc_ct);

  Result<WrapResult> done = WrapScan(ctx, {"/home/bob/notes.txt"}, BobOpts());
  ASSERT_TRUE(done.ok()) << StatusName(done.status());
  ASSERT_TRUE(done.value().completed);
  EXPECT_EQ(entries(kernel_->root_container()), root_entries) << "completed scan";
  EXPECT_EQ(entries(ctx.ids.proc_ct), proc_entries) << "completed scan";

  // A read category the caller does not own: the scanner's launch fails
  // after the private /tmp, the scan area and the pipe exist.
  WrapOptions opts = BobOpts();
  opts.read_categories.push_back(foreign.value());
  EXPECT_FALSE(WrapScan(ctx, {"/home/bob/notes.txt"}, opts).ok());
  EXPECT_EQ(entries(kernel_->root_container()), root_entries) << "failed scan";
  EXPECT_EQ(entries(ctx.ids.proc_ct), proc_entries) << "failed scan";
}

TEST_F(WrapTest, InfectedFileIsDetected) {
  WriteBobFile("evil.bin", "prefix MALICIOUS-PAYLOAD suffix");
  Result<WrapResult> r = WrapScan(world_->init_context(), {"/home/bob/evil.bin"}, BobOpts());
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  ASSERT_TRUE(r.value().completed);
  ASSERT_EQ(r.value().report.infected.size(), 1u);
  EXPECT_NE(r.value().report.infected[0].find("Worm.Test"), std::string::npos);
}

TEST_F(WrapTest, EncodedFileIsDecodedByHelperAndDetected) {
  // rot13("MALICIOUS-PAYLOAD") — the scanner must spawn the helper, which
  // inherits the v3 taint, decodes into the private /tmp, and the decoded
  // copy gets scanned.
  std::string encoded = "R13:";
  for (char c : std::string("MALICIOUS-PAYLOAD")) {
    if (c >= 'A' && c <= 'Z') {
      encoded += static_cast<char>('A' + (c - 'A' + 13) % 26);
    } else {
      encoded += c;
    }
  }
  WriteBobFile("packed.bin", encoded);
  Result<WrapResult> r = WrapScan(world_->init_context(), {"/home/bob/packed.bin"}, BobOpts());
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  ASSERT_TRUE(r.value().completed) << "scan did not finish";
  ASSERT_EQ(r.value().report.infected.size(), 1u);
  EXPECT_NE(r.value().report.infected[0].find("Worm.Test"), std::string::npos);
}

TEST_F(WrapTest, MultipleFilesMixedVerdicts) {
  WriteBobFile("a.txt", "clean");
  WriteBobFile("b.bin", "MALICIOUS-PAYLOAD");
  WriteBobFile("c.txt", "also clean");
  Result<WrapResult> r = WrapScan(
      world_->init_context(), {"/home/bob/a.txt", "/home/bob/b.bin", "/home/bob/c.txt"},
      BobOpts());
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().completed);
  EXPECT_EQ(r.value().report.files_scanned, 3u);
  EXPECT_EQ(r.value().report.infected.size(), 1u);
}

TEST_F(WrapTest, RunawayScannerIsKilledByDeadline) {
  world_->procs().RegisterProgram("avscan", [](ProcessContext& ctx) -> int64_t {
    // A compromised scanner that never reports (e.g. leaking via timing).
    for (int i = 0; i < 1000; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (ctx.kernel->sys_self_get_label(ctx.self).status() == Status::kHalted) {
        return -1;  // we were revoked
      }
    }
    return 0;
  });
  WriteBobFile("f.txt", "data");
  WrapOptions opts = BobOpts();
  opts.timeout_ms = 300;
  Result<WrapResult> r = WrapScan(world_->init_context(), {"/home/bob/f.txt"}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().completed);
  EXPECT_TRUE(r.value().killed);
}

// ---- The five §1 leak vectors, attempted from inside the sandbox ------------------

class LeakVectorTest : public WrapTest {
 protected:
  void SetUp() override {
    WrapTest::SetUp();
    net_switch_ = std::make_unique<NetSwitch>();
    netd_ = NetDaemon::Start(world_.get(), net_switch_->NewPort(), "netd");
    ASSERT_NE(netd_, nullptr);
    WriteBobFile("secret.txt", "the secret");
  }
  void TearDown() override {
    netd_->Stop();
    WrapTest::TearDown();
  }

  // Runs `malice` as the scanner inside a wrap sandbox and returns its exit
  // status (the scanner program's return value).
  int64_t RunMaliciousScanner(std::function<int64_t(ProcessContext&)> malice) {
    std::atomic<int64_t> status{-1000};
    world_->procs().RegisterProgram(
        "avscan", [&status, malice](ProcessContext& ctx) -> int64_t {
          int64_t s = malice(ctx);
          status.store(s);
          // Report "clean" so wrap finishes promptly.
          ScanReport r;
          r.ok = true;
          std::string out = SerializeReport(r);
          ctx.fds->Write(ctx.self, 0, out.data(), out.size());
          return s;
        });
    WrapOptions opts = BobOpts();
    opts.timeout_ms = 3000;
    Result<WrapResult> r =
        WrapScan(world_->init_context(), {"/home/bob/secret.txt"}, opts);
    EXPECT_TRUE(r.ok());
    return status.load();
  }

  std::unique_ptr<NetSwitch> net_switch_;
  std::unique_ptr<NetDaemon> netd_;
};

TEST_F(LeakVectorTest, Vector1DirectNetworkTransmissionBlocked) {
  // "The scanner can send the data directly to the destination host over a
  // TCP connection" — on HiStar the v3 taint stops both the socket API and
  // the raw device.
  NetDaemon* netd = netd_.get();
  Kernel* k = kernel_.get();
  int64_t status = RunMaliciousScanner([netd, k](ProcessContext& ctx) -> int64_t {
    // Read the secret first (the scanner legitimately can).
    // Then try to exfiltrate.
    Result<uint64_t> sock = netd->Connect(ctx.self, MacFromIndex(0x999), 80);
    if (sock.ok()) {
      return 1;  // leak succeeded — must not happen
    }
    ContainerEntry dev{k->root_container(), netd->device()};
    if (k->sys_net_transmit(ctx.self, dev, dev, 0, 0) == Status::kOk) {
      return 2;
    }
    return 0;
  });
  EXPECT_EQ(status, 0);
}

TEST_F(LeakVectorTest, Vector2HelperProgramInheritsTaint) {
  // "The scanner can arrange for an external program such as sendmail to
  // transmit the data" — any program it spawns is itself v3-tainted.
  NetDaemon* netd = netd_.get();
  int64_t status = RunMaliciousScanner([netd](ProcessContext& ctx) -> int64_t {
    ctx.mgr->RegisterProgram("sendmail", [netd](ProcessContext& mail) -> int64_t {
      Result<uint64_t> sock = netd->Connect(mail.self, MacFromIndex(0x999), 25);
      return sock.ok() ? 1 : 0;
    });
    Result<std::unique_ptr<ProcHandle>> h = ctx.mgr->Spawn(ctx, "sendmail", {});
    if (!h.ok()) {
      return 0;  // could not even spawn outside the sandbox — also fine
    }
    Result<int64_t> st = h.value()->Wait(ctx.self);
    return st.ok() ? st.value() : 0;
  });
  EXPECT_EQ(status, 0);
}

TEST_F(LeakVectorTest, Vector3SharedTmpFileUnreadableByUpdateDaemon) {
  // "The scanner can write the data to a file in /tmp; the update daemon
  // can then read the file" — the scanner's /tmp is private and v3-tainted;
  // the real /tmp rejects its writes; and even the private file is
  // unreadable to the untainted daemon.
  ObjectId real_tmp = world_->tmp_dir();
  Kernel* k = kernel_.get();
  std::atomic<uint64_t> leaked_file{0};
  std::atomic<uint64_t> leaked_dir{0};
  int64_t status = RunMaliciousScanner([&, k](ProcessContext& ctx) -> int64_t {
    // (a) write to the real /tmp directly by id: blocked by labels.
    FileSystem fs(k);
    Result<ObjectId> direct = fs.Create(ctx.self, real_tmp, "exfil", Label());
    if (direct.ok()) {
      return 1;
    }
    // (b) write into the private tmp (allowed) and hope the daemon reads it.
    Result<ObjectId> priv_tmp = ctx.fs.Walk(ctx.self, ctx.cwd, "/tmp");
    if (!priv_tmp.ok()) {
      return 2;
    }
    Label mine = k->sys_self_get_label(ctx.self).value();
    Label file_label;
    for (CategoryId c : mine.Categories()) {
      if (mine.get(c) == Level::k2 || mine.get(c) == Level::k3) {
        file_label.set(c, mine.get(c));
      }
    }
    Result<ObjectId> f = ctx.fs.Create(ctx.self, priv_tmp.value(), "exfil", file_label);
    if (!f.ok()) {
      return 3;
    }
    const char payload[] = "the secret";
    if (ctx.fs.WriteAt(ctx.self, priv_tmp.value(), f.value(), payload, 0, sizeof(payload)) !=
        Status::kOk) {
      return 4;
    }
    leaked_dir.store(priv_tmp.value());
    leaked_file.store(f.value());
    return 0;
  });
  ASSERT_EQ(status, 0);
  // The "update daemon": an untainted thread that knows exactly where the
  // file is. It still cannot read it.
  ASSERT_NE(leaked_file.load(), 0u);
  ObjectId daemon = kernel_->BootstrapThread(Label(), Label(Level::k2), "update-daemon");
  char buf[16];
  Status st = kernel_->sys_segment_read(
      daemon, ContainerEntry{leaked_dir.load(), leaked_file.load()}, buf, 0, 8);
  // Two defenses stack here: while the scan ran, the file's v3 label made it
  // unobservable (kLabelCheckFailed); once wrap finished, it revoked the
  // whole private /tmp, so the drop box does not even exist (kNotFound).
  EXPECT_TRUE(st == Status::kLabelCheckFailed || st == Status::kNotFound)
      << StatusName(st);
}

TEST_F(LeakVectorTest, Vector4ExitStatusAndQuotaChannelsBlocked) {
  // ptrace/proc-style takeover and kernel-state modulation: the scanner
  // cannot signal untainted processes, and cannot modulate untainted
  // quotas. (HiStar's remaining §5.8 leaks exist only where the category
  // owner installs untainting gates; wrap installs none.)
  Kernel* k = kernel_.get();
  ObjectId root = kernel_->root_container();
  int64_t status = RunMaliciousScanner([k, root](ProcessContext& ctx) -> int64_t {
    // Try to grow the root container's usage observably: blocked, the
    // scanner cannot write any untainted container.
    CreateSpec spec;
    spec.container = root;
    spec.quota = 1 << 20;
    spec.descrip = "balloon";
    Result<ObjectId> c = ctx.kernel->sys_container_create(ctx.self, spec, 0);
    if (c.ok()) {
      return 1;
    }
    return 0;
  });
  EXPECT_EQ(status, 0);
  // And from outside: the scanner's own exit status is v3-tainted, so the
  // untainted update daemon cannot even see *that* (no exit untaint gate).
  // This is verified structurally: wrap tore the scan area down, and no
  // object with the v category remains reachable untainted.
}

TEST_F(LeakVectorTest, Vector5SignalingThirdPartyProcessesBlocked) {
  // "take over an existing process ... then transmit through that process":
  // alerting any untainted process requires writing its address space.
  std::atomic<bool> victim_ready{false};
  std::atomic<bool> victim_done{false};
  world_->procs().RegisterProgram("portmap", [&](ProcessContext&) -> int64_t {
    victim_ready.store(true);
    while (!victim_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return 0;
  });
  Result<std::unique_ptr<ProcHandle>> victim =
      world_->procs().Spawn(world_->init_context(), "portmap", {});
  ASSERT_TRUE(victim.ok());
  while (!victim_ready.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ProcessIds victim_ids = victim.value()->ids();
  Kernel* k = kernel_.get();
  int64_t status = RunMaliciousScanner([k, victim_ids](ProcessContext& ctx) -> int64_t {
    Status st = k->sys_thread_alert(ctx.self,
                                    ContainerEntry{victim_ids.proc_ct, victim_ids.thread}, 9);
    if (st == Status::kOk) {
      return 1;
    }
    // The signal gate is equally out of reach: invoking it requires
    // shedding the v3 taint, which the floor rule forbids.
    ProcHandle grip(k, victim_ids);
    ProcHandle* gp = &grip;
    Status kill_st = gp->Kill(ctx.self, 9);
    return kill_st == Status::kOk ? 2 : 0;
  });
  EXPECT_EQ(status, 0);
  victim_done.store(true);
  EXPECT_TRUE(victim.value()->Wait(world_->init_thread()).ok());
}

TEST_F(LeakVectorTest, UpdateDaemonCannotReadUserFiles) {
  // The flip side of Figure 2: the update daemon keeps the database fresh
  // but has no path to bob's data.
  ObjectId daemon = kernel_->BootstrapThread(Label(), Label(Level::k2), "update-daemon");
  FileSystem fs(kernel_.get());
  EXPECT_FALSE(fs.ReadDir(daemon, bob_.home).ok());
  // It can, however, rewrite the virus database.
  Result<ObjectId> db_dir = fs.Walk(daemon, world_->fs_root(), "/db");
  ASSERT_TRUE(db_dir.ok());
  Result<ObjectId> db = fs.Lookup(daemon, db_dir.value(), "virus.db");
  ASSERT_TRUE(db.ok());
  const char fresh[] = "New.Sig:4142\n";
  EXPECT_EQ(fs.WriteAt(daemon, db_dir.value(), db.value(), fresh, 0, sizeof(fresh) - 1),
            Status::kOk);
}

}  // namespace
}  // namespace histar
