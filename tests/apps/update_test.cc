// The update daemon (§6.1): fetches databases over the network; can write
// the database (it owns i — the administrator's import grant) but cannot
// touch private user data, and an unprivileged variant stays i2-stuck.
#include <gtest/gtest.h>

#include <thread>

#include "src/apps/scanner.h"
#include "src/apps/wrap.h"

namespace histar {
namespace {

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    net_switch_ = std::make_unique<NetSwitch>();
    netd_ = NetDaemon::Start(world_.get(), net_switch_->NewPort(), "netd");
    mirror_ = NetDaemon::Start(world_.get(), net_switch_->NewPort(), "mirror-stack");
    ASSERT_NE(netd_, nullptr);
    ASSERT_NE(mirror_, nullptr);

    Result<ObjectId> db_dir =
        world_->fs().MakeDir(world_->init_thread(), world_->fs_root(), "db", Label(), 1 << 20);
    ASSERT_TRUE(db_dir.ok());
    db_dir_ = db_dir.value();
    Result<ObjectId> db = world_->fs().Create(world_->init_thread(), db_dir_, "virus.db",
                                              Label());
    ASSERT_TRUE(db.ok());
    const char old[] = "Old.Sig:41\n";
    ASSERT_EQ(world_->fs().WriteAt(world_->init_thread(), db_dir_, db.value(), old, 0,
                                   sizeof(old) - 1),
              Status::kOk);
  }
  void TearDown() override {
    netd_->Stop();
    mirror_->Stop();
    CurrentThread::Set(kInvalidObject);
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  std::unique_ptr<NetSwitch> net_switch_;
  std::unique_ptr<NetDaemon> netd_;
  std::unique_ptr<NetDaemon> mirror_;
  ObjectId db_dir_ = kInvalidObject;
};

TEST_F(UpdateTest, PrivilegedDaemonFetchesAndInstalls) {
  // The mirror serves a fresh database.
  std::string fresh_db = "Fresh.Sig:434c414d\nAnother.Sig:aa55\n";
  Label ml = mirror_->ClientTaint();
  Label mc(Level::k2, {{mirror_->taint().i, Level::k3}});
  ObjectId mirror_client = kernel_->BootstrapThread(ml, mc, "mirror");
  std::thread server([&]() {
    CurrentThread bind(mirror_client);
    ServeDbOnce(mirror_.get(), mirror_client, 8888, fresh_db);
  });

  UpdateConfig cfg;
  cfg.net = netd_.get();
  cfg.server_mac = mirror_->mac();
  cfg.port = 8888;
  cfg.db_path = "/db/virus.db";
  RegisterUpdateDaemon(&world_->procs(), &cfg);

  // The daemon owns i: the administrator's import grant.
  ProcessOpts opts;
  opts.extra_ownership = Label(Level::k1, {{netd_->taint().i, Level::kStar}});
  Result<std::unique_ptr<ProcHandle>> h =
      world_->procs().Spawn(world_->init_context(), "av-update", {}, opts);
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  Result<int64_t> status = h.value()->Wait(world_->init_thread(), 30000);
  server.join();
  ASSERT_TRUE(status.ok()) << StatusName(status.status());
  EXPECT_EQ(status.value(), 2) << "expected 2 signatures installed";

  // The database file now carries the fresh contents.
  Result<ObjectId> db = world_->fs().Lookup(world_->init_thread(), db_dir_, "virus.db");
  ASSERT_TRUE(db.ok());
  char buf[256] = {};
  Result<uint64_t> n = world_->fs().ReadAt(world_->init_thread(), db_dir_, db.value(), buf, 0,
                                           sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_NE(std::string(buf, n.value()).find("Fresh.Sig"), std::string::npos);
}

TEST_F(UpdateTest, UnprivilegedDaemonStaysTaintedAndCannotInstall) {
  // Without the i grant, the daemon must taint itself i2 to fetch — and
  // then cannot write the untainted database: taint never comes off.
  std::string fresh_db = "Fresh.Sig:434c414d\n";
  Label ml = mirror_->ClientTaint();
  Label mc(Level::k2, {{mirror_->taint().i, Level::k3}});
  ObjectId mirror_client = kernel_->BootstrapThread(ml, mc, "mirror");
  std::thread server([&]() {
    CurrentThread bind(mirror_client);
    ServeDbOnce(mirror_.get(), mirror_client, 8889, fresh_db);
  });

  UpdateConfig cfg;
  cfg.net = netd_.get();
  cfg.server_mac = mirror_->mac();
  cfg.port = 8889;
  cfg.db_path = "/db/virus.db";
  RegisterUpdateDaemon(&world_->procs(), &cfg);

  // The spawner owns i (it booted the stacks) and pre-authorizes the §5.8
  // exit leak in i — without this, the self-tainted daemon could not even
  // report that it failed.
  ProcessOpts opts;
  opts.exit_untaint = {netd_->taint().i, mirror_->taint().i};
  Result<std::unique_ptr<ProcHandle>> h =
      world_->procs().Spawn(world_->init_context(), "av-update", {}, opts);
  ASSERT_TRUE(h.ok());
  Result<int64_t> status = h.value()->Wait(world_->init_thread(), 30000);
  server.join();
  ASSERT_TRUE(status.ok());
  EXPECT_LT(status.value(), 0);  // install failed

  // Old database intact.
  Result<ObjectId> db = world_->fs().Lookup(world_->init_thread(), db_dir_, "virus.db");
  ASSERT_TRUE(db.ok());
  char buf[256] = {};
  Result<uint64_t> n = world_->fs().ReadAt(world_->init_thread(), db_dir_, db.value(), buf, 0,
                                           sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_NE(std::string(buf, n.value()).find("Old.Sig"), std::string::npos);
}

}  // namespace
}  // namespace histar
