// File system tests (paper §5.1): directories as containers, kernel-enforced
// permissions, atomic rename, mount tables.
#include "src/unixlib/fs.h"

#include <gtest/gtest.h>

#include <map>

#include "src/unixlib/unix.h"

namespace histar {
namespace {

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    self_ = world_->init_thread();
    CurrentThread::Set(self_);
  }
  void TearDown() override { CurrentThread::Set(kInvalidObject); }

  FileSystem& fs() { return world_->fs(); }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  ObjectId self_;
};

TEST_F(FsTest, CreateWriteReadFile) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "hello.txt", Label());
  ASSERT_TRUE(f.ok()) << StatusName(f.status());
  const char msg[] = "hello, world";
  ASSERT_EQ(fs().WriteAt(self_, tmp, f.value(), msg, 0, sizeof(msg)), Status::kOk);
  char buf[64] = {};
  Result<uint64_t> n = fs().ReadAt(self_, tmp, f.value(), buf, 0, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), sizeof(msg));
  EXPECT_STREQ(buf, msg);
}

TEST_F(FsTest, LookupFindsCreatedFiles) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "a", Label());
  ASSERT_TRUE(f.ok());
  Result<ObjectId> found = fs().Lookup(self_, tmp, "a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), f.value());
  EXPECT_EQ(fs().Lookup(self_, tmp, "missing").status(), Status::kNotFound);
}

TEST_F(FsTest, DuplicateCreateFails) {
  ObjectId tmp = world_->tmp_dir();
  ASSERT_TRUE(fs().Create(self_, tmp, "dup", Label()).ok());
  EXPECT_EQ(fs().Create(self_, tmp, "dup", Label()).status(), Status::kExists);
}

TEST_F(FsTest, UnlinkRemovesFileAndObject) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "gone", Label());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs().Unlink(self_, tmp, "gone"), Status::kOk);
  EXPECT_EQ(fs().Lookup(self_, tmp, "gone").status(), Status::kNotFound);
  EXPECT_FALSE(kernel_->ObjectExists(f.value()));
}

TEST_F(FsTest, RenameIsAtomicWithinDirectory) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "old", Label());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs().Rename(self_, tmp, "old", "new"), Status::kOk);
  EXPECT_EQ(fs().Lookup(self_, tmp, "old").status(), Status::kNotFound);
  Result<ObjectId> moved = fs().Lookup(self_, tmp, "new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), f.value());
}

TEST_F(FsTest, RenameReplacesTarget) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> a = fs().Create(self_, tmp, "src", Label());
  Result<ObjectId> b = fs().Create(self_, tmp, "dst", Label());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(fs().Rename(self_, tmp, "src", "dst"), Status::kOk);
  Result<ObjectId> now = fs().Lookup(self_, tmp, "dst");
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now.value(), a.value());
  EXPECT_FALSE(kernel_->ObjectExists(b.value()));  // displaced object reclaimed
}

TEST_F(FsTest, RenameOntoItselfKeepsTheName) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "same", Label());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs().Rename(self_, tmp, "same", "same"), Status::kOk);
  Result<ObjectId> still = fs().Lookup(self_, tmp, "same");
  ASSERT_TRUE(still.ok()) << StatusName(still.status());
  EXPECT_EQ(still.value(), f.value());
}

TEST_F(FsTest, ReadDirListsEntries) {
  ObjectId tmp = world_->tmp_dir();
  ASSERT_TRUE(fs().Create(self_, tmp, "one", Label()).ok());
  ASSERT_TRUE(fs().Create(self_, tmp, "two", Label()).ok());
  ASSERT_TRUE(fs().MakeDir(self_, tmp, "sub", Label(), 1 << 16).ok());
  Result<std::vector<std::pair<std::string, ObjectId>>> list = fs().ReadDir(self_, tmp);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().size(), 3u);
}

TEST_F(FsTest, DirectoryScansCostOneReadNotOnePerRecord) {
  // 300 slots with every third name unlinked, so a scan crosses live and
  // free records alike. Each scan is one segment read, whatever its length.
  Result<ObjectId> dir = fs().MakeDir(self_, world_->tmp_dir(), "wide", Label(), 4 << 20);
  ASSERT_TRUE(dir.ok());
  std::map<std::string, ObjectId> live;
  for (int i = 0; i < 300; ++i) {
    std::string name = "f" + std::to_string(i);
    Result<ObjectId> f = fs().Create(self_, dir.value(), name, Label(), kObjectOverheadBytes);
    ASSERT_TRUE(f.ok()) << StatusName(f.status());
    live[name] = f.value();
  }
  for (int i = 0; i < 300; i += 3) {
    std::string name = "f" + std::to_string(i);
    ASSERT_EQ(fs().Unlink(self_, dir.value(), name), Status::kOk);
    live.erase(name);
  }
  auto syscalls = [&](auto&& op) {
    uint64_t before = kernel_->syscall_count();
    op();
    return kernel_->syscall_count() - before;
  };

  Result<ObjectId> last = Status::kNotFound;
  EXPECT_LE(syscalls([&] { last = fs().Lookup(self_, dir.value(), "f299"); }), 5u);
  ASSERT_TRUE(last.ok()) << StatusName(last.status());
  EXPECT_EQ(last.value(), live["f299"]);

  Result<ObjectId> missing = kInvalidObject;
  EXPECT_LE(syscalls([&] { missing = fs().Lookup(self_, dir.value(), "nope"); }), 5u);
  EXPECT_EQ(missing.status(), Status::kNotFound);

  Result<std::vector<std::pair<std::string, ObjectId>>> list = Status::kNotFound;
  EXPECT_LE(syscalls([&] { list = fs().ReadDir(self_, dir.value()); }), 5u);
  ASSERT_TRUE(list.ok()) << StatusName(list.status());
  std::map<std::string, ObjectId> listed(list.value().begin(), list.value().end());
  EXPECT_EQ(listed, live);

  Result<ObjectId> made = kInvalidObject;
  EXPECT_LE(syscalls([&] {
              made = fs().Create(self_, dir.value(), "fresh", Label(), kObjectOverheadBytes);
            }),
            15u);
  ASSERT_TRUE(made.ok()) << StatusName(made.status());
  Result<ObjectId> found = fs().Lookup(self_, dir.value(), "fresh");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), made.value());
}

TEST_F(FsTest, FullNameTableLeavesNoOrphan) {
  // A 64 KB directory's name table (a quarter of its budget) fills before
  // the directory's quota does. The Create that finds no room for its name
  // must take its new file back.
  Result<ObjectId> dir = fs().MakeDir(self_, world_->tmp_dir(), "small", Label(), 64 << 10);
  ASSERT_TRUE(dir.ok());
  Status st = Status::kOk;
  size_t created = 0;
  for (; created < 1000; ++created) {
    st = fs().Create(self_, dir.value(), "f" + std::to_string(created), Label(),
                     kObjectOverheadBytes)
             .status();
    if (st != Status::kOk) {
      break;
    }
  }
  EXPECT_EQ(st, Status::kQuotaExceeded);
  Result<std::vector<std::pair<std::string, ObjectId>>> names = fs().ReadDir(self_, dir.value());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), created);
  Result<std::vector<ObjectId>> objs = kernel_->sys_container_list(self_, dir.value());
  ASSERT_TRUE(objs.ok());
  EXPECT_EQ(objs.value().size(), names.value().size() + 1);  // + the directory segment
}

TEST_F(FsTest, CreateOfExistingNameMakesNoObject) {
  ObjectId tmp = world_->tmp_dir();
  ASSERT_TRUE(fs().Create(self_, tmp, "taken", Label()).ok());
  Result<std::vector<ObjectId>> before = kernel_->sys_container_list(self_, tmp);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(fs().Create(self_, tmp, "taken", Label()).status(), Status::kExists);
  EXPECT_EQ(fs().MakeDir(self_, tmp, "taken", Label(), 1 << 16).status(), Status::kExists);
  Result<std::vector<ObjectId>> after = kernel_->sys_container_list(self_, tmp);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());
}

TEST_F(FsTest, FailedMakeDirLeavesNoObject) {
  // A 256-byte budget holds the container but not its name table: MakeDir
  // fails, and takes the half-built container back.
  ObjectId tmp = world_->tmp_dir();
  Result<std::vector<ObjectId>> before = kernel_->sys_container_list(self_, tmp);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(fs().MakeDir(self_, tmp, "cramped", Label(), 256).ok());
  Result<std::vector<ObjectId>> after = kernel_->sys_container_list(self_, tmp);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());
}

TEST_F(FsTest, WalkResolvesNestedPaths) {
  ObjectId root = world_->fs_root();
  Result<ObjectId> sub = fs().MakeDir(self_, world_->tmp_dir(), "deep", Label(), 1 << 18);
  ASSERT_TRUE(sub.ok());
  Result<ObjectId> f = fs().Create(self_, sub.value(), "leaf", Label());
  ASSERT_TRUE(f.ok());
  Result<ObjectId> got = fs().Walk(self_, root, "/tmp/deep/leaf");
  ASSERT_TRUE(got.ok()) << StatusName(got.status());
  EXPECT_EQ(got.value(), f.value());
  // Dot and dot-dot.
  Result<ObjectId> via_dots = fs().Walk(self_, root, "/tmp/./deep/../deep/leaf");
  ASSERT_TRUE(via_dots.ok());
  EXPECT_EQ(via_dots.value(), f.value());
}

TEST_F(FsTest, WalkParentSplitsLeaf) {
  Result<std::pair<ObjectId, std::string>> r =
      fs().WalkParent(self_, world_->fs_root(), "/tmp/x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().first, world_->tmp_dir());
  EXPECT_EQ(r.value().second, "x");
}

TEST_F(FsTest, MountOverlaysDirectory) {
  // Mount /tmp at /home's "scratch" name, Plan 9 style (§5.7 uses this for
  // selecting /netd).
  fs().mounts().Mount(world_->home_dir(), "scratch", world_->tmp_dir());
  Result<ObjectId> via = fs().Walk(self_, world_->fs_root(), "/home/scratch");
  ASSERT_TRUE(via.ok());
  EXPECT_EQ(via.value(), world_->tmp_dir());
  fs().mounts().Unmount(world_->home_dir(), "scratch");
  EXPECT_FALSE(fs().Walk(self_, world_->fs_root(), "/home/scratch").ok());
}

TEST_F(FsTest, FileGrowsAcrossQuotaViaQuotaMove) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "big", Label(), kObjectOverheadBytes + 1024);
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> chunk(8192, 7);
  // 8 kB write exceeds the 1 kB quota: WriteAt must pull quota from /tmp.
  ASSERT_EQ(fs().WriteAt(self_, tmp, f.value(), chunk.data(), 0, chunk.size()), Status::kOk);
  Result<uint64_t> size = fs().FileSize(self_, tmp, f.value());
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 8192u);
}

TEST_F(FsTest, KernelEnforcesFileLabels) {
  // A file labeled {ur3, uw0, 1} is protected by the kernel, not the
  // library: a thread without the categories cannot read it even by
  // forging direct syscalls.
  Result<UnixUser> bob = world_->AddUser("bob");
  ASSERT_TRUE(bob.ok());
  Result<ObjectId> secret =
      fs().Create(self_, bob.value().home, "diary", bob.value().FileLabel());
  ASSERT_TRUE(secret.ok()) << StatusName(secret.status());
  const char msg[] = "private";
  ASSERT_EQ(fs().WriteAt(self_, bob.value().home, secret.value(), msg, 0, sizeof(msg)),
            Status::kOk);

  ObjectId stranger = kernel_->BootstrapThread(Label(), Label(Level::k2), "stranger");
  char buf[16];
  // Both through the library...
  FileSystem their_fs(kernel_.get());
  EXPECT_FALSE(their_fs.ReadAt(stranger, bob.value().home, secret.value(), buf, 0, 8).ok());
  // ...and via raw syscalls.
  EXPECT_EQ(kernel_->sys_segment_read(stranger, ContainerEntry{bob.value().home, secret.value()},
                                      buf, 0, 8),
            Status::kLabelCheckFailed);
}

TEST_F(FsTest, MtimeTrackedNoAtime) {
  // §9: HiStar keeps modification time in object metadata; access times are
  // deliberately not tracked (fundamentally at odds with IFC).
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "stamped", Label());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs().TouchMtime(self_, tmp, f.value(), 1234567), Status::kOk);
  Result<uint64_t> mtime = fs().GetMtime(self_, tmp, f.value());
  ASSERT_TRUE(mtime.ok());
  EXPECT_EQ(mtime.value(), 1234567u);
  // Reading does not bump anything.
  char buf[4];
  fs().ReadAt(self_, tmp, f.value(), buf, 0, 0);
  EXPECT_EQ(fs().GetMtime(self_, tmp, f.value()).value(), 1234567u);
}

TEST_F(FsTest, DirectoryListingWithoutWritePermission) {
  // Users that cannot write a directory can still obtain consistent
  // listings via the generation protocol (§5.1).
  Result<UnixUser> bob = world_->AddUser("bob");
  ASSERT_TRUE(bob.ok());
  // Bob's home dir is {ur3, uw0, 1}; a reader owning ur but not uw can
  // list but not create.
  Label reader_label(Level::k1, {{bob.value().ur, Level::kStar}});
  Label reader_clear(Level::k2, {{bob.value().ur, Level::k3}});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.quota = 64 * kPageSize;
  Result<ObjectId> reader =
      kernel_->sys_thread_create(self_, spec, reader_label, reader_clear);
  ASSERT_TRUE(reader.ok()) << StatusName(reader.status());
  ASSERT_TRUE(fs().Create(self_, bob.value().home, "visible", bob.value().FileLabel()).ok());

  FileSystem reader_fs(kernel_.get());
  Result<std::vector<std::pair<std::string, ObjectId>>> list =
      reader_fs.ReadDir(reader.value(), bob.value().home);
  ASSERT_TRUE(list.ok()) << StatusName(list.status());
  EXPECT_EQ(list.value().size(), 1u);
  EXPECT_EQ(list.value()[0].first, "visible");
  // But creation requires write permission (uw).
  EXPECT_FALSE(reader_fs.Create(reader.value(), bob.value().home, "nope", Label()).ok());
}

}  // namespace
}  // namespace histar
