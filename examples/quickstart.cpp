// Quickstart: boot a HiStar world, meet labels, and watch the kernel stop
// an information flow.
//
//   $ ./examples/quickstart
//
// This walks the paper's §2 example almost line by line: a user ("bob")
// protects a file with a read category, an unprivileged thread bounces off
// it, a thread that taints itself may read — and is then barred from
// writing anything untainted, which is the whole trick.
//
// Every kernel call made below is one row of docs/syscalls.md, which
// tabulates the full syscall surface: the §3 label-check rule each call
// enforces and the mode in which it takes the object-table lock (see
// ARCHITECTURE.md "Concurrency model" — none of that is visible here:
// syscalls are linearizable, and warm reads take no lock at all).
#include <cstdio>
#include <string>

#include "src/unixlib/unix.h"

using namespace histar;

namespace {

void Show(const char* what, Status st) {
  std::printf("  %-58s -> %s\n", what, std::string(StatusName(st)).c_str());
}

}  // namespace

int main() {
  // A kernel plus the untrusted Unix library on top (processes, fs, fds all
  // live in user space — the kernel knows only six object types).
  Kernel kernel;
  std::unique_ptr<UnixWorld> world = UnixWorld::Boot(&kernel);
  ObjectId init = world->init_thread();
  CurrentThread::Set(init);

  std::printf("== HiStar quickstart ==\n\n");
  std::printf("kernel objects after boot: %zu (root container, init thread, console,\n"
              "fs root + /bin /tmp /home, proc root ... and nothing else)\n\n",
              kernel.ObjectCount());

  // --- 1. Bob and his labels -----------------------------------------------------
  UnixUser bob = world->AddUser("bob").value();
  std::printf("bob's categories: ur=%llx (read), uw=%llx (write)\n",
              static_cast<unsigned long long>(bob.ur),
              static_cast<unsigned long long>(bob.uw));
  std::printf("bob's file label: %s   (§2: {r3, w0, 1})\n\n",
              bob.FileLabel().ToString().c_str());

  FileSystem& fs = world->fs();
  ObjectId diary = fs.Create(init, bob.home, "diary.txt", bob.FileLabel()).value();
  const char secret[] = "bob's diary: the secret";
  fs.WriteAt(init, bob.home, diary, secret, 0, sizeof(secret));
  std::printf("created /home/bob/diary.txt labeled %s\n\n",
              bob.FileLabel().ToString().c_str());

  // --- 2. An unprivileged thread hits the wall ------------------------------------
  // Label {1}, clearance {2}: the conventional starting point (§3.1). It
  // owns nothing of bob's.
  ObjectId mallory = kernel.BootstrapThread(Label(), Label(Level::k2), "mallory");
  char buf[64] = {};
  std::printf("mallory (label {1}) tries bob's file:\n");
  Show("read  diary.txt ('no read up')",
       kernel.sys_segment_read(mallory, ContainerEntry{bob.home, diary}, buf, 0, 8));
  Show("write diary.txt ('no write down')",
       kernel.sys_segment_write(mallory, ContainerEntry{bob.home, diary}, "x", 0, 1));

  // --- 3. Tainting: the third option beyond allow/deny ----------------------------
  // HiStar's distinctive move (§2): a thread may *raise its own label* to
  // read more-tainted data — observation is free, exporting is not. Bob's
  // file is ur3, above the default clearance {2}, so mallory cannot even do
  // that (that is what level 3 means). Make a file at level 2 to show the
  // mechanism.
  Result<CategoryId> t = kernel.sys_cat_create(init);
  Label tainted2(Level::k1, {{t.value(), Level::k2}});
  ObjectId memo = fs.Create(init, world->tmp_dir(), "memo", tainted2).value();
  fs.WriteAt(init, world->tmp_dir(), memo, "tainted memo", 0, 12);

  ObjectId curious = kernel.BootstrapThread(Label(), Label(Level::k2), "curious");
  std::printf("\ncurious (label {1}) and a {t2, 1} memo:\n");
  Show("read memo while untainted",
       kernel.sys_segment_read(curious, ContainerEntry{world->tmp_dir(), memo}, buf, 0, 8));
  Label raised = Label::RaiseForRead(Label(), tainted2);
  Show(("self_set_label to " + raised.ToString()).c_str(),
       kernel.sys_self_set_label(curious, raised));
  Show("read memo now",
       kernel.sys_segment_read(curious, ContainerEntry{world->tmp_dir(), memo}, buf, 0, 8));
  std::printf("      read: \"%.12s\"\n", buf);

  // ...but the taint sticks: curious can no longer write anything untainted.
  ObjectId scratch = fs.Create(init, world->tmp_dir(), "scratch", Label()).value();
  kernel.sys_segment_resize(init, ContainerEntry{world->tmp_dir(), scratch}, 16);
  Show("write an untainted file afterwards (blocked: taint is sticky)",
       kernel.sys_segment_write(curious, ContainerEntry{world->tmp_dir(), scratch}, "y", 0, 1));
  Show("lower own label back (blocked: no self-untainting)",
       kernel.sys_self_set_label(curious, Label()));

  // --- 4. Ownership (⋆) is the only way out ---------------------------------------
  std::printf("\ninit owns t (it allocated the category): label checks ignore t for it.\n");
  Show("init reads the memo",
       kernel.sys_segment_read(init, ContainerEntry{world->tmp_dir(), memo}, buf, 0, 8));
  Show("init writes the untainted scratch file (it can declassify)",
       kernel.sys_segment_write(init, ContainerEntry{world->tmp_dir(), scratch}, "ok", 0, 2));

  // --- 5. Processes are just a library convention ----------------------------------
  world->procs().RegisterProgram("hello", [](ProcessContext&) -> int64_t {
    // This runs as a full HiStar process: own pr/pw categories, container
    // pair, exit segment, signal gate — all built by unprivileged code.
    return 42;
  });
  Result<std::unique_ptr<ProcHandle>> child =
      world->procs().Spawn(world->init_context(), "hello", {});
  Result<int64_t> status = child.value()->Wait(init);
  std::printf("\nspawned a process through the user-level library; exit status: %lld\n",
              static_cast<long long>(status.value()));
  std::printf("kernel syscalls so far: %llu — every one of them label-checked\n",
              static_cast<unsigned long long>(kernel.syscall_count()));

  CurrentThread::Set(kInvalidObject);
  std::printf("\ndone.\n");
  return 0;
}
