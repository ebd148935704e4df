#include "src/apps/wrap.h"

#include <chrono>

#include "src/core/trace.h"

namespace histar {

namespace {

// Steps 2–6 of a scan, run while wrap owns the fresh taint category v.
Result<WrapResult> ScanOwningV(ProcessContext& ctx, const std::vector<std::string>& paths,
                               const WrapOptions& opts, CategoryId v) {
  Kernel* k = ctx.kernel;
  ObjectId self = ctx.self;
  WrapResult result;
  result.v = v;
  Label vtaint(Level::k1, {{v, Level::k3}});

  // 2. The private /tmp, writable at v3 (Figure 2's "Private /tmp").
  Result<ObjectId> priv_tmp =
      ctx.fs.MakeRoot(self, k->root_container(), vtaint, 32 << 20);
  if (!priv_tmp.ok()) {
    return priv_tmp.status();
  }
  // 3. A v3 process area: the tainted scanner cannot allocate in the
  // untainted default proc_root, so wrap donates a container (the same
  // resource-donation pattern as §5.5's gate calls).
  CreateSpec aspec;
  aspec.container = k->root_container();
  aspec.label = vtaint;
  aspec.descrip = "scan-area";
  aspec.quota = 64 << 20;
  Result<ObjectId> area = k->sys_container_create(self, aspec, 0);
  // Every way out from here revokes the scan's resources by severing the
  // area and the private /tmp. This needs no cooperation from (or
  // visibility into) the sandbox.
  auto revoke = [&] {
    if (area.ok()) {
      k->sys_container_unref(self, ContainerEntry{k->root_container(), area.value()});
    }
    k->sys_container_unref(self, ContainerEntry{k->root_container(), priv_tmp.value()});
  };
  if (!area.ok()) {
    revoke();
    return area.status();
  }

  // 4. The result pipe, tainted v3 so the scanner can write it; wrap reads
  // through its ownership of v. Its buffer and both fd segments live in the
  // area, so they go with it.
  ProcessIds pipe_ids = ctx.ids;
  pipe_ids.proc_ct = area.value();
  FdTable pipe_fds(k, pipe_ids, vtaint);
  Result<std::pair<int, int>> pipe = pipe_fds.CreatePipe(self);
  if (!pipe.ok()) {
    revoke();
    return pipe.status();
  }

  // 5. Launch the scanner {br⋆, v3, 1}: it can read the user's files and
  // write nothing untainted. Helper processes it spawns inherit v3.
  ProcessOpts popts;
  for (CategoryId c : opts.read_categories) {
    popts.extra_ownership.set(c, Level::kStar);
  }
  popts.taint = vtaint;
  popts.proc_parent = area.value();
  // Strong isolation (§6.1): no untainting gate of any kind for v — the
  // default, spelled out. The only bits that leave the sandbox are the ones
  // wrap reads from the pipe through its own v ownership.
  popts.exit_untaint.clear();
  popts.inherit_fds.push_back(pipe_fds.Entry(pipe.value().second).value());
  popts.quota = 32 << 20;

  std::vector<std::string> args = {"avscan", opts.db_path, "0"};
  for (const std::string& p : paths) {
    args.push_back(p);
  }
  // Overlay the private /tmp for the child only (Plan 9-style per-process
  // mounts; the child copies our table at launch).
  ctx.fs.mounts().Mount(ctx.env.fs_root, "tmp", priv_tmp.value());
  Result<std::unique_ptr<ProcHandle>> scanner = ctx.mgr->Spawn(ctx, "avscan", args, popts);
  ctx.fs.mounts().Unmount(ctx.env.fs_root, "tmp");
  if (!scanner.ok()) {
    revoke();
    return scanner.status();
  }

  // 6. Collect the verdict, bounded by the covert-channel budget. wrap does
  // not create an untainting gate for v (strong isolation): the only
  // information that escapes the sandbox is what we read here, through
  // wrap's own v ownership.
  std::string text;
  auto deadline = trace::SteadyNow() + std::chrono::milliseconds(opts.timeout_ms);
  char buf[1024];
  while (trace::SteadyNow() < deadline) {
    Result<uint64_t> n = pipe_fds.ReadTimeout(self, pipe.value().first, buf, sizeof(buf), 50);
    if (n.ok() && n.value() > 0) {
      text.append(buf, n.value());
      ScanReport r = ParseReport(text);
      if (r.ok) {
        result.report = r;
        result.completed = true;
        break;
      }
    } else if (!n.ok() && n.status() != Status::kAgain && n.status() != Status::kTimedOut) {
      break;
    }
  }
  // Past the deadline, revoking the area is what kills the scanner.
  result.killed = !result.completed;
  scanner.value()->Wait(self, result.completed ? opts.timeout_ms : 1);
  revoke();
  return result;
}

}  // namespace

Result<WrapResult> WrapScan(ProcessContext& ctx, const std::vector<std::string>& paths,
                            const WrapOptions& opts) {
  // 1. A fresh taint category; wrap is its only owner.
  Result<CategoryId> v = ctx.kernel->sys_cat_create(ctx.self);
  if (!v.ok()) {
    return v.status();
  }
  Result<WrapResult> result = ScanOwningV(ctx, paths, opts, v.value());
  // 7. Shed v from label and clearance, whatever the outcome: the category
  // dies with the scan.
  ReleaseCategories(ctx.kernel, ctx.self, {v.value()});
  return result;
}

}  // namespace histar
