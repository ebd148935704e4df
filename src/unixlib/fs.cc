#include "src/unixlib/fs.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "src/unixlib/mutex.h"

namespace histar {

void MountTable::Mount(ObjectId dir, const std::string& name, ObjectId target) {
  Unmount(dir, name);
  entries_.push_back(MountEntry{dir, name, target});
}

void MountTable::Unmount(ObjectId dir, const std::string& name) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].dir == dir && entries_[i].name == name) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

ObjectId MountTable::Resolve(ObjectId dir, const std::string& name) const {
  for (const MountEntry& e : entries_) {
    if (e.dir == dir && e.name == name) {
      return e.target;
    }
  }
  return kInvalidObject;
}

Result<ObjectId> FileSystem::MakeRoot(ObjectId self, ObjectId parent_container,
                                      const Label& label, uint64_t quota) {
  CreateSpec cspec;
  cspec.container = parent_container;
  cspec.label = label;
  cspec.descrip = "dir";
  cspec.quota = quota;
  Result<ObjectId> dir = kernel_->sys_container_create(self, cspec, 0);
  if (!dir.ok()) {
    return dir.status();
  }
  CreateSpec sspec;
  sspec.container = dir.value();
  sspec.label = label;
  sspec.descrip = "dirseg";
  // The name table gets a quarter of the directory's budget, capped: a
  // 16 MB default directory can hold ~4k names.
  sspec.quota = std::min<uint64_t>(quota / 4, 256 * 1024);
  Result<ObjectId> seg = kernel_->sys_segment_create(self, sspec, sizeof(DirHeader));
  Status st = seg.status();
  if (st == Status::kOk) {
    // Stash the directory segment's id in the container metadata.
    uint64_t md[1] = {seg.value()};
    st = kernel_->sys_obj_set_metadata(self, SelfEntry(dir.value()), md, sizeof(md));
  }
  if (st != Status::kOk) {
    // Unreferencing the half-built directory takes its segment with it.
    kernel_->sys_container_unref(self, ContainerEntry{parent_container, dir.value()});
    return st;
  }
  return dir.value();
}

template <typename Make>
Result<ObjectId> FileSystem::AddEntry(ObjectId self, ObjectId dir, const std::string& name,
                                      Make&& make) {
  if (name.empty() || name.size() > kMaxFileName) {
    return Status::kInvalidArg;
  }
  if (mounts_.Resolve(dir, name) != kInvalidObject) {
    return Status::kExists;  // Lookup would resolve the name to the mount
  }
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  if (!mu.Lock(self)) {
    return Status::kLabelCheckFailed;
  }
  // The name check, the create and the record write all run under the
  // mutex, so a concurrent Create cannot take the name in between.
  DirScan scan;
  uint64_t slot = 0;
  Result<ObjectId> existing = FindEntry(self, seg_ce, name, &scan, &slot);
  if (existing.status() != Status::kNotFound) {
    mu.Unlock(self);
    return existing.ok() ? Status::kExists : existing.status();
  }
  Result<ObjectId> obj = make();
  if (!obj.ok()) {
    mu.Unlock(self);
    return obj.status();
  }
  DirEntry e{};
  e.objid = obj.value();
  e.in_use = 1;
  memcpy(e.name, name.data(), name.size());
  Status st = WriteEntry(self, seg_ce, &scan, slot, e);
  mu.Unlock(self);
  if (st != Status::kOk) {
    kernel_->sys_container_unref(self, ContainerEntry{dir, obj.value()});
    return st;
  }
  return obj.value();
}

Result<ObjectId> FileSystem::MakeDir(ObjectId self, ObjectId parent, const std::string& name,
                                     const Label& label, uint64_t quota) {
  return AddEntry(self, parent, name, [&] { return MakeRoot(self, parent, label, quota); });
}

Result<ObjectId> FileSystem::Create(ObjectId self, ObjectId dir, const std::string& name,
                                    const Label& label, uint64_t quota) {
  return AddEntry(self, dir, name, [&] {
    CreateSpec fspec;
    fspec.container = dir;
    fspec.label = label;
    fspec.descrip = name.substr(0, kDescripLen);
    fspec.quota = quota;
    return kernel_->sys_segment_create(self, fspec, 0);
  });
}

Result<ObjectId> FileSystem::Relabel(ObjectId self, ObjectId dir, const std::string& name,
                                     const Label& new_label) {
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  if (!mu.Lock(self)) {
    return Status::kLabelCheckFailed;
  }
  DirScan scan;
  uint64_t slot = 0;
  Result<ObjectId> old = FindEntry(self, seg_ce, name, &scan, &slot);
  if (!old.ok()) {
    mu.Unlock(self);
    return old.status();
  }
  // The copy carries the old quota; the kernel's copy path enforces that the
  // caller can observe the source and create at the new label.
  Result<uint64_t> quota = kernel_->sys_obj_get_quota(self, ContainerEntry{dir, old.value()});
  if (!quota.ok()) {
    mu.Unlock(self);
    return quota.status();
  }
  CreateSpec spec;
  spec.container = dir;
  spec.label = new_label;
  spec.descrip = name.substr(0, kDescripLen);
  spec.quota = quota.value();
  Result<ObjectId> copy = kernel_->sys_segment_copy(self, spec, ContainerEntry{dir, old.value()});
  if (!copy.ok()) {
    mu.Unlock(self);
    return copy.status();
  }
  DirEntry e{};
  e.objid = copy.value();
  e.in_use = 1;
  memcpy(e.name, name.data(), std::min(name.size(), sizeof(e.name) - 1));
  Status st = WriteEntry(self, seg_ce, &scan, slot, e);
  mu.Unlock(self);
  if (st != Status::kOk) {
    kernel_->sys_container_unref(self, ContainerEntry{dir, copy.value()});
    return st;
  }
  // Drop the old object: open descriptors referring to it are revoked the
  // HiStar way — the object itself ceases to exist.
  kernel_->sys_container_unref(self, ContainerEntry{dir, old.value()});
  return copy.value();
}

Result<ObjectId> FileSystem::DirSegment(ObjectId self, ObjectId dir) {
  Result<std::vector<uint8_t>> md = kernel_->sys_obj_get_metadata(self, SelfEntry(dir));
  if (!md.ok()) {
    return md.status();
  }
  uint64_t seg;
  memcpy(&seg, md.value().data(), 8);
  if (seg == 0) {
    return Status::kWrongType;  // not a directory
  }
  return seg;
}

template <typename Fn>
Status FileSystem::ScanDirRecords(ObjectId self, ContainerEntry seg, DirScan* scan, Fn&& fn) {
  Result<uint64_t> len = kernel_->sys_segment_get_len(self, seg);
  if (!len.ok()) {
    return len.status();
  }
  if (len.value() < sizeof(DirHeader)) {
    return Status::kWrongType;  // too short to be a directory segment
  }
  uint64_t n = (len.value() - sizeof(DirHeader)) / sizeof(DirEntry);
  std::vector<uint8_t> buf(sizeof(DirHeader) + n * sizeof(DirEntry));
  Status st = kernel_->sys_segment_read(self, seg, buf.data(), 0, buf.size());
  if (st != Status::kOk) {
    return st;
  }
  memcpy(&scan->header, buf.data(), sizeof(DirHeader));
  scan->len = len.value();
  for (uint64_t slot = 0; slot < n; ++slot) {
    DirEntry e{};
    memcpy(&e, buf.data() + sizeof(DirHeader) + slot * sizeof(DirEntry), sizeof(e));
    if (!fn(slot, e)) {
      break;
    }
  }
  return Status::kOk;
}

Result<bool> FileSystem::ScanStillCurrent(ObjectId self, ContainerEntry seg,
                                          const DirScan& scan) {
  if (scan.header.busy != 0) {
    return false;
  }
  DirHeader after{};
  SyscallReq reqs[2] = {SyscallReq{SegmentReadReq{seg, &after, 0, sizeof(after)}},
                        SyscallReq{SegmentGetLenReq{seg}}};
  SyscallRes res[2];
  kernel_->SubmitBatch(self, reqs, res);
  for (const SyscallRes& r : res) {
    Status st = ResStatus(r);
    if (st != Status::kOk) {
      return st;
    }
  }
  // The length catches an append that landed between the scan's get_len and
  // its read: the read already carried that append's generation.
  return after.generation == scan.header.generation && after.busy == 0 &&
         CompletionOf<SegmentGetLenReq>(res[1]).value() == scan.len;
}

Result<ObjectId> FileSystem::FindEntry(ObjectId self, ContainerEntry seg,
                                       const std::string& name, DirScan* scan,
                                       uint64_t* slot_out) {
  constexpr uint64_t kNoSlot = ~uint64_t{0};
  uint64_t free_slot = kNoSlot;
  uint64_t found_slot = kNoSlot;
  ObjectId found = kInvalidObject;
  Status st = ScanDirRecords(self, seg, scan, [&](uint64_t slot, const DirEntry& e) {
    if (e.in_use == 0) {
      if (free_slot == kNoSlot) {
        free_slot = slot;
      }
      return true;
    }
    if (strncmp(e.name, name.c_str(), sizeof(e.name)) == 0) {
      found_slot = slot;
      found = e.objid;
      return false;  // stop: name matched
    }
    return true;
  });
  if (st != Status::kOk) {
    return st;
  }
  if (found != kInvalidObject) {
    if (slot_out != nullptr) {
      *slot_out = found_slot;
    }
    return found;
  }
  if (slot_out != nullptr) {
    // No free slot: append one past the last record.
    *slot_out = free_slot != kNoSlot ? free_slot
                                     : (scan->len - sizeof(DirHeader)) / sizeof(DirEntry);
  }
  return Status::kNotFound;
}

Status FileSystem::WriteEntry(ObjectId self, ContainerEntry seg, DirScan* scan, uint64_t slot,
                              const DirEntry& e) {
  // Only header bytes 8..24 (generation, busy) are written: the mutex word
  // at offset 0 is CASed by contenders, and writing back a stale copy would
  // drop their locked-with-waiters mark. The caller holds the mutex, so it
  // is the only writer of the generation and its scan's copy is current.
  const uint64_t gen = scan->header.generation;
  const uint64_t busy[2] = {gen + 1, 1};
  const uint64_t idle[2] = {gen + 2, 0};
  constexpr uint64_t kGenOff = offsetof(DirHeader, generation);
  uint64_t need = sizeof(DirHeader) + (slot + 1) * sizeof(DirEntry);
  SyscallReq reqs[4];
  size_t n = 0;
  reqs[n++] = SegmentWriteReq{seg, busy, kGenOff, sizeof(busy)};
  if (scan->len < need) {
    reqs[n++] = SegmentResizeReq{seg, need};
  }
  reqs[n++] = SegmentWriteReq{seg, &e, sizeof(DirHeader) + slot * sizeof(DirEntry), sizeof(e)};
  // Runs even if an earlier entry failed (batch completions are
  // independent), so a failed resize still leaves the directory idle.
  reqs[n++] = SegmentWriteReq{seg, idle, kGenOff, sizeof(idle)};
  SyscallRes res[4];
  kernel_->SubmitBatch(self, std::span<const SyscallReq>(reqs, n), std::span<SyscallRes>(res, n));
  for (size_t i = 0; i < n; ++i) {
    Status st = ResStatus(res[i]);
    if (st != Status::kOk) {
      return st;
    }
  }
  scan->header.generation = gen + 2;
  scan->len = std::max(scan->len, need);
  return Status::kOk;
}

Result<ObjectId> FileSystem::Lookup(ObjectId self, ObjectId dir, const std::string& name) {
  // Mount overlay first, like the real library.
  ObjectId mounted = mounts_.Resolve(dir, name);
  if (mounted != kInvalidObject) {
    return mounted;
  }
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  // Consistent read without the mutex: retry while a writer is mid-update.
  for (int attempt = 0; attempt < 100; ++attempt) {
    DirScan scan;
    Result<ObjectId> r = FindEntry(self, seg_ce, name, &scan, nullptr);
    if (!r.ok() && r.status() != Status::kNotFound) {
      return r.status();
    }
    Result<bool> current = ScanStillCurrent(self, seg_ce, scan);
    if (!current.ok()) {
      return current.status();
    }
    if (current.value()) {
      return r;
    }
  }
  return Status::kBusy;
}

Status FileSystem::Unlink(ObjectId self, ObjectId dir, const std::string& name) {
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  if (!mu.Lock(self)) {
    return Status::kLabelCheckFailed;
  }
  DirScan scan;
  uint64_t slot = 0;
  Result<ObjectId> obj = FindEntry(self, seg_ce, name, &scan, &slot);
  if (!obj.ok()) {
    mu.Unlock(self);
    return obj.status();
  }
  DirEntry empty{};
  Status st = WriteEntry(self, seg_ce, &scan, slot, empty);
  mu.Unlock(self);
  if (st != Status::kOk) {
    return st;
  }
  return kernel_->sys_container_unref(self, ContainerEntry{dir, obj.value()});
}

Status FileSystem::Rename(ObjectId self, ObjectId dir, const std::string& from,
                          const std::string& to) {
  if (to.empty() || to.size() > kMaxFileName) {
    return Status::kInvalidArg;
  }
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  if (!mu.Lock(self)) {
    return Status::kLabelCheckFailed;
  }
  // One scan finds both names. If `to` exists it is replaced (Unix
  // semantics), its object unreferenced after the name switch.
  DirScan scan;
  uint64_t from_slot = 0;
  uint64_t to_slot = 0;
  ObjectId obj = kInvalidObject;
  ObjectId displaced = kInvalidObject;
  Status st = ScanDirRecords(self, seg_ce, &scan, [&](uint64_t slot, const DirEntry& e) {
    if (e.in_use == 0) {
      return true;
    }
    if (strncmp(e.name, from.c_str(), sizeof(e.name)) == 0) {
      from_slot = slot;
      obj = e.objid;
    } else if (strncmp(e.name, to.c_str(), sizeof(e.name)) == 0) {
      to_slot = slot;
      displaced = e.objid;
    }
    return obj == kInvalidObject || displaced == kInvalidObject;
  });
  if (st == Status::kOk && obj == kInvalidObject) {
    st = Status::kNotFound;
  }
  if (st != Status::kOk || from == to) {
    mu.Unlock(self);
    return st;
  }
  bool replace = displaced != kInvalidObject;
  DirEntry e{};
  e.objid = obj;
  e.in_use = 1;
  memcpy(e.name, to.data(), to.size());
  st = WriteEntry(self, seg_ce, &scan, replace ? to_slot : from_slot, e);
  if (st == Status::kOk && replace) {
    DirEntry empty{};
    st = WriteEntry(self, seg_ce, &scan, from_slot, empty);
  }
  mu.Unlock(self);
  if (st == Status::kOk && replace && displaced != obj) {
    kernel_->sys_container_unref(self, ContainerEntry{dir, displaced});
  }
  return st;
}

Result<std::vector<std::pair<std::string, ObjectId>>> FileSystem::ReadDir(ObjectId self,
                                                                          ObjectId dir) {
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  for (int attempt = 0; attempt < 100; ++attempt) {
    DirScan scan;
    std::vector<std::pair<std::string, ObjectId>> out;
    Status st = ScanDirRecords(self, seg_ce, &scan, [&](uint64_t, const DirEntry& e) {
      if (e.in_use != 0) {
        out.emplace_back(std::string(e.name, strnlen(e.name, sizeof(e.name))), e.objid);
      }
      return true;
    });
    if (st != Status::kOk) {
      return st;
    }
    Result<bool> current = ScanStillCurrent(self, seg_ce, scan);
    if (!current.ok()) {
      return current.status();
    }
    if (current.value()) {
      return out;
    }
  }
  return Status::kBusy;
}

Result<ObjectId> FileSystem::Walk(ObjectId self, ObjectId root, const std::string& path) {
  ObjectId cur = root;
  size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') {
      ++pos;
    }
    size_t end = path.find('/', pos);
    if (end == std::string::npos) {
      end = path.size();
    }
    if (end == pos) {
      break;
    }
    std::string comp = path.substr(pos, end - pos);
    pos = end;
    if (comp == ".") {
      continue;
    }
    if (comp == "..") {
      Result<ObjectId> parent = kernel_->sys_container_get_parent(self, cur);
      if (!parent.ok()) {
        return parent.status();
      }
      cur = parent.value();
      continue;
    }
    Result<ObjectId> next = Lookup(self, cur, comp);
    if (!next.ok()) {
      return next.status();
    }
    cur = next.value();
  }
  return cur;
}

Result<std::pair<ObjectId, std::string>> FileSystem::WalkParent(ObjectId self, ObjectId root,
                                                                const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir_part = slash == std::string::npos ? "" : path.substr(0, slash);
  std::string leaf = slash == std::string::npos ? path : path.substr(slash + 1);
  if (leaf.empty()) {
    return Status::kInvalidArg;
  }
  Result<ObjectId> dir = Walk(self, root, dir_part);
  if (!dir.ok()) {
    return dir.status();
  }
  return std::make_pair(dir.value(), leaf);
}

Result<uint64_t> FileSystem::FileSize(ObjectId self, ObjectId dir, ObjectId file) {
  return kernel_->sys_segment_get_len(self, ContainerEntry{dir, file});
}

Result<uint64_t> FileSystem::ReadAt(ObjectId self, ObjectId dir, ObjectId file, void* buf,
                                    uint64_t off, uint64_t len) {
  ContainerEntry ce{dir, file};
  Result<uint64_t> size = kernel_->sys_segment_get_len(self, ce);
  if (!size.ok()) {
    return size.status();
  }
  if (off >= size.value()) {
    return uint64_t{0};
  }
  uint64_t n = std::min(len, size.value() - off);
  Status st = kernel_->sys_segment_read(self, ce, buf, off, n);
  if (st != Status::kOk) {
    return st;
  }
  return n;
}

Status FileSystem::WriteAt(ObjectId self, ObjectId dir, ObjectId file, const void* buf,
                           uint64_t off, uint64_t len) {
  ContainerEntry ce{dir, file};
  Result<uint64_t> size = kernel_->sys_segment_get_len(self, ce);
  if (!size.ok()) {
    return size.status();
  }
  if (off + len > size.value()) {
    Status st = kernel_->sys_segment_resize(self, ce, off + len);
    if (st == Status::kQuotaExceeded) {
      // Grow the file's quota out of the directory's pool, with headroom so
      // steady appends don't pay a quota_move per write.
      Result<uint64_t> q = kernel_->sys_obj_get_quota(self, ce);
      if (!q.ok()) {
        return q.status();
      }
      uint64_t need = off + len + kObjectOverheadBytes;
      uint64_t grow = std::max<uint64_t>(need - q.value(), need / 2);
      st = kernel_->sys_quota_move(self, dir, file, static_cast<int64_t>(grow));
      if (st != Status::kOk) {
        return st;
      }
      st = kernel_->sys_segment_resize(self, ce, off + len);
    }
    if (st != Status::kOk) {
      return st;
    }
  }
  return kernel_->sys_segment_write(self, ce, buf, off, len);
}

Status FileSystem::Truncate(ObjectId self, ObjectId dir, ObjectId file, uint64_t len) {
  return kernel_->sys_segment_resize(self, ContainerEntry{dir, file}, len);
}

Status FileSystem::SyncFile(ObjectId self, ObjectId dir, ObjectId file) {
  return kernel_->sys_sync_object(self, ContainerEntry{dir, file});
}

Status FileSystem::SyncEverything(ObjectId self) { return kernel_->sys_sync(self); }

Status FileSystem::TouchMtime(ObjectId self, ObjectId dir, ObjectId file, uint64_t mtime) {
  ContainerEntry ce{dir, file};
  Result<std::vector<uint8_t>> md = kernel_->sys_obj_get_metadata(self, ce);
  if (!md.ok()) {
    return md.status();
  }
  std::vector<uint8_t> bytes = md.take();
  memcpy(bytes.data(), &mtime, 8);
  return kernel_->sys_obj_set_metadata(self, ce, bytes.data(), bytes.size());
}

Result<uint64_t> FileSystem::GetMtime(ObjectId self, ObjectId dir, ObjectId file) {
  Result<std::vector<uint8_t>> md = kernel_->sys_obj_get_metadata(self, ContainerEntry{dir, file});
  if (!md.ok()) {
    return md.status();
  }
  uint64_t mtime;
  memcpy(&mtime, md.value().data(), 8);
  return mtime;
}

}  // namespace histar
