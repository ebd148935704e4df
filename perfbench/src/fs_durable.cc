// fs-durable: private-directory file churn on the latency-modeled disk.
//
// One client by default (--clients n for more), each a kernel thread
// owning a private category and a private directory of a few hundred files
// (1 KB to 64 KB, log-uniform) labeled with that category. Op mix: lookup+read 40%, overwrite 20%,
// create+write or unlink 30% (whichever keeps the live count at its
// target, so each is ~15% and directory scans cost the same in every run),
// ReadDir 5%, SyncFile 4.5%, SyncEverything 0.5% (not 1%: with 1% the p99
// falls on the boundary between syncs and creates and jumps between runs).
// The store keeps its data, so after the measured phase a fresh kernel is
// recovered from the disk image several times. Directories are private
// because the unixlib directory mutex is not atomic on multicore
// (src/unixlib/mutex.h).
#include <cstring>

#include "src/store/disk_model.h"
#include "src/store/single_level_store.h"
#include "src/unixlib/unix.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace histar;

constexpr int kDefaultClients = 1;
constexpr int kLiveTarget = 256;   // live files per client
constexpr int kNameSpace = 512;    // file-name slots per client
constexpr uint64_t kMinBytes = 1024;
constexpr uint64_t kMaxBytes = 64 * 1024;
constexpr int kRestores = 3;

enum Cls { kRead, kOverwrite, kCreate, kUnlink, kReadDir, kSyncFile, kSyncAll, kNumCls };

std::string FileName(int slot) { return "f" + std::to_string(slot); }

struct Slot {
  bool live = false;
  ObjectId id = kInvalidObject;
  uint64_t version = 0;
  uint64_t size = 0;
};

struct Client {
  ObjectId thread = kInvalidObject;
  ObjectId dir = kInvalidObject;
  Label file_label;
  std::vector<Slot> slots;
  std::vector<int> live;  // slot numbers, unordered
  std::vector<int> free;
  Rng rng{0};
  std::vector<uint8_t> data;
  std::vector<uint8_t> expect;
  uint64_t payload_bytes = 0;

  static void Move(std::vector<int>* from, std::vector<int>* to, size_t at) {
    to->push_back((*from)[at]);
    (*from)[at] = from->back();
    from->pop_back();
  }
};

class FsDurable : public Workload {
 public:
  ~FsDurable() override { CurrentThread::Set(kInvalidObject); }

  int default_clients() const override { return kDefaultClients; }
  Kernel* kernel() override { return kernel_.get(); }

  bool Setup(const Options& opts) override {
    seed_ = opts.seed;
    DiskGeometry g;
    g.capacity_bytes = 2ULL << 30;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get());
    if (store_->Format() != Status::kOk) {
      return false;
    }
    kernel_ = std::make_unique<Kernel>();
    kernel_->AttachPersistTarget(store_.get());
    unix_ = UnixWorld::Boot(kernel_.get());
    if (unix_ == nullptr) {
      return false;
    }
    ObjectId init = unix_->init_thread();
    FileSystem& fs = unix_->fs();
    clients_.resize(static_cast<size_t>(opts.clients));
    for (int c = 0; c < opts.clients; ++c) {
      Client& cl = clients_[static_cast<size_t>(c)];
      Result<CategoryId> cat = kernel_->sys_cat_create(init);
      if (!cat.ok()) {
        return false;
      }
      cl.thread = kernel_->BootstrapThread(Label(Level::k1, {{cat.value(), Level::kStar}}),
                                           Label(Level::k2, {{cat.value(), Level::k3}}),
                                           "fs-client" + std::to_string(c));
      cl.file_label = Label(Level::k1, {{cat.value(), Level::k3}});
      Result<ObjectId> dir =
          fs.MakeDir(init, unix_->fs_root(), "c" + std::to_string(c), cl.file_label, 24 << 20);
      if (cl.thread == kInvalidObject || !dir.ok()) {
        std::fprintf(stderr, "perfbench: client %d set-up: %s\n", c,
                     std::string(StatusName(dir.status())).c_str());
        return false;
      }
      cl.dir = dir.value();
      cl.rng = Rng(Key(seed_, 0xf5, static_cast<uint64_t>(c)));
      cl.slots.assign(kNameSpace, Slot{});
      for (int s = 0; s < kNameSpace; ++s) {
        cl.free.push_back(s);
      }
      CurrentThread bind(cl.thread);
      for (int i = 0; i < kLiveTarget; ++i) {
        if (!Create(c, cl.rng.Below(cl.free.size()), nullptr)) {
          return false;
        }
      }
    }
    return fs.SyncEverything(init) == Status::kOk;
  }

  LoopSpec Loop() override {
    LoopSpec spec;
    spec.classes = kNumCls;
    spec.rss_mark_ops = 20000;
    spec.client_init = [this](int c) {
      CurrentThread::Set(clients_[static_cast<size_t>(c)].thread);
    };
    spec.client_fini = [](int) { CurrentThread::Set(kInvalidObject); };
    spec.body = [this](int c, uint64_t) { return Op(c); };
    return spec;
  }

  void BeginPhase() override {
    disk_ns0_ = disk_->sim_time_ns();
    writes0_ = disk_->write_ops();
    seeks0_ = disk_->seek_ops();
    bytes0_ = disk_->bytes_written();
    applies0_ = store_->log_applies();
    payload0_ = 0;
    for (const Client& cl : clients_) {
      payload0_ += cl.payload_bytes;
    }
  }

  bool Finish(LoopResult& res, Report* r) override {
    double ops = static_cast<double>(std::max<uint64_t>(res.attempted, 1));
    uint64_t payload = 0;
    for (const Client& cl : clients_) {
      payload += cl.payload_bytes;
    }
    payload -= payload0_;
    r->Set("sync_p50_us", Median(res.by_class[kSyncAll]), "us");
    r->Set("disk_ms_per_kop", static_cast<double>(disk_->sim_time_ns() - disk_ns0_) / 1e6 /
                                  (ops / 1000.0), "ms/kop");
    r->Set("store.device_writes_per_kop",
           static_cast<double>(disk_->write_ops() - writes0_) * 1000.0 / ops, "count/kop");
    r->Set("store.device_seeks_per_kop",
           static_cast<double>(disk_->seek_ops() - seeks0_) * 1000.0 / ops, "count/kop");
    r->Set("store.write_amp",
           static_cast<double>(disk_->bytes_written() - bytes0_) /
               static_cast<double>(std::max<uint64_t>(payload, 1)), "ratio");
    r->Set("store.log_applies_per_kop",
           static_cast<double>(store_->log_applies() - applies0_) * 1000.0 / ops, "count/kop");
    r->Set("store.chain_length", static_cast<double>(store_->chain_length()), "count");

    // Every directory must list exactly the client's model.
    bool ok = true;
    for (int c = 0; c < static_cast<int>(clients_.size()); ++c) {
      CurrentThread bind(clients_[static_cast<size_t>(c)].thread);
      if (!CheckDir(c)) {
        std::fprintf(stderr, "perfbench: directory of client %d differs from its model\n", c);
        ok = false;
      }
    }
    ObjectId init = unix_->init_thread();
    Status synced = unix_->fs().SyncEverything(init);
    if (synced != Status::kOk) {
      std::fprintf(stderr, "perfbench: final sync failed: %s\n",
                   std::string(StatusName(synced)).c_str());
      return false;
    }
    // Recovery: a fresh kernel from the disk image must hold every live file.
    std::vector<double> wall_ms;
    std::vector<double> dev_ms;
    std::vector<double> seeks;
    for (int i = 0; i < kRestores; ++i) {
      SingleLevelStore store2(disk_.get());
      Kernel k2;
      uint64_t sim0 = disk_->sim_time_ns();
      uint64_t seek0 = disk_->seek_ops();
      uint64_t t0 = NowNs();
      Status st = store2.Recover(&k2);
      uint64_t t1 = NowNs();
      if (st != Status::kOk) {
        std::fprintf(stderr, "perfbench: recovery failed: %s\n",
                     std::string(StatusName(st)).c_str());
        return false;
      }
      wall_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      dev_ms.push_back(static_cast<double>(disk_->sim_time_ns() - sim0) / 1e6);
      seeks.push_back(static_cast<double>(disk_->seek_ops() - seek0));
      for (const Client& cl : clients_) {
        for (int s : cl.live) {
          if (!k2.ObjectExists(cl.slots[static_cast<size_t>(s)].id)) {
            std::fprintf(stderr, "perfbench: recovered kernel lost a live file\n");
            ok = false;
          }
        }
      }
    }
    r->Set("restore_ms", Median(wall_ms), "ms");
    r->Set("store.restore_device_ms", Median(dev_ms), "ms");
    r->Set("store.restore_seeks", Median(seeks), "count");
    return ok;
  }

 private:
  // Creates a file in free slot number `at` (index into cl.free) and writes
  // its seeded contents. With `out`, times the calls into it.
  bool Create(int c, size_t at, OpOutcome* out) {
    Client& cl = clients_[static_cast<size_t>(c)];
    int s = cl.free[at];
    Slot& slot = cl.slots[static_cast<size_t>(s)];
    uint64_t size = cl.rng.LogUniform(kMinBytes, kMaxBytes);
    uint64_t version = slot.version + 1;
    cl.data.resize(size);
    FillBytes(Key(seed_, static_cast<uint64_t>(c), static_cast<uint64_t>(s), version),
              cl.data.data(), size);
    FileSystem& fs = unix_->fs();
    uint64_t t0 = NowNs();
    Result<ObjectId> f = [&]() -> Result<ObjectId> {
      Span span("unixlib.fs.create");
      return fs.Create(cl.thread, cl.dir, FileName(s), cl.file_label,
                       kObjectOverheadBytes + size + kPageSize);
    }();
    Status st = f.status();
    if (f.ok()) {
      Span span("unixlib.fs.write");
      st = fs.WriteAt(cl.thread, cl.dir, f.value(), cl.data.data(), 0, size);
    }
    uint64_t t1 = NowNs();
    if (out != nullptr) {
      out->latency_us = static_cast<double>(t1 - t0) / 1e3;
      out->ok = st == Status::kOk;
    }
    if (st != Status::kOk) {
      if (out == nullptr) {
        std::fprintf(stderr, "perfbench: populating %s: %s\n", FileName(s).c_str(),
                     std::string(StatusName(st)).c_str());
      }
      return false;
    }
    slot = Slot{true, f.value(), version, size};
    cl.payload_bytes += size;
    Client::Move(&cl.free, &cl.live, at);
    return true;
  }

  OpOutcome Op(int c) {
    Client& cl = clients_[static_cast<size_t>(c)];
    FileSystem& fs = unix_->fs();
    Span op_span("op");
    OpOutcome o;
    double u = cl.rng.Uniform();
    const bool grow = static_cast<int>(cl.live.size()) < kLiveTarget;
    const int cls = u < 0.40    ? kRead
                    : u < 0.60  ? kOverwrite
                    : u < 0.90  ? (grow ? kCreate : kUnlink)
                    : u < 0.95  ? kReadDir
                    : u < 0.995 ? kSyncFile
                                : kSyncAll;
    o.cls = cls;

    if (cls == kCreate) {
      Create(c, cl.rng.Below(cl.free.size()), &o);
      return o;
    }
    if (cls == kReadDir) {
      uint64_t t0 = NowNs();
      Result<std::vector<std::pair<std::string, ObjectId>>> names = [&]() {
        Span span("unixlib.fs.readdir");
        return fs.ReadDir(cl.thread, cl.dir);
      }();
      o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
      o.ok = names.ok();
      o.correct = names.ok() && MatchesModel(c, names.value());
      return o;
    }
    if (cls == kSyncAll) {
      uint64_t t0 = NowNs();
      Status st = [&]() {
        Span span("unixlib.fs.synceverything");
        return fs.SyncEverything(cl.thread);
      }();
      o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
      o.ok = st == Status::kOk;
      return o;
    }

    size_t at = cl.rng.Below(cl.live.size());
    int s = cl.live[at];
    Slot& slot = cl.slots[static_cast<size_t>(s)];
    const std::string name = FileName(s);
    if (cls == kUnlink) {
      uint64_t t0 = NowNs();
      Status st = [&]() {
        Span span("unixlib.fs.unlink");
        return fs.Unlink(cl.thread, cl.dir, name);
      }();
      o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
      o.ok = st == Status::kOk;
      if (o.ok) {
        slot.live = false;
        Client::Move(&cl.live, &cl.free, at);
      }
      return o;
    }
    if (cls == kSyncFile) {
      uint64_t t0 = NowNs();
      Status st = [&]() {
        Span span("unixlib.fs.syncfile");
        return fs.SyncFile(cl.thread, cl.dir, slot.id);
      }();
      o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
      o.ok = st == Status::kOk;
      return o;
    }

    // Read and overwrite both resolve the name first.
    uint64_t new_size = 0;
    if (cls == kOverwrite) {
      new_size = cl.rng.LogUniform(kMinBytes, kMaxBytes);
      cl.data.resize(new_size);
      FillBytes(Key(seed_, static_cast<uint64_t>(c), static_cast<uint64_t>(s), slot.version + 1),
                cl.data.data(), new_size);
    } else {
      cl.data.resize(slot.size);
    }
    uint64_t t0 = NowNs();
    Result<ObjectId> f = [&]() {
      Span span("unixlib.fs.lookup");
      return fs.Lookup(cl.thread, cl.dir, name);
    }();
    Status st = f.status();
    uint64_t got = 0;
    if (f.ok() && cls == kRead) {
      Span span("unixlib.fs.read");
      Result<uint64_t> n = fs.ReadAt(cl.thread, cl.dir, f.value(), cl.data.data(), 0, slot.size);
      st = n.status();
      got = n.ok() ? n.value() : 0;
    } else if (f.ok()) {
      Span span("unixlib.fs.write");
      st = fs.WriteAt(cl.thread, cl.dir, f.value(), cl.data.data(), 0, new_size);
      if (st == Status::kOk && new_size < slot.size) {
        st = fs.Truncate(cl.thread, cl.dir, f.value(), new_size);
      }
    }
    o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
    o.ok = st == Status::kOk;
    if (!o.ok) {
      return o;
    }
    o.correct = f.value() == slot.id;
    if (cls == kRead) {
      cl.expect.resize(slot.size);
      FillBytes(Key(seed_, static_cast<uint64_t>(c), static_cast<uint64_t>(s), slot.version),
                cl.expect.data(), slot.size);
      o.correct = o.correct && got == slot.size &&
                  std::memcmp(cl.data.data(), cl.expect.data(), slot.size) == 0;
    } else {
      slot.version += 1;
      slot.size = new_size;
      cl.payload_bytes += new_size;
    }
    return o;
  }

  bool MatchesModel(int c, const std::vector<std::pair<std::string, ObjectId>>& names) const {
    const Client& cl = clients_[static_cast<size_t>(c)];
    if (names.size() != cl.live.size()) {
      return false;
    }
    for (const auto& [name, id] : names) {
      if (name.size() < 2 || name[0] != 'f') {
        return false;
      }
      int s = std::atoi(name.c_str() + 1);
      if (s < 0 || s >= kNameSpace) {
        return false;
      }
      const Slot& slot = cl.slots[static_cast<size_t>(s)];
      if (!slot.live || slot.id != id) {
        return false;
      }
    }
    return true;
  }

  bool CheckDir(int c) {
    const Client& cl = clients_[static_cast<size_t>(c)];
    Result<std::vector<std::pair<std::string, ObjectId>>> names =
        unix_->fs().ReadDir(cl.thread, cl.dir);
    return names.ok() && MatchesModel(c, names.value());
  }

  uint64_t seed_ = 0;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> unix_;
  std::vector<Client> clients_;
  uint64_t disk_ns0_ = 0;
  uint64_t writes0_ = 0;
  uint64_t seeks0_ = 0;
  uint64_t bytes0_ = 0;
  uint64_t applies0_ = 0;
  uint64_t payload0_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFsDurable() { return std::make_unique<FsDurable>(); }

}  // namespace perfbench
