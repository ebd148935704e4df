// web-login: the §6.4 per-user web service's demultiplexer step, driven by
// the benchmark through public calls.
//
// One client by default (--clients n for more), each its own process. Per
// request a client creates a worker container and a pipe, spawns a worker
// program that serves the request (ServeOne: login through the §6.2 gates,
// then UserStore Get or Put), waits for the worker, reads the response, and
// unrefs the container. A single client reboots the world every 500
// requests (see Boot).
// Mix: 80% GET, 15% PUT (overwrite), 5% wrong password (must be denied).
// Three users, the most one UnixWorld holds (each reserves 16 MB of /home);
// keys are pre-created and partitioned per client, so the run mutates no
// directory. No store, no network.
#include <cstdlib>

#include "src/apps/webserver.h"
#include "src/auth/auth.h"
#include "src/unixlib/unix.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace histar;

constexpr int kDefaultClients = 1;
constexpr int kUsers = 3;
constexpr int kKeys = 6;  // per client per user
constexpr uint64_t kWorkerQuota = 8 << 20;
constexpr uint32_t kWaitMs = 2000;
constexpr uint64_t kRequestsPerWorld = 500;

enum Cls { kGet, kPut, kDenied, kNumCls };

struct Client {
  std::unique_ptr<ProcessContext> ctx;
  Rng rng{0};
  uint64_t puts = 0;
  // model[user][key] = value
  std::vector<std::vector<std::string>> values;
};

// A client process: the Figure 6 objects built by init, with its own fd
// table. The client's host thread calls BindClient before its first call.
std::unique_ptr<ProcessContext> MakeClientContext(UnixWorld* world, const std::string& name) {
  ProcessManager& procs = world->procs();
  Result<ProcessIds> ids = procs.CreateProcessObjects(world->init_thread(), name, ProcessOpts());
  if (!ids.ok()) {
    std::fprintf(stderr, "perfbench: client process %s: %s\n", name.c_str(),
                 std::string(StatusName(ids.status())).c_str());
    return nullptr;
  }
  auto ctx = std::make_unique<ProcessContext>(procs.MakeContext(ids.value(), {name}));
  ctx->fds = std::make_unique<FdTable>(world->kernel(), ids.value(), Label());
  return ctx;
}

void BindClient(ProcessContext& ctx) {
  CurrentThread::Set(ctx.self);
  ctx.kernel->sys_self_set_as(ctx.self,
                              ContainerEntry{ctx.ids.internal_ct, ctx.ids.address_space});
}

// The worker's request handling with a span around each layer call; the
// same steps as ServeOne, which the untraced runs call.
std::string TracedServe(ProcessContext& ctx, AuthSystem* auth, UserStore* store,
                        const WebRequest& req) {
  Result<LoginResult> login = [&]() {
    Span span("auth.login");
    return auth->Login(ctx.self, req.user, req.password);
  }();
  if (!login.ok() || !login.value().authenticated) {
    return "403 denied";
  }
  if (req.op == WebRequest::Op::kPut) {
    Span span("apps.store_put");
    Status st = store->Put(ctx.self, req.user, req.key, req.data);
    return st == Status::kOk ? "200 stored" : "500 " + std::string(StatusName(st));
  }
  Span span("apps.store_get");
  Result<std::string> v = store->Get(ctx.self, req.user, req.key);
  if (!v.ok()) {
    return v.status() == Status::kNotFound ? "404 not-found"
                                           : "500 " + std::string(StatusName(v.status()));
  }
  return "200 " + v.value();
}

class WebLogin : public Workload {
 public:
  ~WebLogin() override { CurrentThread::Set(kInvalidObject); }

  int default_clients() const override { return kDefaultClients; }
  Kernel* kernel() override { return kernel_.get(); }

  bool Setup(const Options& opts) override {
    seed_ = opts.seed;
    for (int u = 0; u < kUsers; ++u) {
      users_.push_back("user" + std::to_string(u));
      passwords_.push_back(MakeToken(Key(seed_, 0x9a55, static_cast<uint64_t>(u)), 12));
    }
    clients_.resize(static_cast<size_t>(opts.clients));
    for (int c = 0; c < opts.clients; ++c) {
      Client& cl = clients_[static_cast<size_t>(c)];
      cl.rng = Rng(Key(seed_, 0x3eb, static_cast<uint64_t>(c)));
      cl.values.assign(kUsers, std::vector<std::string>(kKeys));
      for (int u = 0; u < kUsers; ++u) {
        for (int j = 0; j < kKeys; ++j) {
          cl.values[static_cast<size_t>(u)][static_cast<size_t>(j)] = NewValue(c, u, j, 0);
        }
      }
    }
    return Boot();
  }

  LoopSpec Loop() override {
    LoopSpec spec;
    spec.classes = kNumCls;
    spec.rss_mark_ops = 2000;
    spec.client_init = [this](int c) { BindClient(*clients_[static_cast<size_t>(c)].ctx); };
    spec.client_fini = [](int) { CurrentThread::Set(kInvalidObject); };
    spec.body = [this](int c, uint64_t) {
      if (clients_.size() == 1 && ++served_ % kRequestsPerWorld == 0) {
        if (!Renew()) {
          std::fprintf(stderr, "perfbench: renewing the world failed\n");
          std::abort();
        }
        BindClient(*clients_[0].ctx);
      }
      return Request(c);
    };
    return spec;
  }

  KernelSnap Snap() override {
    KernelSnap s = SnapKernel(kernel_.get());
    s.syscalls += syscall_base_;
    s.labels += label_base_;
    return s;
  }

  void BeginPhase() override { snap0_ = Snap(); }

  bool Finish(LoopResult& res, Report* r) override {
    KernelSnap now = Snap();
    size_t gi = SyscallKind("gate_invoke");
    r->Set("auth.gate_calls_per_login",
           static_cast<double>(now.kind_count[gi] - snap0_.kind_count[gi]) /
               static_cast<double>(std::max<uint64_t>(res.attempted, 1)),
           "count");
    // Every key must still hold the client's last written value.
    CurrentThread bind(unix_->init_thread());
    for (int c = 0; c < static_cast<int>(clients_.size()); ++c) {
      for (int u = 0; u < kUsers; ++u) {
        for (int j = 0; j < kKeys; ++j) {
          Result<std::string> v = store_->Get(unix_->init_thread(),
                                              users_[static_cast<size_t>(u)], KeyName(c, u, j));
          if (!v.ok() || v.value() != clients_[static_cast<size_t>(c)]
                                          .values[static_cast<size_t>(u)][static_cast<size_t>(j)]) {
            std::fprintf(stderr, "perfbench: key %s of %s lost its value\n",
                         KeyName(c, u, j).c_str(), users_[static_cast<size_t>(u)].c_str());
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  // Boots a world holding every key at its client's model value. Every
  // request leaves labels, categories and process objects behind that the
  // library never frees (about 300 KB of host memory each), so a single
  // client renews the world every kRequestsPerWorld requests.
  bool Boot() {
    kernel_ = std::make_unique<Kernel>();
    unix_ = UnixWorld::Boot(kernel_.get());
    if (unix_ == nullptr) {
      return false;
    }
    ObjectId init = unix_->init_thread();
    CurrentThread bind(init);
    log_ = LogService::Start(unix_.get());
    auth_ = AuthSystem::Start(unix_.get(), log_.get());
    store_ = UserStore::Create(unix_.get());
    if (log_ == nullptr || auth_ == nullptr || store_ == nullptr) {
      return false;
    }
    for (int u = 0; u < kUsers; ++u) {
      Result<UnixUser> user =
          auth_->AddUser(users_[static_cast<size_t>(u)], passwords_[static_cast<size_t>(u)]);
      if (!user.ok() || store_->AddUser(init, user.value()) != Status::kOk) {
        std::fprintf(stderr, "perfbench: adding user %d failed\n", u);
        return false;
      }
    }
    // The workers' quota pool, as the web server's demultiplexer keeps one.
    CreateSpec pspec;
    pspec.container = kernel_->root_container();
    pspec.descrip = "web-workers";
    pspec.quota = 64 << 20;
    Result<ObjectId> pool = kernel_->sys_container_create(init, pspec, 0);
    if (!pool.ok()) {
      return false;
    }
    pool_ = pool.value();

    AuthSystem* auth = auth_.get();
    UserStore* store = store_.get();
    unix_->procs().RegisterProgram("bench-web-worker", [auth, store](ProcessContext& ctx)
                                                           -> int64_t {
      // args: name op user key password data op-id parent-span
      if (ctx.args.size() < 8) {
        return 1;
      }
      WebRequest req;
      req.op = ctx.args[1] == "PUT" ? WebRequest::Op::kPut : WebRequest::Op::kGet;
      req.user = ctx.args[2];
      req.key = ctx.args[3];
      req.password = ctx.args[4];
      req.data = ctx.args[5];
      // Spans recorded here belong to the client's op.
      SpanParent parent(std::strtoull(ctx.args[6].c_str(), nullptr, 10),
                        std::strtoull(ctx.args[7].c_str(), nullptr, 10));
      std::string resp = tracing::On() ? TracedServe(ctx, auth, store, req)
                                       : ServeOne(ctx, auth, store, req);
      resp.push_back('\n');
      Span span("unixlib.pipe.write");
      Result<uint64_t> n = ctx.fds->Write(ctx.self, 0, resp.data(), resp.size());
      return n.ok() && n.value() == resp.size() ? 0 : 1;
    });

    for (int c = 0; c < static_cast<int>(clients_.size()); ++c) {
      Client& cl = clients_[static_cast<size_t>(c)];
      cl.ctx = MakeClientContext(unix_.get(), "web-client" + std::to_string(c));
      if (cl.ctx == nullptr) {
        return false;
      }
      for (int u = 0; u < kUsers; ++u) {
        for (int j = 0; j < kKeys; ++j) {
          if (store_->Put(init, users_[static_cast<size_t>(u)], KeyName(c, u, j),
                          cl.values[static_cast<size_t>(u)][static_cast<size_t>(j)]) !=
              Status::kOk) {
            std::fprintf(stderr, "perfbench: pre-creating keys failed\n");
            return false;
          }
        }
      }
    }
    return true;
  }

  // Replaces the world with a fresh one; the counters carry over, so a
  // phase's deltas span every world it ran on.
  bool Renew() {
    uint64_t syscalls = kernel_->syscall_count();
    uint64_t labels = kernel_->label_registry().size();
    CurrentThread::Set(kInvalidObject);
    for (Client& cl : clients_) {
      cl.ctx.reset();
    }
    store_.reset();
    auth_.reset();
    log_.reset();
    unix_.reset();
    kernel_.reset();
    if (!Boot()) {
      return false;
    }
    syscall_base_ += syscalls - kernel_->syscall_count();
    label_base_ += labels - kernel_->label_registry().size();
    return true;
  }

  std::string KeyName(int c, int u, int j) const {
    return "k" + MakeToken(Key(seed_, static_cast<uint64_t>(c), static_cast<uint64_t>(u),
                               static_cast<uint64_t>(j)),
                           8);
  }

  std::string NewValue(int c, int u, int j, uint64_t version) const {
    uint64_t k = Key(seed_ ^ 0x7a1, static_cast<uint64_t>(c),
                     static_cast<uint64_t>(u * kKeys + j), version);
    return MakeToken(k, 16 + k % 112);
  }

  OpOutcome Request(int c) {
    Client& cl = clients_[static_cast<size_t>(c)];
    ProcessContext& ctx = *cl.ctx;
    double x = cl.rng.Uniform();
    int cls = x < 0.80 ? kGet : x < 0.95 ? kPut : kDenied;
    int u = static_cast<int>(cl.rng.Below(kUsers));
    int j = static_cast<int>(cl.rng.Below(kKeys));
    std::string value;
    if (cls == kPut) {
      value = NewValue(c, u, j, ++cl.puts);
    }
    const std::string& password = passwords_[static_cast<size_t>(u)];
    std::vector<std::string> args = {
        "bench-web-worker", cls == kPut ? "PUT" : "GET", users_[static_cast<size_t>(u)],
        KeyName(c, u, j), cls == kDenied ? password + "x" : password, value, "0", "0"};

    OpOutcome o;
    o.cls = cls;
    std::string resp;
    uint64_t t0 = NowNs();
    {
      Span op("op");
      args[6] = std::to_string(tracing::CurrentOp());
      args[7] = std::to_string(tracing::CurrentSpan());
      o.ok = Serve(ctx, args, &resp);
    }
    o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
    if (!o.ok) {
      return o;
    }
    std::string& model = cl.values[static_cast<size_t>(u)][static_cast<size_t>(j)];
    if (cls == kGet) {
      o.correct = resp == "200 " + model + "\n";
    } else if (cls == kPut) {
      o.correct = resp == "200 stored\n";
      model = value;
    } else {
      o.correct = resp == "403 denied\n";
    }
    return o;
  }

  // One demultiplexer step; false if a call failed or timed out.
  bool Serve(ProcessContext& ctx, const std::vector<std::string>& args, std::string* resp) {
    CreateSpec cspec;
    cspec.container = pool_;
    cspec.descrip = "worker";
    cspec.quota = kWorkerQuota;
    Result<ObjectId> area = kernel_->sys_container_create(ctx.self, cspec, 0);
    if (!area.ok()) {
      return false;
    }
    // The pipe lives in the worker's container, so unreferencing the
    // container reclaims it: FdTable::Close releases the fd segments but
    // never the pipe buffer.
    ProcessIds area_ids = ctx.ids;
    area_ids.proc_ct = area.value();
    FdTable fds(kernel_.get(), area_ids, Label());
    Result<std::pair<int, int>> pipe = fds.CreatePipe(ctx.self);
    bool ok = pipe.ok();
    if (ok) {
      ProcessOpts popts;
      popts.proc_parent = area.value();
      popts.quota = kWorkerQuota / 2;
      popts.inherit_fds = {fds.Entry(pipe.value().second).value()};
      Result<std::unique_ptr<ProcHandle>> worker = [&]() {
        Span span("unixlib.proc.spawn");
        return unix_->procs().Spawn(ctx, "bench-web-worker", args, popts);
      }();
      ok = worker.ok();
      if (ok) {
        // Wait before reading: the response fits the pipe buffer, so the
        // worker never blocks, and the two sides never contend for the
        // pipe's SegmentMutex, whose non-atomic compare-exchange can wedge
        // on multicore (src/unixlib/mutex.h).
        {
          Span span("unixlib.proc.wait");
          Result<int64_t> st = worker.value()->Wait(ctx.self, kWaitMs);
          ok = st.ok() && st.value() == 0;
        }
        Span span("unixlib.pipe.read");
        char buf[512];
        while (ok && resp->find('\n') == std::string::npos) {
          Result<uint64_t> n =
              fds.ReadTimeout(ctx.self, pipe.value().first, buf, sizeof(buf), kWaitMs);
          if (!n.ok() || n.value() == 0) {
            ok = false;
            break;
          }
          resp->append(buf, n.value());
        }
      }
      fds.Close(ctx.self, pipe.value().first);
      fds.Close(ctx.self, pipe.value().second);
    }
    Span span("web.area_unref");
    Status st = kernel_->sys_container_unref(ctx.self, ContainerEntry{pool_, area.value()});
    return ok && st == Status::kOk;
  }

  uint64_t seed_ = 0;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> unix_;
  std::unique_ptr<LogService> log_;
  std::unique_ptr<AuthSystem> auth_;
  std::unique_ptr<UserStore> store_;
  std::vector<std::string> users_;
  std::vector<std::string> passwords_;
  ObjectId pool_ = kInvalidObject;
  std::vector<Client> clients_;
  KernelSnap snap0_;
  uint64_t syscall_base_ = 0;  // counts of the worlds Renew retired
  uint64_t label_base_ = 0;
  uint64_t served_ = 0;  // requests, when a single client runs
};

}  // namespace

std::unique_ptr<Workload> MakeWebLogin() { return std::make_unique<WebLogin>(); }

}  // namespace perfbench
