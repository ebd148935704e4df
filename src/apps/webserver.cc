#include "src/apps/webserver.h"

#include <vector>

#include "src/kernel/thread_runner.h"

namespace histar {

// ---- UserStore -----------------------------------------------------------------

std::unique_ptr<UserStore> UserStore::Create(UnixWorld* world) {
  auto s = std::unique_ptr<UserStore>(new UserStore());
  s->world_ = world;
  Result<ObjectId> root =
      world->fs().MakeDir(world->init_thread(), world->fs_root(), "srv", Label(), 32 << 20);
  if (!root.ok()) {
    return nullptr;
  }
  s->root_ = root.value();
  return s;
}

Status UserStore::AddUser(ObjectId self, const UnixUser& user) {
  // The per-user area carries the user's own categories; the store keeps no
  // key to it. Creation requires ownership of ur/uw — i.e. it happens at
  // account-creation time, on a thread already acting as the user.
  Result<ObjectId> dir = world_->fs().MakeDir(self, root_, user.name, user.FileLabel(),
                                              2 << 20);
  return dir.ok() ? Status::kOk : dir.status();
}

Status UserStore::Put(ObjectId self, const std::string& user, const std::string& key,
                      const std::string& value) {
  FileSystem& fs = world_->fs();
  Result<ObjectId> dir = fs.Lookup(self, root_, user);
  if (!dir.ok()) {
    return dir.status();
  }
  // Records inherit the user directory's label. Reading that label is
  // itself label-checked, so the caller must already carry the privilege.
  Result<Label> label = world_->kernel()->sys_obj_get_label(self, SelfEntry(dir.value()));
  if (!label.ok()) {
    return label.status();
  }
  Result<ObjectId> file = fs.Lookup(self, dir.value(), key);
  if (!file.ok()) {
    Result<ObjectId> created = fs.Create(self, dir.value(), key, label.value());
    if (!created.ok()) {
      return created.status();
    }
    file = created;
  } else {
    Status st = fs.Truncate(self, dir.value(), file.value(), 0);
    if (st != Status::kOk) {
      return st;
    }
  }
  return fs.WriteAt(self, dir.value(), file.value(), value.data(), 0, value.size());
}

Result<std::string> UserStore::Get(ObjectId self, const std::string& user,
                                   const std::string& key) {
  FileSystem& fs = world_->fs();
  Result<ObjectId> dir = fs.Lookup(self, root_, user);
  if (!dir.ok()) {
    return dir.status();
  }
  Result<ObjectId> file = fs.Lookup(self, dir.value(), key);
  if (!file.ok()) {
    return file.status();
  }
  Result<uint64_t> size = fs.FileSize(self, dir.value(), file.value());
  if (!size.ok()) {
    return size.status();
  }
  std::string out(size.value(), 0);
  Result<uint64_t> n = fs.ReadAt(self, dir.value(), file.value(), out.data(), 0, out.size());
  if (!n.ok()) {
    return n.status();
  }
  out.resize(n.value());
  return out;
}

// ---- request parsing --------------------------------------------------------------

WebRequest ParseRequest(const std::string& line) {
  WebRequest r;
  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    return r;
  }
  std::string verb = line.substr(0, sp1);
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    return r;
  }
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t slash = path.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= path.size()) {
    return r;
  }
  r.user = path.substr(0, slash);
  r.key = path.substr(slash + 1);
  if (line.compare(sp2 + 1, 5, "PASS ") != 0) {
    return r;
  }
  size_t pass_at = sp2 + 6;
  size_t sp3 = line.find(' ', pass_at);
  if (verb == "GET") {
    r.password = line.substr(pass_at, sp3 == std::string::npos ? std::string::npos
                                                               : sp3 - pass_at);
    r.op = WebRequest::Op::kGet;
  } else if (verb == "PUT") {
    if (sp3 == std::string::npos || line.compare(sp3 + 1, 5, "DATA ") != 0) {
      return r;
    }
    r.password = line.substr(pass_at, sp3 - pass_at);
    r.data = line.substr(sp3 + 6);
    r.op = WebRequest::Op::kPut;
  }
  return r;
}

// ---- the worker body ---------------------------------------------------------------

std::string ServeOne(ProcessContext& ctx, AuthSystem* auth, UserStore* store,
                     const WebRequest& req) {
  if (req.op == WebRequest::Op::kBad) {
    return "400 bad";
  }
  // The only way this worker gains any user's privilege: the §6.2 protocol,
  // with the credentials the connection presented. A compromised worker with
  // the wrong password learns exactly one bit and holds nothing.
  Result<LoginResult> login = auth->Login(ctx.self, req.user, req.password);
  if (!login.ok() || !login.value().authenticated) {
    return "403 denied";
  }
  if (req.op == WebRequest::Op::kPut) {
    Status st = store->Put(ctx.self, req.user, req.key, req.data);
    return st == Status::kOk ? "200 stored" : "500 " + std::string(StatusName(st));
  }
  Result<std::string> v = store->Get(ctx.self, req.user, req.key);
  if (!v.ok()) {
    return v.status() == Status::kNotFound ? "404 not-found"
                                           : "500 " + std::string(StatusName(v.status()));
  }
  return "200 " + v.value();
}

// ---- the demultiplexer ---------------------------------------------------------------

std::unique_ptr<WebServer> WebServer::Start(UnixWorld* world, NetDaemon* net, AuthSystem* auth,
                                            UserStore* store, uint16_t port) {
  auto s = std::unique_ptr<WebServer>(new WebServer());
  s->world_ = world;
  s->kernel_ = world->kernel();
  s->net_ = net;
  s->auth_ = auth;
  s->store_ = store;
  s->port_ = port;

  // The demux thread: no user privileges at all. It owns i (the admin's
  // import grant, like the update daemon's: a web server exists to move
  // bytes between the network and storage) and nothing else.
  Label demux_label(Level::k1, {{net->taint().i, Level::kStar}});
  Label demux_clear(Level::k2, {{net->taint().i, Level::k3}});
  s->self_ = s->kernel_->BootstrapThread(demux_label, demux_clear, "httpd-demux");

  // The workers' quota pool: every worker lives in a container carved out of
  // this one — "the connection demultiplexer controls resources granted to
  // each worker daemon through containers" (§6.4).
  CreateSpec wspec;
  wspec.container = s->kernel_->root_container();
  wspec.descrip = "web-workers";
  wspec.quota = 64 << 20;
  Result<ObjectId> pool = s->kernel_->sys_container_create(world->init_thread(), wspec, 0);
  if (!pool.ok()) {
    return nullptr;
  }
  s->workers_ct_ = pool.value();

  // The worker program: args are [name, op, user, key, password, data];
  // response goes out fd 0 (the pipe the demux plumbed in).
  AuthSystem* auth_raw = auth;
  UserStore* store_raw = store;
  world->procs().RegisterProgram("web-worker", [auth_raw, store_raw](ProcessContext& ctx)
                                                   -> int64_t {
    WebRequest req;
    if (ctx.args.size() < 6) {
      return 1;
    }
    req.op = ctx.args[1] == "GET"   ? WebRequest::Op::kGet
             : ctx.args[1] == "PUT" ? WebRequest::Op::kPut
                                    : WebRequest::Op::kBad;
    req.user = ctx.args[2];
    req.key = ctx.args[3];
    req.password = ctx.args[4];
    req.data = ctx.args[5];
    std::string resp = ServeOne(ctx, auth_raw, store_raw, req);
    resp.push_back('\n');
    ctx.fds->Write(ctx.self, 0, resp.data(), resp.size());
    return 0;
  });

  Result<uint64_t> ls = net->Listen(s->self_, port);
  if (!ls.ok()) {
    return nullptr;
  }
  s->listen_sock_ = ls.value();
  s->running_.store(true);
  WebServer* raw = s.get();
  s->host_ = RunOnHostThread(s->kernel_, s->self_, [raw]() { raw->AcceptLoop(); });
  return s;
}

WebServer::~WebServer() { Stop(); }

void WebServer::Stop() {
  running_.store(false);
  if (host_.joinable()) {
    host_.join();
  }
}

void WebServer::AcceptLoop() {
  while (running_.load()) {
    Result<uint64_t> conn = net_->Accept(self_, listen_sock_, 100);
    if (!conn.ok()) {
      continue;
    }
    std::string resp = HandleConnection(conn.value());
    if (!resp.empty()) {
      // Count before replying: Send puts the bytes on the wire itself, so
      // the client can read the response before Send returns.
      served_.fetch_add(1);
      net_->Send(self_, conn.value(), resp.data(), resp.size());
    }
    net_->CloseSocket(self_, conn.value());
  }
}

std::string WebServer::HandleConnection(uint64_t conn) {
  // One LF-terminated request line.
  std::string line;
  char buf[512];
  while (line.find('\n') == std::string::npos && line.size() < 4096) {
    Result<uint64_t> n = net_->Recv(self_, conn, buf, sizeof(buf), 2000);
    if (!n.ok() || n.value() == 0) {
      break;
    }
    line.append(buf, n.value());
  }
  size_t eol = line.find('\n');
  if (eol == std::string::npos) {
    return "400 bad\n";
  }
  WebRequest req = ParseRequest(line.substr(0, eol));

  // A container just for this worker: its entire resource budget.
  CreateSpec cspec;
  cspec.container = workers_ct_;
  cspec.descrip = "worker";
  cspec.quota = kWorkerQuota;
  Result<ObjectId> area = kernel_->sys_container_create(self_, cspec, 0);
  if (!area.ok()) {
    return "503 overloaded\n";
  }

  ProcessContext& init_ctx = world_->init_context();
  FdTable pipe_fds(kernel_, init_ctx.ids, Label());
  Result<std::pair<int, int>> pipe = pipe_fds.CreatePipe(world_->init_thread());
  if (!pipe.ok()) {
    return "500 internal\n";
  }

  ProcessOpts popts;
  popts.proc_parent = area.value();
  popts.quota = kWorkerQuota / 2;
  // The admin's import grant: workers may move network data into storage.
  popts.extra_ownership = Label(Level::k1, {{net_->taint().i, Level::kStar}});
  popts.inherit_fds = {pipe_fds.Entry(pipe.value().second).value()};
  std::vector<std::string> args = {"web-worker",
                                   req.op == WebRequest::Op::kGet   ? "GET"
                                   : req.op == WebRequest::Op::kPut ? "PUT"
                                                                    : "BAD",
                                   req.user, req.key, req.password, req.data};
  Result<std::unique_ptr<ProcHandle>> worker =
      world_->procs().Spawn(init_ctx, "web-worker", args, popts);
  std::string resp;
  if (worker.ok()) {
    char rbuf[1024];
    while (resp.find('\n') == std::string::npos) {
      Result<uint64_t> n =
          pipe_fds.ReadTimeout(world_->init_thread(), pipe.value().first, rbuf, sizeof(rbuf),
                               5000);
      if (!n.ok() || n.value() == 0) {
        break;
      }
      resp.append(rbuf, n.value());
    }
    worker.value()->Wait(world_->init_thread(), 5000);
  }
  if (resp.empty()) {
    resp = "500 worker-failed\n";
  }
  pipe_fds.Close(world_->init_thread(), pipe.value().first);
  pipe_fds.Close(world_->init_thread(), pipe.value().second);
  // Revoke the worker's entire area — the demux's resource control needs no
  // cooperation from (or visibility into) the worker.
  kernel_->sys_container_unref(self_, ContainerEntry{workers_ct_, area.value()});
  return resp;
}

}  // namespace histar
