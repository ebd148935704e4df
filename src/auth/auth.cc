#include "src/auth/auth.h"

#include <cstring>


namespace histar {

namespace {

// Host-side registries: gate closures carry a registry id, standing in for
// the daemon state a real gate entry would reach through its address space.
Mutex g_log_mu;
std::map<uint64_t, LogService*> g_logs GUARDED_BY(g_log_mu);
uint64_t g_next_log_id GUARDED_BY(g_log_mu) = 1;

Mutex g_auth_mu;
std::map<uint64_t, AuthSystem*> g_auths GUARDED_BY(g_auth_mu);
uint64_t g_next_auth_id GUARDED_BY(g_auth_mu) = 1;

// Thread-local segment layout used by the auth protocol.
constexpr uint64_t kArgA = 0;     // generic args
constexpr uint64_t kArgB = 8;
constexpr uint64_t kArgC = 16;
constexpr uint64_t kArgX = 64;    // x category handoff (setup → mksession)
constexpr uint64_t kRespBase = 256;
constexpr uint64_t kNameLen = 512;  // [len][bytes] for names/passwords/log lines
constexpr uint64_t kNameBytes = 520;

// Computes the natural request label for crossing `gate`: the floor
// (L_T^J ⊔ L_G^J)^⋆ — keep your taint, take the gate's grant.
Label FloorLabel(Kernel* k, ObjectId self, ContainerEntry gate) {
  Label mine = k->sys_self_get_label(self).value();
  Result<Label> gl = k->sys_obj_get_label(self, gate);
  if (!gl.ok()) {
    return mine;
  }
  return Label::GateFloor(mine, gl.value());
}

// Writes a [len][bytes] string at `off` in the caller's local segment.
Status PutLocalString(Kernel* k, ObjectId self, uint64_t off, const std::string& s) {
  uint64_t len = s.size();
  Status st = k->sys_self_local_write(self, &len, off, 8);
  if (st != Status::kOk) {
    return st;
  }
  return k->sys_self_local_write(self, s.data(), off + 8, len);
}

std::string GetLocalString(Kernel* k, ObjectId self, uint64_t off) {
  uint64_t len = 0;
  k->sys_self_local_read(self, &len, off, 8);
  if (len > 256) {
    return "";
  }
  std::string s(len, '\0');
  k->sys_self_local_read(self, s.data(), off + 8, len);
  return s;
}

uint64_t GetLocalWord(Kernel* k, ObjectId self, uint64_t off) {
  uint64_t v = 0;
  k->sys_self_local_read(self, &v, off, 8);
  return v;
}

void PutLocalWord(Kernel* k, ObjectId self, uint64_t off, uint64_t v) {
  k->sys_self_local_write(self, &v, off, 8);
}

}  // namespace

// ---- LogService ---------------------------------------------------------------

void LogAppendEntry(GateCall& call) {
  LogService* log = nullptr;
  {
    MutexLock lock(&g_log_mu);
    auto it = g_logs.find(call.closure[0]);
    if (it == g_logs.end()) {
      return;
    }
    log = it->second;
  }
  std::string line = GetLocalString(call.kernel, call.thread, kNameLen);
  MutexLock lock(&log->mu_);
  log->lines_.push_back(line);  // append-only by construction
}

std::unique_ptr<LogService> LogService::Start(UnixWorld* world) {
  auto log = std::unique_ptr<LogService>(new LogService());
  log->world_ = world;
  Kernel* k = world->kernel();
  ObjectId boot = world->init_thread();
  log->logw_ = k->sys_cat_create(boot).value();
  CreateSpec cspec;
  cspec.container = k->root_container();
  cspec.label = Label();
  cspec.descrip = "log-svc";
  cspec.quota = 4 << 20;
  Result<ObjectId> ct = k->sys_container_create(boot, cspec, 0);
  if (!ct.ok()) {
    return nullptr;
  }
  log->container_ = ct.value();
  {
    MutexLock lock(&g_log_mu);
    log->registry_id_ = g_next_log_id++;
    g_logs[log->registry_id_] = log.get();
  }
  k->RegisterGateEntry("log.append", LogAppendEntry);
  CreateSpec gspec;
  gspec.container = log->container_;
  gspec.descrip = "log-gate";
  // Clearance {2}: tainted threads cannot log — the reason the grant gate
  // is separate from the check gate (§6.2).
  Result<ObjectId> gate = k->sys_gate_create(boot, gspec, Label(), Label(Level::k2),
                                             "log.append", {log->registry_id_});
  if (!gate.ok()) {
    return nullptr;
  }
  log->gate_ = gate.value();
  return log;
}

Status LogService::Append(ObjectId self, const std::string& line) {
  Kernel* k = world_->kernel();
  Status st = PutLocalString(k, self, kNameLen, line);
  if (st != Status::kOk) {
    return st;
  }
  ContainerEntry gate{container_, gate_};
  Label mine = k->sys_self_get_label(self).value();
  Label clear = k->sys_self_get_clearance(self).value();
  st = k->sys_gate_invoke(self, gate, FloorLabel(k, self, gate), clear, mine);
  if (st != Status::kOk) {
    return st;
  }
  k->sys_self_set_label(self, mine);
  return Status::kOk;
}

std::vector<std::string> LogService::Lines() const {
  MutexLock lock(&mu_);
  return lines_;
}

// ---- AuthSystem gate entries -----------------------------------------------------

namespace {

AuthSystem* FindAuth(uint64_t id) {
  MutexLock lock(&g_auth_mu);
  auto it = g_auths.find(id);
  return it == g_auths.end() ? nullptr : it->second;
}

}  // namespace

// Directory service (Figure 8): username → setup gate. Trusted only to
// return the right mapping.
void DirLookupEntry(GateCall& call) {
  AuthSystem* auth = FindAuth(call.closure[0]);
  if (auth == nullptr) {
    return;
  }
  Kernel* k = call.kernel;
  std::string name = GetLocalString(k, call.thread, kNameLen);
  MutexLock lock(&auth->mu_);
  auto it = auth->users_.find(name);
  if (it == auth->users_.end()) {
    PutLocalWord(k, call.thread, kRespBase, 0);
    return;
  }
  PutLocalWord(k, call.thread, kRespBase, it->second.auth_ct);
  PutLocalWord(k, call.thread, kRespBase + 8, it->second.setup_gate);
  PutLocalWord(k, call.thread, kRespBase + 16, call.closure[1]);  // unused
}

// The user's setup gate (Figure 9 step 2). Runs with ur*/uw* (gate grant)
// and the caller's sw* — but, crucially, without pir3 clearance.
void SetupGateEntry(GateCall& call) {
  AuthSystem* auth = FindAuth(call.closure[0]);
  if (auth == nullptr) {
    return;
  }
  Kernel* k = call.kernel;
  ObjectId self = call.thread;
  ObjectId session_ct = GetLocalWord(k, self, kArgA);
  ObjectId mksession_gate = GetLocalWord(k, self, kArgB);
  std::string username;
  {
    MutexLock lock(&auth->mu_);
    for (auto& [name, rec] : auth->users_) {
      if (rec.setup_gate == call.gate.object) {
        username = name;
      }
    }
  }
  auth->log_->Append(self, "auth attempt: " + username);

  // Allocate the session's grant category x and hand it to the trusted
  // combined-privilege code via the local segment.
  CategoryId x = k->sys_cat_create(self).value();
  PutLocalWord(k, self, kArgX, x);

  // Create the retry-count segment and the check gate through the mutually
  // trusted code (Figure 10's combination of pir3 clearance and uw*). The
  // pir category is published in the gate's closure; requesting pir3 in the
  // crossing clearance is permitted because C_R ⊑ C_T ⊔ C_G and the
  // mksession gate's clearance carries {pir3, 2}.
  ContainerEntry mk{session_ct, mksession_gate};
  Result<std::vector<uint64_t>> mk_closure = k->sys_gate_get_closure(self, mk);
  if (!mk_closure.ok() || mk_closure.value().size() < 4) {
    return;
  }
  CategoryId pir = mk_closure.value()[3];
  Label mine = k->sys_self_get_label(self).value();
  Label clear = k->sys_self_get_clearance(self).value();
  Label request = FloorLabel(k, self, mk);
  Label want_clear = clear;
  want_clear.set(pir, Level::k3);
  Status st = k->sys_gate_invoke(self, mk, request, want_clear, mine);
  if (st != Status::kOk) {
    return;  // combined creation failed; login will see missing gate ids
  }
  ObjectId check_gate = GetLocalWord(k, self, kRespBase + 32);

  // The grant gate: label {ur*, uw*, 1}, clearance {x0, ur3, uw3, 2} — only
  // x owners may invoke; the clearance headroom in ur/uw is raised by the
  // grantee itself afterwards (owners may raise their own clearance).
  UnixUser user;
  {
    MutexLock lock(&auth->mu_);
    user = auth->users_[username].user;
  }
  // The gate's label must own x so L_G ⊑ C_G holds with the {x0, 2}
  // clearance guard — the same pattern as the paper's signal gate, whose
  // label carries the guarding category's ⋆.
  Label grant_label(Level::k1, {{user.ur, Level::kStar},
                                {user.uw, Level::kStar},
                                {x, Level::kStar}});
  Label grant_clear(Level::k2, {{x, Level::k0}});
  CreateSpec gspec;
  gspec.container = session_ct;
  gspec.descrip = "grant-gate";
  Result<ObjectId> grant =
      k->sys_gate_create(self, gspec, grant_label, grant_clear, "auth.grant",
                         {call.closure[0], call.closure[1]});
  PutLocalWord(k, self, kRespBase + 40, grant.ok() ? grant.value() : 0);
  PutLocalWord(k, self, kRespBase + 48, check_gate);

  // Strip the user's privileges and x before returning control to login:
  // login must not own anything it has not authenticated for.
  Label out = k->sys_self_get_label(self).value();
  out.set(user.ur, Level::k1);
  out.set(user.uw, Level::k1);
  out.set(x, Level::k1);
  k->sys_self_set_label(self, out);
}

// The mutually-trusted combined-privilege code (Figure 10): creates the
// retry-count segment {pir3, uw0, 1} and the check gate, then drops the
// borrowed pir3 clearance before returning. 30 lines of assembly in the
// paper; a function whose name both parties agreed on here.
void MkRetryEntry(GateCall& call) {
  AuthSystem* auth = FindAuth(call.closure[0]);
  if (auth == nullptr) {
    return;
  }
  Kernel* k = call.kernel;
  ObjectId self = call.thread;
  uint64_t uid = call.closure[1];
  ObjectId session_ct = call.closure[2];
  CategoryId pir = call.closure[3];
  CategoryId x = GetLocalWord(k, self, kArgX);

  UnixUser user;
  {
    MutexLock lock(&auth->mu_);
    for (auto& [name, rec] : auth->users_) {
      if (rec.uid == uid) {
        user = rec.user;
      }
    }
  }
  // Retry-count segment: {pir3, uw0, 1}. Zero-filled at creation — the
  // count of used attempts starts at 0, so no post-create write (which
  // would require pir3 *taint*) is needed.
  Label retry_label(Level::k1, {{pir, Level::k3}, {user.uw, Level::k0}});
  CreateSpec rspec;
  rspec.container = session_ct;
  rspec.label = retry_label;
  rspec.descrip = "retry-count";
  rspec.quota = kObjectOverheadBytes + kPageSize;
  Result<ObjectId> retry = k->sys_segment_create(self, rspec, 16);
  if (!retry.ok()) {
    return;
  }
  // Check gate: grants ur*/uw*/x* to the (pir3-tainted) password checker;
  // clearance {pir3, 2} admits tainted callers.
  Label check_label(Level::k1, {{user.ur, Level::kStar},
                                {user.uw, Level::kStar},
                                {x, Level::kStar}});
  Label check_clear(Level::k2, {{pir, Level::k3}});
  CreateSpec cspec;
  cspec.container = session_ct;
  cspec.descrip = "check-gate";
  Result<ObjectId> check =
      k->sys_gate_create(self, cspec, check_label, check_clear, "auth.check",
                         {call.closure[0], uid, retry.value(), session_ct, x});
  PutLocalWord(k, self, kRespBase + 32, check.ok() ? check.value() : 0);

  // Drop the borrowed pir3 clearance so it cannot outlive this function —
  // the precise promise the "agreed-upon code" makes to login.
  Label drop = k->sys_self_get_clearance(self).value();
  drop.set(pir, Level::k2);
  k->sys_self_set_clearance(self, drop);
}

// The password checker (Figure 9 step 3). Runs pir3-tainted: it can read the
// password but cannot convey it anywhere untainted — not even to the log.
void CheckGateEntry(GateCall& call) {
  AuthSystem* auth = FindAuth(call.closure[0]);
  if (auth == nullptr) {
    return;
  }
  Kernel* k = call.kernel;
  ObjectId self = call.thread;
  uint64_t uid = call.closure[1];
  ObjectId retry_seg = call.closure[2];
  ObjectId session_ct = call.closure[3];
  CategoryId x = call.closure[4];

  UnixUser user;
  ObjectId auth_ct = kInvalidObject;
  ObjectId pwhash_seg = kInvalidObject;
  {
    MutexLock lock(&auth->mu_);
    for (auto& [name, rec] : auth->users_) {
      if (rec.uid == uid) {
        user = rec.user;
        auth_ct = rec.auth_ct;
        pwhash_seg = rec.pwhash_seg;
      }
    }
  }
  bool ok = false;
  // Retry bound: per logged setup invocation (the retry segment is fresh
  // per session), at most kRetryLimit guesses.
  ContainerEntry retry{session_ct, retry_seg};
  uint64_t used = 0;
  if (k->sys_segment_read(self, retry, &used, 0, 8) == Status::kOk &&
      used < static_cast<uint64_t>(AuthSystem::kRetryLimit)) {
    uint64_t next = used + 1;
    k->sys_segment_write(self, retry, &next, 0, 8);
    std::string password = GetLocalString(k, self, kNameLen);
    uint64_t want = 0;
    if (k->sys_segment_read(self, ContainerEntry{auth_ct, pwhash_seg}, &want, 0, 8) ==
        Status::kOk) {
      ok = AuthSystem::HashPassword(password) == want;
    }
  }
  // Strip the user's categories always, and x unless the password matched:
  // x-ownership is the single bit that leaves this function.
  Label out = k->sys_self_get_label(self).value();
  out.set(user.ur, Level::k1);
  out.set(user.uw, Level::k1);
  if (!ok) {
    out.set(x, Level::k1);
  }
  k->sys_self_set_label(self, out);

  // Return through login's return gate, which launders the pir taint (login
  // owns pir; the gate carries its pre-check label).
  ObjectId return_gate = GetLocalWord(k, self, kArgC);
  ContainerEntry rg{session_ct, return_gate};
  Label mine = k->sys_self_get_label(self).value();
  Label clear = k->sys_self_get_clearance(self).value();
  k->sys_gate_invoke(self, rg, FloorLabel(k, self, rg), clear, mine);
}

// Login's return gate: the crossing itself restores privilege; no code runs.
void ReturnGateEntry(GateCall&) {}

// The grant gate (Figure 9 step 4): clearance {x0, 2} admits only x owners;
// the gate's label carries ur*/uw*. Logs the success — possible precisely
// because this code is not tainted.
void GrantGateEntry(GateCall& call) {
  AuthSystem* auth = FindAuth(call.closure[0]);
  if (auth == nullptr) {
    return;
  }
  uint64_t uid = call.closure[1];
  std::string username;
  {
    MutexLock lock(&auth->mu_);
    for (auto& [name, rec] : auth->users_) {
      if (rec.uid == uid) {
        username = name;
      }
    }
  }
  auth->log_->Append(call.thread, "auth success: " + username);
}

// ---- AuthSystem ----------------------------------------------------------------

uint64_t AuthSystem::HashPassword(const std::string& password) {
  // FNV-1a; the paper's point is that even the *hash* stays in the user's
  // service and the cleartext stays tainted — not hash strength.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : password) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::unique_ptr<AuthSystem> AuthSystem::Start(UnixWorld* world, LogService* log) {
  auto auth = std::unique_ptr<AuthSystem>(new AuthSystem());
  auth->world_ = world;
  auth->kernel_ = world->kernel();
  auth->log_ = log;
  Kernel* k = auth->kernel_;
  ObjectId boot = world->init_thread();
  {
    MutexLock lock(&g_auth_mu);
    auth->registry_id_ = g_next_auth_id++;
    g_auths[auth->registry_id_] = auth.get();
  }
  k->RegisterGateEntry("auth.dir", DirLookupEntry);
  k->RegisterGateEntry("auth.setup", SetupGateEntry);
  k->RegisterGateEntry("auth.check", CheckGateEntry);
  k->RegisterGateEntry("auth.grant", GrantGateEntry);
  k->RegisterGateEntry("auth.mksession", MkRetryEntry);
  k->RegisterGateEntry("auth.return", ReturnGateEntry);

  CreateSpec cspec;
  cspec.container = k->root_container();
  cspec.label = Label();
  cspec.descrip = "auth-dir";
  cspec.quota = 16 << 20;
  Result<ObjectId> ct = k->sys_container_create(boot, cspec, 0);
  if (!ct.ok()) {
    return nullptr;
  }
  auth->dir_ct = ct.value();
  CreateSpec gspec;
  gspec.container = auth->dir_ct;
  gspec.descrip = "dir-gate";
  Result<ObjectId> gate = k->sys_gate_create(boot, gspec, Label(), Label(Level::k2),
                                             "auth.dir", {auth->registry_id_, 0});
  if (!gate.ok()) {
    return nullptr;
  }
  auth->dir_gate_ = gate.value();
  return auth;
}

Result<UnixUser> AuthSystem::AddUser(const std::string& name, const std::string& password) {
  Kernel* k = kernel_;
  ObjectId boot = world_->init_thread();
  Result<UnixUser> user = world_->AddUser(name);
  if (!user.ok()) {
    return user.status();
  }
  UserRecord rec;
  rec.user = user.value();
  // The per-user authentication service's container.
  CreateSpec cspec;
  cspec.container = k->root_container();
  cspec.label = Label();
  cspec.descrip = "auth-" + name;
  cspec.quota = 8 << 20;
  Result<ObjectId> ct = k->sys_container_create(boot, cspec, 0);
  if (!ct.ok()) {
    return ct.status();
  }
  rec.auth_ct = ct.value();
  // Password hash: {ur3, uw0, 1} — even a compromised service reveals only
  // the hash, never the cleartext.
  Label pw_label(Level::k1, {{rec.user.ur, Level::k3}, {rec.user.uw, Level::k0}});
  CreateSpec pspec;
  pspec.container = rec.auth_ct;
  pspec.label = pw_label;
  pspec.descrip = "pwhash";
  pspec.quota = kObjectOverheadBytes + kPageSize;
  Result<ObjectId> pw = k->sys_segment_create(boot, pspec, 16);
  if (!pw.ok()) {
    return pw.status();
  }
  rec.pwhash_seg = pw.value();
  uint64_t hash = HashPassword(password);
  Status st = k->sys_segment_write(boot, ContainerEntry{rec.auth_ct, rec.pwhash_seg}, &hash, 0,
                                   8);
  if (st != Status::kOk) {
    return st;
  }
  // The setup gate: the published doorway to this user's service.
  static std::atomic<uint64_t> next_uid{1};
  rec.uid = next_uid.fetch_add(1);
  Label setup_label(Level::k1, {{rec.user.ur, Level::kStar}, {rec.user.uw, Level::kStar}});
  CreateSpec gspec;
  gspec.container = rec.auth_ct;
  gspec.descrip = "setup-gate";
  Result<ObjectId> gate = k->sys_gate_create(boot, gspec, setup_label, Label(Level::k2),
                                             "auth.setup", {registry_id_, rec.uid});
  if (!gate.ok()) {
    return gate.status();
  }
  rec.setup_gate = gate.value();
  MutexLock lock(&mu_);
  users_[name] = rec;
  return rec.user;
}

Result<ContainerEntry> AuthSystem::LookupSetupGate(ObjectId self, const std::string& username) {
  Kernel* k = kernel_;
  Status st = PutLocalString(k, self, kNameLen, username);
  if (st != Status::kOk) {
    return st;
  }
  ContainerEntry gate{dir_ct, dir_gate_};
  Label mine = k->sys_self_get_label(self).value();
  Label clear = k->sys_self_get_clearance(self).value();
  st = k->sys_gate_invoke(self, gate, FloorLabel(k, self, gate), clear, mine);
  if (st != Status::kOk) {
    return st;
  }
  k->sys_self_set_label(self, mine);
  ObjectId ct = GetLocalWord(k, self, kRespBase);
  ObjectId sg = GetLocalWord(k, self, kRespBase + 8);
  if (ct == kInvalidObject) {
    return Status::kNotFound;
  }
  return ContainerEntry{ct, sg};
}

Result<LoginResult> AuthSystem::Login(ObjectId self, const std::string& username,
                                      const std::string& password) {
  Kernel* k = kernel_;
  // Step 1: directory lookup.
  Result<ContainerEntry> setup = LookupSetupGate(self, username);
  if (!setup.ok()) {
    return setup.status();
  }
  uint64_t uid;
  {
    MutexLock lock(&mu_);
    auto it = users_.find(username);
    if (it == users_.end()) {
      return Status::kNotFound;
    }
    uid = it->second.uid;
  }

  // Step 2 preparation: pir protects the password, sw the session.
  Label original = k->sys_self_get_label(self).value();
  Label original_clear = k->sys_self_get_clearance(self).value();
  CategoryId pir = k->sys_cat_create(self).value();
  CategoryId sw = k->sys_cat_create(self).value();
  Label session_label(Level::k1, {{sw, Level::k0}});
  CreateSpec sspec;
  sspec.container = k->root_container();
  sspec.label = session_label;
  sspec.descrip = "login-session";
  sspec.quota = 4 << 20;
  Result<ObjectId> session = k->sys_container_create(self, sspec, 0);
  if (!session.ok()) {
    return session.status();
  }

  // Return gate: carries login's post-allocation label (pir*, sw*, …); the
  // tainted checker escapes through it. Guarded so only this session's
  // check code (which holds sw*) may invoke it.
  Label rg_label = k->sys_self_get_label(self).value();
  Label rg_clear(Level::k2, {{sw, Level::k0}, {pir, Level::k3}});
  CreateSpec rgspec;
  rgspec.container = session.value();
  rgspec.descrip = "return-gate";
  Result<ObjectId> rgate =
      k->sys_gate_create(self, rgspec, rg_label, rg_clear, "auth.return", {});
  if (!rgate.ok()) {
    return rgate.status();
  }

  // The mutually-trusted code gate, clearance {pir3, 2} (Figure 10): its
  // entry is library code both parties can verify (immutable by
  // construction in the simulator).
  Label mk_clear(Level::k2, {{pir, Level::k3}});
  CreateSpec mkspec;
  mkspec.container = session.value();
  mkspec.descrip = "mksession-gate";
  Result<ObjectId> mkgate =
      k->sys_gate_create(self, mkspec, Label(), mk_clear, "auth.mksession",
                         {registry_id_, uid, session.value(), pir});
  if (!mkgate.ok()) {
    return mkgate.status();
  }

  // Step 2: invoke the setup gate, granting sw* but dropping pir ownership
  // (and pointedly not passing pir3 clearance).
  PutLocalWord(k, self, kArgA, session.value());
  PutLocalWord(k, self, kArgB, mkgate.value());
  Label setup_request = FloorLabel(k, self, setup.value());
  setup_request.set(pir, Level::k1);  // the user's code gets no pir power
  Label setup_clear = original_clear;
  setup_clear.set(sw, Level::k3);
  Status st = k->sys_gate_invoke(self, setup.value(), setup_request, setup_clear,
                                 k->sys_self_get_label(self).value());
  if (st != Status::kOk) {
    return st;
  }
  ObjectId grant_gate = GetLocalWord(k, self, kRespBase + 40);
  ObjectId check_gate = GetLocalWord(k, self, kRespBase + 48);
  if (grant_gate == 0 || check_gate == 0) {
    return Status::kNoPerm;
  }

  // Return through our own return gate to restore pir⋆ and the pir3
  // clearance headroom the setup call deliberately went without (in the
  // real system every gate call pairs with a return gate; Figure 7).
  ContainerEntry rg{session.value(), rgate.value()};
  Label post_setup_clear = k->sys_self_get_clearance(self).value();
  post_setup_clear.set(pir, Level::k3);
  st = k->sys_gate_invoke(self, rg, FloorLabel(k, self, rg), post_setup_clear,
                          k->sys_self_get_label(self).value());
  if (st != Status::kOk) {
    return st;
  }

  // Step 3: taint pir3 and check the password.
  Label tainted = k->sys_self_get_label(self).value();
  tainted.set(pir, Level::k3);
  st = k->sys_self_set_label(self, tainted);
  if (st != Status::kOk) {
    return st;
  }
  st = PutLocalString(k, self, kNameLen, password);
  if (st != Status::kOk) {
    return st;
  }
  PutLocalWord(k, self, kArgC, rgate.value());
  ContainerEntry check{session.value(), check_gate};
  Label check_clear = k->sys_self_get_clearance(self).value();
  st = k->sys_gate_invoke(self, check, FloorLabel(k, self, check), check_clear,
                          k->sys_self_get_label(self).value());
  if (st != Status::kOk) {
    return st;
  }

  // Step 4: if we own x now, the grant gate admits us.
  ContainerEntry grant{session.value(), grant_gate};
  Label grant_clear = k->sys_self_get_clearance(self).value();
  st = k->sys_gate_invoke(self, grant, FloorLabel(k, self, grant), grant_clear,
                          k->sys_self_get_label(self).value());
  LoginResult result;
  if (st == Status::kOk) {
    result.authenticated = true;
    MutexLock lock(&mu_);
    result.ur = users_[username].user.ur;
    result.uw = users_[username].user.uw;
  }

  // Clean up the thread's label and clearance: keep ur*/uw* (if granted)
  // with clearance headroom in them (owners may raise it), and shed the
  // protocol categories pir, sw and x from both. Dropping ⋆ is a raise and
  // lowering the clearance back to where it started is always allowed, so
  // this one batch always succeeds; label first, so the clearance check sees
  // the ownership it keeps.
  Label cleaned = original;
  Label cleaned_clear = original_clear;
  if (result.authenticated) {
    cleaned.set(result.ur, Level::kStar);
    cleaned.set(result.uw, Level::kStar);
    cleaned_clear.set(result.ur, Level::k3);
    cleaned_clear.set(result.uw, Level::k3);
  }
  SyscallReq reqs[2] = {SyscallReq{SelfSetLabelReq{std::move(cleaned)}},
                        SyscallReq{SelfSetClearanceReq{std::move(cleaned_clear)}}};
  SyscallRes res[2];
  k->SubmitBatch(self, reqs, res);
  // Tear down the session (resource hygiene; the root-writable login can).
  k->sys_container_unref(self, ContainerEntry{k->root_container(), session.value()});
  return result;
}

}  // namespace histar
