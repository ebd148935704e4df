// User authentication without any highly-trusted process (paper §6.2,
// Figures 8–10).
//
// Four entities cooperate, none of which sees more than it must:
//  * the logging service — trusted only to keep an append-only log;
//  * the directory service — maps usernames to per-user setup gates;
//    trusted only to return the right gate;
//  * the per-user authentication service — owns ur/uw and grants them to
//    callers that prove knowledge of the password; never sees the password
//    in the clear beyond the tainted check step;
//  * the login client — owns the password; trusts nobody with it. Even a
//    malicious authentication service learns at most ONE BIT (success or
//    failure) about the password.
//
// The protocol (Figure 9):
//  1. login asks the directory for the user's setup gate;
//  2. login allocates pir (password read) and sw (session write), creates
//     the session container {sw0, 1}, and invokes the setup gate granting
//     sw⋆ — but withholding pir3 *clearance*, so the user's code cannot mint
//     long-lived pir3 objects. The setup code allocates x, builds the check
//     and grant gates in the session container, and creates the retry-count
//     segment {pir3, uw0, 1} through a mutually-trusted code gate that
//     momentarily combines login's pir3 clearance with the user's uw⋆
//     (Figure 10's two-party computation);
//  3. login invokes the check gate tainted pir3. The check code verifies
//     the password against the stored hash, bounded by the retry count; on
//     success it keeps x⋆ on the thread, on failure it sheds it; either way
//     it returns through login's return gate, which launders the pir taint
//     (login owns pir) — ownership of x is the single bit that leaks;
//  4. owning x, login invokes the grant gate (clearance {x0, 2}) and
//     receives ur⋆/uw⋆; the grant code logs the success — which is why it
//     must be a separate gate from the tainted check code, which cannot
//     talk to the logger.
#ifndef SRC_AUTH_AUTH_H_
#define SRC_AUTH_AUTH_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/sync.h"
#include "src/core/thread_annotations.h"
#include "src/unixlib/unix.h"

namespace histar {

// Append-only log (58 lines in the paper; not many more here).
class LogService {
 public:
  static std::unique_ptr<LogService> Start(UnixWorld* world);

  // Appends a line through the log gate (usable by any untainted thread).
  Status Append(ObjectId self, const std::string& line);
  // Test/introspection: the log contents (reading requires nothing — the
  // log is world-readable; only appends are gated).
  std::vector<std::string> Lines() const;
  ObjectId gate() const { return gate_; }

 private:
  friend void LogAppendEntry(GateCall& call);

  UnixWorld* world_ = nullptr;
  ObjectId container_ = kInvalidObject;
  ObjectId gate_ = kInvalidObject;
  CategoryId logw_ = kInvalidCategory;
  mutable Mutex mu_;
  std::vector<std::string> lines_ GUARDED_BY(mu_);
  uint64_t registry_id_ = 0;
};

// Outcome of a login: the labels the caller's thread ended up with.
struct LoginResult {
  bool authenticated = false;
  CategoryId ur = kInvalidCategory;
  CategoryId uw = kInvalidCategory;
};

// The per-user authentication daemon plus the directory that names it.
class AuthSystem {
 public:
  static std::unique_ptr<AuthSystem> Start(UnixWorld* world, LogService* log);

  // Registers a user: creates ur/uw (owned by the auth daemon's creator —
  // init, acting as the user at account-creation time), stores the password
  // hash {ur3, uw0, 1}, and publishes a setup gate in the directory.
  Result<UnixUser> AddUser(const std::string& name, const std::string& password);

  // The full Figure 9 sequence, run on the calling thread. On success the
  // thread's label gains ur⋆/uw⋆ and its clearance ur3/uw3; authenticated or
  // denied, nothing else is left of the categories the protocol mints (pir,
  // sw, x). At most one bit about the password ever reaches the user's code.
  Result<LoginResult> Login(ObjectId self, const std::string& username,
                            const std::string& password);

  // Directory lookup (step 1), exposed for tests.
  Result<ContainerEntry> LookupSetupGate(ObjectId self, const std::string& username);

  // Number of remaining retry tokens for a user's most recent session, for
  // tests of the guess bound.
  int retry_limit() const { return kRetryLimit; }

 private:
  friend void DirLookupEntry(GateCall& call);
  friend void SetupGateEntry(GateCall& call);
  friend void CheckGateEntry(GateCall& call);
  friend void GrantGateEntry(GateCall& call);
  friend void MkRetryEntry(GateCall& call);
  friend void ReturnGateEntry(GateCall& call);

  static constexpr int kRetryLimit = 5;

  struct UserRecord {
    UnixUser user;
    uint64_t uid = 0;                      // closure-friendly numeric id
    ObjectId auth_ct = kInvalidObject;     // the daemon's container
    ObjectId pwhash_seg = kInvalidObject;  // {ur3, uw0, 1}
    ObjectId setup_gate = kInvalidObject;
  };

  static uint64_t HashPassword(const std::string& password);

  UnixWorld* world_ = nullptr;
  Kernel* kernel_ = nullptr;
  LogService* log_ = nullptr;
  ObjectId dir_ct = kInvalidObject;      // directory service container
  ObjectId dir_gate_ = kInvalidObject;

  mutable Mutex mu_;
  std::map<std::string, UserRecord> users_ GUARDED_BY(mu_);
  uint64_t registry_id_ = 0;
};

}  // namespace histar

#endif  // SRC_AUTH_AUTH_H_
