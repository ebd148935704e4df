// Authentication tests (paper §6.2, Figures 8–10): the full login protocol,
// the one-bit leak property, retry bounding, and the defenses the paper
// walks through.
#include "src/auth/auth.h"

#include <gtest/gtest.h>

namespace histar {
namespace {

class AuthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    log_ = LogService::Start(world_.get());
    ASSERT_NE(log_, nullptr);
    auth_ = AuthSystem::Start(world_.get(), log_.get());
    ASSERT_NE(auth_, nullptr);
    Result<UnixUser> bob = auth_->AddUser("bob", "hunter2");
    ASSERT_TRUE(bob.ok()) << StatusName(bob.status());
    bob_ = bob.value();
  }
  void TearDown() override { CurrentThread::Set(kInvalidObject); }

  // A fresh unprivileged login thread (an sshd instance, say).
  ObjectId MakeLoginThread(const std::string& name = "login") {
    return kernel_->BootstrapThread(Label(), Label(Level::k2), name);
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  std::unique_ptr<LogService> log_;
  std::unique_ptr<AuthSystem> auth_;
  UnixUser bob_;
};

TEST_F(AuthTest, CorrectPasswordGrantsUserCategories) {
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  Result<LoginResult> r = auth_->Login(login, "bob", "hunter2");
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_TRUE(r.value().authenticated);
  Label l = kernel_->sys_self_get_label(login).value();
  EXPECT_EQ(l.get(bob_.ur), Level::kStar);
  EXPECT_EQ(l.get(bob_.uw), Level::kStar);
  // With the grant, bob's files open up.
  Result<ObjectId> f = world_->fs().Create(login, bob_.home, "diary", bob_.FileLabel());
  ASSERT_TRUE(f.ok()) << StatusName(f.status());
  const char msg[] = "dear diary";
  EXPECT_EQ(world_->fs().WriteAt(login, bob_.home, f.value(), msg, 0, sizeof(msg)),
            Status::kOk);
}

TEST_F(AuthTest, WrongPasswordGrantsNothing) {
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  Result<LoginResult> r = auth_->Login(login, "bob", "wrong-guess");
  ASSERT_TRUE(r.ok()) << StatusName(r.status());
  EXPECT_FALSE(r.value().authenticated);
  Label l = kernel_->sys_self_get_label(login).value();
  EXPECT_NE(l.get(bob_.ur), Level::kStar);
  EXPECT_NE(l.get(bob_.uw), Level::kStar);
  // Bob's home stays sealed.
  char buf[8];
  Result<std::vector<std::pair<std::string, ObjectId>>> list =
      world_->fs().ReadDir(login, bob_.home);
  EXPECT_FALSE(list.ok());
  (void)buf;
}

TEST_F(AuthTest, UnknownUserFailsCleanly) {
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  Result<LoginResult> r = auth_->Login(login, "mallory", "whatever");
  EXPECT_FALSE(r.ok());
}

TEST_F(AuthTest, LoginIsRepeatable) {
  // The protocol must not wedge the thread's label: failed then successful
  // logins on the same thread.
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  Result<LoginResult> bad = auth_->Login(login, "bob", "nope");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().authenticated);
  Result<LoginResult> good = auth_->Login(login, "bob", "hunter2");
  ASSERT_TRUE(good.ok()) << StatusName(good.status());
  EXPECT_TRUE(good.value().authenticated);
}

TEST_F(AuthTest, RepeatedLoginsLeaveLabelAndClearanceAsTheFirstDid) {
  // Login mints pir and sw (and the setup gate x) for one run of the
  // protocol and sheds all three from label and clearance alike. A denied
  // login leaves both as they were; an authenticated one adds exactly
  // ur⋆/uw⋆ and ur3/uw3, so later logins change nothing.
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  Label label = kernel_->sys_self_get_label(login).value();
  Label clearance = kernel_->sys_self_get_clearance(login).value();
  for (int i = 0; i < 3; ++i) {
    Result<LoginResult> bad = auth_->Login(login, "bob", "nope");
    ASSERT_TRUE(bad.ok()) << StatusName(bad.status());
    ASSERT_FALSE(bad.value().authenticated);
    Label now = kernel_->sys_self_get_label(login).value();
    Label now_clear = kernel_->sys_self_get_clearance(login).value();
    EXPECT_EQ(now, label) << "denied #" << i << ": " << now.ToString();
    EXPECT_EQ(now_clear, clearance) << "denied #" << i << ": " << now_clear.ToString();
  }
  label.set(bob_.ur, Level::kStar);
  label.set(bob_.uw, Level::kStar);
  clearance.set(bob_.ur, Level::k3);
  clearance.set(bob_.uw, Level::k3);
  for (int i = 0; i < 3; ++i) {
    Result<LoginResult> good = auth_->Login(login, "bob", "hunter2");
    ASSERT_TRUE(good.ok()) << StatusName(good.status());
    ASSERT_TRUE(good.value().authenticated);
    Label now = kernel_->sys_self_get_label(login).value();
    Label now_clear = kernel_->sys_self_get_clearance(login).value();
    EXPECT_EQ(now, label) << "authenticated #" << i << ": " << now.ToString();
    EXPECT_EQ(now_clear, clearance) << "authenticated #" << i << ": " << now_clear.ToString();
  }
}

TEST_F(AuthTest, BothAttemptsAndSuccessesAreLogged) {
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  ASSERT_TRUE(auth_->Login(login, "bob", "bad").ok());
  ASSERT_TRUE(auth_->Login(login, "bob", "hunter2").ok());
  std::vector<std::string> lines = log_->Lines();
  int attempts = 0;
  int successes = 0;
  for (const std::string& l : lines) {
    attempts += l.find("attempt: bob") != std::string::npos ? 1 : 0;
    successes += l.find("success: bob") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(successes, 1);  // the failed try logged an attempt, no success
}

TEST_F(AuthTest, MultipleUsersAreIndependent) {
  Result<UnixUser> alice = auth_->AddUser("alice", "xyzzy");
  ASSERT_TRUE(alice.ok());
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  Result<LoginResult> r = auth_->Login(login, "alice", "xyzzy");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().authenticated);
  Label l = kernel_->sys_self_get_label(login).value();
  EXPECT_EQ(l.get(alice.value().ur), Level::kStar);
  // Alice's login grants nothing of bob's.
  EXPECT_NE(l.get(bob_.ur), Level::kStar);
  EXPECT_NE(l.get(bob_.uw), Level::kStar);
}

TEST_F(AuthTest, PasswordHashUnreadableWithoutUserCategories) {
  // Even knowing where the hash lives, a login client cannot read it: the
  // segment is {ur3, uw0, 1} (§6.2: a compromised service reveals at most
  // the hash; an unauthenticated client sees nothing at all).
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  Result<ContainerEntry> setup = auth_->LookupSetupGate(login, "bob");
  ASSERT_TRUE(setup.ok());
  // Scan the auth container for segments; every read must fail.
  Result<std::vector<ObjectId>> kids = kernel_->sys_container_list(login,
                                                                   setup.value().container);
  ASSERT_TRUE(kids.ok());
  int segments_seen = 0;
  for (ObjectId id : kids.value()) {
    ContainerEntry ce{setup.value().container, id};
    Result<ObjectType> type = kernel_->sys_obj_get_type(login, ce);
    if (type.ok() && type.value() == ObjectType::kSegment) {
      ++segments_seen;
      char buf[8];
      EXPECT_EQ(kernel_->sys_segment_read(login, ce, buf, 0, 8), Status::kLabelCheckFailed);
    }
  }
  EXPECT_GT(segments_seen, 0);
}

TEST_F(AuthTest, RetryCountBoundsGuessing) {
  // §6.2: the retry-count segment bounds password guesses per logged setup
  // invocation. Guessing wrong more than the limit makes even the *right*
  // password fail within that session — but our Login() makes a session per
  // call, so emulate a guessing attacker by repeated fast failures and then
  // verify the per-session ceiling via the public limit.
  EXPECT_EQ(auth_->retry_limit(), 5);
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  for (int i = 0; i < 7; ++i) {
    Result<LoginResult> r = auth_->Login(login, "bob", "guess" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().authenticated);
  }
  // Every attempt was individually logged — the attacker cannot guess
  // without leaving an audit trail.
  int attempts = 0;
  for (const std::string& l : log_->Lines()) {
    attempts += l.find("attempt: bob") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(attempts, 7);
}

TEST_F(AuthTest, TaintedThreadCannotAppendToLog) {
  // The check gate cannot talk to the logger (§6.2): any pir3-ish taint is
  // stopped by the log gate's {2} clearance.
  Result<CategoryId> t = kernel_->sys_cat_create(world_->init_thread());
  ASSERT_TRUE(t.ok());
  Label tl(Level::k1, {{t.value(), Level::k3}});
  Label tc(Level::k2, {{t.value(), Level::k3}});
  ObjectId tainted = kernel_->BootstrapThread(tl, tc, "tainted");
  CurrentThread bind(tainted);
  EXPECT_NE(log_->Append(tainted, "I can see the password"), Status::kOk);
}

TEST_F(AuthTest, LogIsAppendOnlyViaGate) {
  ObjectId login = MakeLoginThread();
  CurrentThread bind(login);
  ASSERT_EQ(log_->Append(login, "hello log"), Status::kOk);
  std::vector<std::string> lines = log_->Lines();
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "hello log");
}

}  // namespace
}  // namespace histar
