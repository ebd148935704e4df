// Stream-close ordering in netd: regressions for the two bugs that the
// paper's applications (ServeDbOnce-style send-then-close servers) flush
// out of any stream implementation.
//
//  1. Sender side: Close must drain the tx ring before emitting FIN, or the
//     FIN overtakes queued data on the wire.
//  2. Receiver side: a FIN that arrives while data still sits in the rx
//     staging queue must not surface EOF early.
#include <gtest/gtest.h>

#include <thread>

#include "src/net/netd.h"

namespace histar {
namespace {

class NetCloseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<NetSwitch>();
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    a_ = NetDaemon::Start(world_.get(), net_->NewPort(), "netd-a");
    b_ = NetDaemon::Start(world_.get(), net_->NewPort(), "netd-b");
    ASSERT_NE(a_, nullptr);
    ASSERT_NE(b_, nullptr);
  }
  void TearDown() override {
    a_->Stop();
    b_->Stop();
    CurrentThread::Set(kInvalidObject);
  }

  ObjectId MakeClient(NetDaemon* d, const std::string& name) {
    Label l = d->ClientTaint();
    Label c(Level::k2, {{d->taint().i, Level::k3}});
    return kernel_->BootstrapThread(l, c, name);
  }

  std::unique_ptr<NetSwitch> net_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  std::unique_ptr<NetDaemon> a_;
  std::unique_ptr<NetDaemon> b_;
};

// The ServeDbOnce pattern: send a blob, close immediately. The receiver
// must see every byte, then EOF.
TEST_F(NetCloseTest, SendThenImmediateCloseDeliversAllBytes) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  const std::string blob(4096, 'x');

  Result<uint64_t> ls = b_->Listen(server, 4242);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(b_->Send(server, conn.value(), blob.data(), blob.size()).ok());
    b_->CloseSocket(server, conn.value());  // no delay: FIN chases the data
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 4242);
  ASSERT_TRUE(conn.ok());
  std::string got;
  char buf[1024];
  for (;;) {
    Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok()) << StatusName(n.status());
    if (n.value() == 0) {
      break;  // orderly EOF
    }
    got.append(buf, n.value());
  }
  srv.join();
  EXPECT_EQ(got, blob);
}

// Same, but large enough that the blob spans many frames and several pump
// rounds — the FIN must stay behind all of them.
TEST_F(NetCloseTest, CloseBehindMultiFrameBurst) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  constexpr uint64_t kTotal = 200 * 1024;

  Result<uint64_t> ls = b_->Listen(server, 4243);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    std::vector<uint8_t> chunk(8192);
    uint64_t sent = 0;
    while (sent < kTotal) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<uint8_t>((sent + i) % 251);
      }
      uint64_t n = std::min<uint64_t>(chunk.size(), kTotal - sent);
      Result<uint64_t> w = b_->Send(server, conn.value(), chunk.data(), n);
      ASSERT_TRUE(w.ok());
      sent += w.value();
    }
    b_->CloseSocket(server, conn.value());
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 4243);
  ASSERT_TRUE(conn.ok());
  uint64_t received = 0;
  uint64_t errors = 0;
  char buf[8192];
  for (;;) {
    Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 10000);
    ASSERT_TRUE(n.ok());
    if (n.value() == 0) {
      break;
    }
    for (uint64_t i = 0; i < n.value(); ++i) {
      if (static_cast<uint8_t>(buf[i]) != static_cast<uint8_t>((received + i) % 251)) {
        ++errors;
      }
    }
    received += n.value();
  }
  srv.join();
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(errors, 0u);
}

// After EOF the socket stays at EOF (no phantom data), and sending on a
// locally closed socket fails.
TEST_F(NetCloseTest, EofIsStickyAndLocalCloseStopsSends) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");

  Result<uint64_t> ls = b_->Listen(server, 4244);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    b_->Send(server, conn.value(), "bye", 3);
    b_->CloseSocket(server, conn.value());
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 4244);
  ASSERT_TRUE(conn.ok());
  char buf[16];
  Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 5000);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  for (int i = 0; i < 3; ++i) {
    Result<uint64_t> eof = a_->Recv(client, conn.value(), buf, sizeof(buf), 1000);
    ASSERT_TRUE(eof.ok());
    EXPECT_EQ(eof.value(), 0u);
  }
  srv.join();
  ASSERT_EQ(a_->CloseSocket(client, conn.value()), Status::kOk);
  Result<uint64_t> w = a_->Send(client, conn.value(), "x", 1);
  EXPECT_FALSE(w.ok());
}

// A local close with the peer still open: the close op raises the local-
// closed flag, so a later Send fails instead of queueing bytes that will
// never leave, and the peer sees EOF.
TEST_F(NetCloseTest, LocalCloseWithPeerOpenStopsSends) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");

  Result<uint64_t> ls = b_->Listen(server, 4245);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    char buf[16];
    Result<uint64_t> n = b_->Recv(server, conn.value(), buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok()) << StatusName(n.status());
    EXPECT_EQ(n.value(), 0u);  // EOF; the server never closes its end
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 4245);
  Status closed = conn.ok() ? a_->CloseSocket(client, conn.value()) : conn.status();
  Result<uint64_t> w =
      conn.ok() ? a_->Send(client, conn.value(), "x", 1) : Result<uint64_t>(conn.status());
  srv.join();
  ASSERT_EQ(closed, Status::kOk) << StatusName(closed);
  EXPECT_FALSE(w.ok());
}

}  // namespace
}  // namespace histar
