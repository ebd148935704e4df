// Networking tests (paper §5.7): the untrusted stack, the i-taint on
// everything from the wire, and end-to-end stream transfer between two
// machines on the simulated switch.
#include "src/net/netd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace histar {
namespace {

// ThreadSanitizer slows each of the ~100 syscalls of a small exchange many
// times over, so wall-clock bounds hold only in uninstrumented builds.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTimedBuild = false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTimedBuild = false;
#else
constexpr bool kTimedBuild = true;
#endif
#else
constexpr bool kTimedBuild = true;
#endif

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<NetSwitch>();
    // Two "machines" sharing a kernel for test simplicity: two devices, two
    // stacks, one switch. Labels keep the stacks honest regardless.
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

  // Makes a client thread tainted i2 for the given stack.
  ObjectId MakeClient(NetDaemon* d, const std::string& name) {
    Label l = d->ClientTaint();
    Label c(Level::k2, {{d->taint().i, Level::k3}});
    return kernel_->BootstrapThread(l, c, name);
  }

  // Receives exactly `len` bytes; false on error, timeout or EOF.
  static bool RecvAll(NetDaemon* d, ObjectId self, uint64_t sock, uint8_t* buf, uint64_t len) {
    for (uint64_t got = 0; got < len;) {
      Result<uint64_t> n = d->Recv(self, sock, buf + got, len - got, 5000);
      if (!n.ok() || n.value() == 0) {
        return false;
      }
      got += n.value();
    }
    return true;
  }

  std::unique_ptr<NetSwitch> net_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  std::unique_ptr<NetDaemon> a_;
  std::unique_ptr<NetDaemon> b_;
};

TEST_F(NetTest, ConnectAcceptSendRecv) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");

  Result<uint64_t> ls = b_->Listen(server, 80);
  ASSERT_TRUE(ls.ok()) << StatusName(ls.status());

  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
    char buf[64] = {};
    Result<uint64_t> n = b_->Recv(server, conn.value(), buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok()) << StatusName(n.status());
    std::string got(buf, n.value());
    EXPECT_EQ(got, "GET /");
    const char resp[] = "hello from b";
    ASSERT_TRUE(b_->Send(server, conn.value(), resp, sizeof(resp)).ok());
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 80);
  ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
  const char req[] = {'G', 'E', 'T', ' ', '/'};
  ASSERT_TRUE(a_->Send(client, conn.value(), req, sizeof(req)).ok());
  char buf[64] = {};
  Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 5000);
  srv.join();
  ASSERT_TRUE(n.ok()) << StatusName(n.status());
  EXPECT_STREQ(buf, "hello from b");
}

TEST_F(NetTest, BulkTransferIsReliable) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  constexpr uint64_t kTotal = 1 << 20;  // 1 MB through 64 kB rings

  Result<uint64_t> ls = b_->Listen(server, 9000);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    std::vector<uint8_t> chunk(8192);
    uint64_t seen = 0;
    uint64_t checksum = 0;
    while (seen < kTotal) {
      Result<uint64_t> n = b_->Recv(server, conn.value(), chunk.data(), chunk.size(), 10000);
      ASSERT_TRUE(n.ok()) << StatusName(n.status());
      for (uint64_t i = 0; i < n.value(); ++i) {
        checksum += chunk[i];
      }
      seen += n.value();
    }
    EXPECT_EQ(seen, kTotal);
    // Every byte b[i] = i & 0xff; verify the aggregate.
    uint64_t want = 0;
    for (uint64_t i = 0; i < kTotal; ++i) {
      want += i & 0xff;
    }
    EXPECT_EQ(checksum, want);
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 9000);
  ASSERT_TRUE(conn.ok());
  std::vector<uint8_t> chunk(8192);
  uint64_t sent = 0;
  while (sent < kTotal) {
    uint64_t n = std::min<uint64_t>(chunk.size(), kTotal - sent);
    for (uint64_t i = 0; i < n; ++i) {
      chunk[i] = static_cast<uint8_t>((sent + i) & 0xff);
    }
    Result<uint64_t> w = a_->Send(client, conn.value(), chunk.data(), n);
    ASSERT_TRUE(w.ok()) << StatusName(w.status());
    sent += w.value();
  }
  srv.join();
}

TEST_F(NetTest, UntaintedThreadCannotReadSocketData) {
  // The central property: network payloads live in {i2, 1} segments, so a
  // thread that has not tainted itself i2 cannot observe them.
  ObjectId client = MakeClient(a_.get(), "client");
  CurrentThread bind(client);
  Result<uint64_t> ls = a_->Listen(client, 1234);
  ASSERT_TRUE(ls.ok());
  Result<ContainerEntry> seg = a_->SocketSegment(ls.value());
  ASSERT_TRUE(seg.ok());

  ObjectId plain = kernel_->BootstrapThread(Label(), Label(Level::k2), "plain");
  char buf[8];
  EXPECT_EQ(kernel_->sys_segment_read(plain, seg.value(), buf, 0, 8),
            Status::kLabelCheckFailed);
  // The i2-tainted client can.
  EXPECT_EQ(kernel_->sys_segment_read(client, seg.value(), buf, 0, 8), Status::kOk);
}

TEST_F(NetTest, UntaintedThreadCannotOpenSockets) {
  // Socket setup writes into netd's i2-tainted process container, which an
  // untainted thread cannot modify; the taint is mandatory, not advisory.
  ObjectId plain = kernel_->BootstrapThread(Label(), Label(Level::k2), "plain");
  CurrentThread bind(plain);
  Result<uint64_t> ls = a_->Listen(plain, 7);
  EXPECT_FALSE(ls.ok());
}

TEST_F(NetTest, ForeignTaintCannotTransmit) {
  // A thread tainted v3 in a category netd does not own can neither invoke
  // the ctl gate (clearance {2}) nor write the device — the §6.1 scanner
  // containment reduced to its essence.
  Result<CategoryId> v = kernel_->sys_cat_create(world_->init_thread());
  ASSERT_TRUE(v.ok());
  Label vl = a_->ClientTaint();
  vl.set(v.value(), Level::k3);
  Label vc(Level::k2, {{a_->taint().i, Level::k3}, {v.value(), Level::k3}});
  ObjectId tainted = kernel_->BootstrapThread(vl, vc, "v-tainted");
  CurrentThread bind(tainted);
  Result<uint64_t> ls = a_->Listen(tainted, 99);
  EXPECT_FALSE(ls.ok());
  // Direct device access fails too: the device is {nr3, nw0, i2, 1} and the
  // thread's v3 cannot flow into it.
  ObjectId seg = [&] {
    CreateSpec spec;
    spec.container = kernel_->root_container();
    spec.label = vl;
    spec.quota = 16 * kPageSize;
    spec.descrip = "payload";
    // Creating in root requires writing root — v3 taint forbids even that;
    // use a fresh tainted container off the root created by init.
    return kInvalidObject;
  }();
  (void)seg;
  ContainerEntry dev{kernel_->root_container(), a_->device()};
  // Even with a buffer it could read, transmitting requires modifying the
  // device: v3 ⋢ device label.
  EXPECT_EQ(kernel_->sys_net_transmit(tainted, dev, dev, 0, 0), Status::kLabelCheckFailed);
}

TEST_F(NetTest, CloseSignalsEof) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  Result<uint64_t> ls = b_->Listen(server, 81);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    ASSERT_EQ(b_->CloseSocket(server, conn.value()), Status::kOk);
  });
  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 81);
  ASSERT_TRUE(conn.ok());
  srv.join();
  char buf[8];
  Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 5000);
  ASSERT_TRUE(n.ok()) << StatusName(n.status());
  EXPECT_EQ(n.value(), 0u);  // EOF
}

TEST_F(NetTest, SwitchAccountsVirtualTime) {
  // 100 Mb/s line rate: bytes forwarded accrue simulated nanoseconds for
  // the Figure 13 wget experiment.
  net_->ResetSimTime();
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  Result<uint64_t> ls = b_->Listen(server, 82);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    char buf[4096];
    uint64_t seen = 0;
    while (seen < 100 * 1024) {
      Result<uint64_t> n = b_->Recv(server, conn.value(), buf, sizeof(buf), 5000);
      ASSERT_TRUE(n.ok());
      seen += n.value();
    }
  });
  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 82);
  ASSERT_TRUE(conn.ok());
  std::vector<uint8_t> chunk(4096, 9);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(a_->Send(client, conn.value(), chunk.data(), chunk.size()).ok());
  }
  srv.join();
  // ≥ 100 KiB at 100 Mb/s ≈ ≥ 8.4 simulated ms.
  EXPECT_GT(net_->sim_time_ns(), 8'000'000u);
}

// netd is event-driven: Send crosses the ctl gate and flushes its own bytes
// to the wire, and the receiving pump wakes for the frame, so a small
// exchange costs a few thread handoffs — not the pump's 5 ms device wait.
// Each exchange starts after a 1 ms pause, with both pumps asleep, as a
// request of an interactive protocol would.
TEST_F(NetTest, SmallExchangesDoNotWaitForThePumpTimer) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  constexpr int kExchanges = 50;
  constexpr size_t kMsg = 64;

  Result<uint64_t> ls = b_->Listen(server, 83);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    uint8_t msg[kMsg];
    for (int i = 0; i < kExchanges; ++i) {
      ASSERT_TRUE(RecvAll(b_.get(), server, conn.value(), msg, kMsg));
      for (uint8_t& c : msg) {
        c ^= 0x5a;
      }
      ASSERT_TRUE(b_->Send(server, conn.value(), msg, kMsg).ok());
    }
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 83);
  std::vector<double> ms;
  bool echoed = conn.ok();
  for (int i = 0; i < kExchanges && echoed; ++i) {
    uint8_t req[kMsg];
    uint8_t resp[kMsg];
    memset(req, i, kMsg);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto t0 = std::chrono::steady_clock::now();
    echoed = a_->Send(client, conn.value(), req, kMsg).ok() &&
             RecvAll(a_.get(), client, conn.value(), resp, kMsg);
    ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
    for (size_t k = 0; k < kMsg && echoed; ++k) {
      echoed = resp[k] == (req[k] ^ 0x5a);
    }
  }
  srv.join();
  ASSERT_TRUE(echoed);
  std::nth_element(ms.begin(), ms.begin() + kExchanges / 2, ms.end());
  if (kTimedBuild) {
    EXPECT_LT(ms[kExchanges / 2], 2.0) << "median 64 B exchange, ms";
  }
}

// 1 MB read through a 2 KB buffer: the 64 KB rx ring fills, netd stages the
// rest and flags it in the socket header, and each Recv that sees the flag
// refills the ring through the ctl gate — the pump does not poll for ring
// space.
TEST_F(NetTest, MegabyteThroughTwoKilobyteRecvBuffer) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  constexpr uint64_t kTotal = 1 << 20;
  std::vector<uint8_t> blob(kTotal);
  for (uint64_t i = 0; i < kTotal; ++i) {
    blob[i] = static_cast<uint8_t>(i * 131 + (i >> 11));
  }

  Result<uint64_t> ls = b_->Listen(server, 85);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    Result<uint64_t> w = b_->Send(server, conn.value(), blob.data(), blob.size());
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value(), kTotal);
    b_->CloseSocket(server, conn.value());
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 85);
  std::vector<uint8_t> got;
  Status last = conn.status();
  uint8_t buf[2048];
  while (conn.ok()) {
    Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 10000);
    last = n.status();
    if (!n.ok() || n.value() == 0) {
      break;  // error, or orderly EOF
    }
    got.insert(got.end(), buf, buf + n.value());
  }
  srv.join();
  ASSERT_EQ(last, Status::kOk) << StatusName(last);
  ASSERT_EQ(got.size(), kTotal);
  EXPECT_TRUE(got == blob);
}

// The flush op runs netd code on the caller's thread with the caller's taint
// joined in, so it launders nothing: a thread tainted x2 in a category netd
// does not own is admitted by the gate's clearance {2}, yet cannot send or
// close, and no frame reaches the wire.
TEST_F(NetTest, ForeignTaintPassesTheGateButMovesNoBytes) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  Result<uint64_t> ls = b_->Listen(server, 86);
  ASSERT_TRUE(ls.ok());
  uint8_t got[2] = {};
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(RecvAll(b_.get(), server, conn.value(), got, sizeof(got)));
  });
  Result<uint64_t> conn = [&] {
    CurrentThread bind(client);
    return a_->Connect(client, b_->mac(), 86);
  }();
  if (!conn.ok()) {
    srv.join();
    FAIL() << StatusName(conn.status());
  }

  Result<CategoryId> x = kernel_->sys_cat_create(world_->init_thread());
  Label xl = a_->ClientTaint();
  xl.set(x.value(), Level::k2);
  Label xc(Level::k2, {{a_->taint().i, Level::k3}, {x.value(), Level::k3}});
  ObjectId tainted = kernel_->BootstrapThread(xl, xc, "x-tainted");
  uint64_t frames = net_->frames_forwarded();
  {
    CurrentThread bind(tainted);
    // Socket 0 never exists: kAgain is the gate's own "no such socket"
    // answer, so the crossing itself was allowed (a v3 thread gets
    // kLabelCheckFailed here, see ForeignTaintCannotTransmit).
    EXPECT_EQ(a_->CloseSocket(tainted, 0), Status::kAgain);
    EXPECT_EQ(a_->Send(tainted, conn.value(), "xx", 2).status(), Status::kLabelCheckFailed);
    EXPECT_NE(a_->CloseSocket(tainted, conn.value()), Status::kOk);
  }
  EXPECT_EQ(net_->frames_forwarded(), frames);

  // The connection is untouched: the clean client still gets through.
  CurrentThread bind(client);
  EXPECT_TRUE(a_->Send(client, conn.value(), "ok", 2).ok());
  srv.join();
  EXPECT_EQ(got[0], 'o');
  EXPECT_EQ(got[1], 'k');
}

// A SYN that reaches a port before its Listen is dropped; Connect resends
// it until the listener answers, and the listener queues only one copy.
TEST_F(NetTest, ConnectBeforeListen) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  std::thread srv([&]() {
    CurrentThread bind(server);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Result<uint64_t> ls = b_->Listen(server, 84);
    ASSERT_TRUE(ls.ok());
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(b_->Send(server, conn.value(), "hi", 2).ok());
    EXPECT_FALSE(b_->Accept(server, ls.value(), 200).ok()) << "a resent SYN was queued twice";
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 84);
  uint8_t buf[2] = {};
  bool got = conn.ok() && RecvAll(a_.get(), client, conn.value(), buf, sizeof(buf));
  srv.join();
  ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
  ASSERT_TRUE(got);
  EXPECT_EQ(buf[0], 'h');
  EXPECT_EQ(buf[1], 'i');
}

}  // namespace
}  // namespace histar
