// VPN isolation tests (paper §6.3, Figure 11): two networks, two taints,
// end-to-end tunneling, and the impossibility of cross-network flows except
// through the category owners.
#include "src/net/vpn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace histar {
namespace {

// ThreadSanitizer slows each of the syscalls of a tunnel exchange many
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

class VpnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inet_switch_ = std::make_unique<NetSwitch>();
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    inet_ = NetDaemon::Start(world_.get(), inet_switch_->NewPort(), "netd-inet");
    ASSERT_NE(inet_, nullptr);

    // The remote gateway: an ordinary i2-tainted client of a *second* NIC
    // on the Internet switch — a different machine in spirit.
    gw_stack_ = NetDaemon::Start(world_.get(), inet_switch_->NewPort(), "netd-gw",
                                 nullptr);
    ASSERT_NE(gw_stack_, nullptr);
    gw_client_ = MakeClient(gw_stack_.get(), "gateway");
    gateway_ = std::make_unique<VpnGatewaySim>(gw_stack_.get(), kernel_.get(), gw_client_,
                                               1194, 0x5a);

    vpn_ = VpnDaemon::Start(world_.get(), inet_.get(), gw_stack_->mac(), 1194, 0x5a);
    ASSERT_NE(vpn_, nullptr);
  }

  void TearDown() override {
    vpn_->Stop();
    gateway_->Stop();
    gw_stack_->Stop();
    inet_->Stop();
    CurrentThread::Set(kInvalidObject);
  }

  ObjectId MakeClient(NetDaemon* d, const std::string& name) {
    Label l = d->ClientTaint();
    Label c(Level::k2, {{d->taint().i, Level::k3}});
    return kernel_->BootstrapThread(l, c, name);
  }

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

  std::unique_ptr<NetSwitch> inet_switch_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  std::unique_ptr<NetDaemon> inet_;
  std::unique_ptr<NetDaemon> gw_stack_;
  ObjectId gw_client_ = kInvalidObject;
  std::unique_ptr<VpnGatewaySim> gateway_;
  std::unique_ptr<VpnDaemon> vpn_;
};

TEST_F(VpnTest, EchoThroughTheTunnel) {
  // A v2-tainted app on the VPN side reaches the echo service on the far
  // network: app → vpn stack → tun → vpnd (encrypt) → Internet → gateway →
  // and all the way back.
  ObjectId app = MakeClient(vpn_->vpn_stack(), "vpn-app");
  CurrentThread bind(app);
  Result<uint64_t> conn =
      vpn_->vpn_stack()->Connect(app, gateway_->remote_host_mac(), 7);
  ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
  const char msg[] = "ping over the vpn";
  ASSERT_TRUE(vpn_->vpn_stack()->Send(app, conn.value(), msg, sizeof(msg)).ok());
  char buf[64] = {};
  uint64_t got = 0;
  while (got < sizeof(msg)) {
    Result<uint64_t> n =
        vpn_->vpn_stack()->Recv(app, conn.value(), buf + got, sizeof(buf) - got, 10000);
    ASSERT_TRUE(n.ok()) << StatusName(n.status());
    got += n.value();
  }
  EXPECT_STREQ(buf, msg);
  EXPECT_GT(vpn_->frames_out(), 0u);
  EXPECT_GT(vpn_->frames_in(), 0u);
  EXPECT_GT(gateway_->frames_tunneled(), 0u);
}

// vpnd gives each direction its own thread, blocked on its own source, so
// a frame waits neither for a tun poll nor for a Recv slice on the tunnel
// socket. Each exchange starts after a 1 ms pause, with every daemon thread
// asleep, as a request of an interactive protocol would.
TEST_F(VpnTest, TunnelExchangesDoNotWaitForAPollTimer) {
  NetDaemon* stack = vpn_->vpn_stack();
  ObjectId app = MakeClient(stack, "vpn-app");
  CurrentThread bind(app);
  constexpr int kExchanges = 40;
  constexpr size_t kMsg = 64;
  Result<uint64_t> conn = stack->Connect(app, gateway_->remote_host_mac(), 7);
  ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
  std::vector<double> ms;
  for (int i = 0; i < kExchanges; ++i) {
    uint8_t req[kMsg];
    uint8_t resp[kMsg] = {};
    for (size_t k = 0; k < kMsg; ++k) {
      req[k] = static_cast<uint8_t>(i * 31 + k);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(stack->Send(app, conn.value(), req, kMsg).ok()) << "exchange " << i;
    ASSERT_TRUE(RecvAll(stack, app, conn.value(), resp, kMsg)) << "exchange " << i;
    ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
    ASSERT_EQ(memcmp(req, resp, kMsg), 0) << "exchange " << i;
  }
  std::nth_element(ms.begin(), ms.begin() + kExchanges / 2, ms.end());
  if (kTimedBuild) {
    EXPECT_LT(ms[kExchanges / 2], 2.0) << "median 64 B tunnel exchange, ms";
  }
}

TEST_F(VpnTest, VpnTaintedAppCannotUseInternetStack) {
  // Figure 11's whole point: v2 cannot flow to the Internet. The VPN app's
  // taint blocks the Internet ctl gate, the Internet socket segments, and
  // the Internet device itself.
  Label l = vpn_->vpn_stack()->ClientTaint();     // {v2, 1}
  l = l.Join(inet_->ClientTaint());               // even {i2, v2, 1} stays blocked
  Label c(Level::k2, {{vpn_->v(), Level::k3}, {inet_->taint().i, Level::k3}});
  ObjectId app = kernel_->BootstrapThread(l, c, "vpn-app");
  CurrentThread bind(app);
  // Socket setup on the Internet stack fails (cannot write netd's {i2}
  // containers with a v2 taint).
  EXPECT_FALSE(inet_->Listen(app, 5555).ok());
  // Raw device transmit fails.
  ContainerEntry dev{kernel_->root_container(), inet_->device()};
  EXPECT_EQ(kernel_->sys_net_transmit(app, dev, dev, 0, 0), Status::kLabelCheckFailed);
}

TEST_F(VpnTest, InternetTaintedAppCannotTouchVpn) {
  ObjectId app = MakeClient(inet_.get(), "inet-app");
  CurrentThread bind(app);
  // The VPN stack's sockets are {v2, 1}; i2 ⋢ v-access and the ctl gate's
  // process containers carry v2.
  EXPECT_FALSE(vpn_->vpn_stack()->Listen(app, 4444).ok());
}

TEST_F(VpnTest, VpnSocketDataCarriesVpnTaint) {
  ObjectId app = MakeClient(vpn_->vpn_stack(), "vpn-app");
  CurrentThread bind(app);
  Result<uint64_t> ls = vpn_->vpn_stack()->Listen(app, 2222);
  ASSERT_TRUE(ls.ok());
  Result<ContainerEntry> seg = vpn_->vpn_stack()->SocketSegment(ls.value());
  ASSERT_TRUE(seg.ok());
  Result<Label> l = kernel_->sys_obj_get_label(app, seg.value());
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.value().get(vpn_->v()), Level::k2);
  // An i2-only thread cannot read it.
  ObjectId inet_app = MakeClient(inet_.get(), "inet-app");
  char buf[8];
  EXPECT_EQ(kernel_->sys_segment_read(inet_app, seg.value(), buf, 0, 8),
            Status::kLabelCheckFailed);
}

TEST_F(VpnTest, TunnelBytesOnTheWireAreEncrypted) {
  // The inner frame must not appear in clear on the Internet. We check the
  // codec directly (the wire carries exactly these bytes).
  std::vector<uint8_t> inner = {'s', 'e', 'c', 'r', 'e', 't'};
  std::vector<uint8_t> rec;
  TunnelEncode(0x5a, inner, &rec);
  std::string wire(rec.begin(), rec.end());
  EXPECT_EQ(wire.find("secret"), std::string::npos);
  TunnelDecoder dec(0x5a);
  dec.Feed(rec.data(), rec.size());
  std::vector<uint8_t> out;
  ASSERT_TRUE(dec.Next(&out));
  EXPECT_EQ(out, inner);
  // Torn feeds reassemble.
  TunnelDecoder dec2(0x5a);
  dec2.Feed(rec.data(), 3);
  EXPECT_FALSE(dec2.Next(&out));
  dec2.Feed(rec.data() + 3, rec.size() - 3);
  ASSERT_TRUE(dec2.Next(&out));
  EXPECT_EQ(out, inner);
}

}  // namespace
}  // namespace histar
