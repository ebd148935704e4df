// VPN isolation (paper §6.3, Figure 11): one machine on two networks, with
// kernel-enforced separation between them.
//
//   $ ./examples/vpn_isolation
//
// The bootstrap taints everything from the Internet {i2, 1}; the VPN path
// taints with v. Only vpnd owns both categories, and it swaps taints as it
// encrypts/decrypts. A browser tainted v2 (it read corporate data) cannot
// send a byte to the Internet; an Internet-tainted process cannot touch the
// VPN — the Slammer-through-the-VPN scenario the paper opens §6.3 with.
//
// Exits non-zero unless the echo round-trips through the tunnel and all
// three cross-network attempts fail the label check.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/net/vpn.h"

using namespace histar;

namespace {

ObjectId MakeClient(Kernel* k, NetDaemon* stack, const char* name) {
  Label l = stack->ClientTaint();
  Label c(Level::k2, {{stack->taint().i, Level::k3}});
  return k->BootstrapThread(l, c, name);
}

}  // namespace

int main() {
  Kernel kernel;
  std::unique_ptr<UnixWorld> world = UnixWorld::Boot(&kernel);
  ObjectId init = world->init_thread();
  CurrentThread::Set(init);

  std::printf("== VPN isolation (paper §6.3) ==\n\n");

  // The open Internet: a switch, our machine's stack, and a remote VPN
  // gateway that fronts the firewalled corporate network. The gateway is a
  // different machine in spirit, so it runs its own stack on its own
  // switch port; vpnd dials that stack's address.
  NetSwitch internet;
  std::unique_ptr<NetDaemon> inet = NetDaemon::Start(world.get(), internet.NewPort(), "netd-i");
  std::unique_ptr<NetDaemon> gw_stack =
      NetDaemon::Start(world.get(), internet.NewPort(), "netd-gw");
  ObjectId gw_client = MakeClient(&kernel, gw_stack.get(), "vpn-gateway");
  VpnGatewaySim gateway(gw_stack.get(), &kernel, gw_client, 1194, /*key=*/0x5c);

  // vpnd: the only component owning both i and v. 300 lines of tun device +
  // driver in the paper; the only trusted piece of this picture.
  std::unique_ptr<VpnDaemon> vpnd =
      VpnDaemon::Start(world.get(), inet.get(), gw_stack->mac(), 1194, 0x5c);
  std::printf("categories: i (Internet taint) owned by netd's creator,\n"
              "            v=%llx (VPN taint) owned only by vpnd\n\n",
              static_cast<unsigned long long>(vpnd->v()));

  // --- 1. A browser talks to the corporate network through the tunnel -------------
  ObjectId browser = MakeClient(&kernel, vpnd->vpn_stack(), "browser-vpn");
  Result<uint64_t> conn =
      vpnd->vpn_stack()->Connect(browser, gateway.remote_host_mac(), 7 /* echo */);
  std::printf("browser connects to corporate echo host over the VPN -> %s\n",
              std::string(StatusName(conn.status())).c_str());
  bool echoed = false;
  if (conn.ok()) {
    const char ping[] = "quarterly numbers?";
    const uint64_t len = sizeof(ping) - 1;
    vpnd->vpn_stack()->Send(browser, conn.value(), ping, len);
    char echo[64] = {};
    uint64_t got = 0;
    while (got < len) {
      Result<uint64_t> n =
          vpnd->vpn_stack()->Recv(browser, conn.value(), echo + got, sizeof(echo) - got, 5000);
      if (!n.ok() || n.value() == 0) {
        break;
      }
      got += n.value();
    }
    echoed = got == len && std::memcmp(echo, ping, len) == 0;
    std::printf("corporate host echoes: \"%.*s\"  (%llu tunneled frames so far)\n",
                static_cast<int>(got), echo,
                static_cast<unsigned long long>(gateway.frames_tunneled()));
  }

  // --- 2. The wire never sees plaintext --------------------------------------------
  std::printf("\non the Internet wire those bytes crossed as xor-%02x tunnel records —\n"
              "both protocol stacks are untrusted; only vpnd touches both worlds.\n",
              0x5c);

  // --- 3. Now the browser is \"contaminated\" and tries the Internet ----------------
  // Reading VPN data tainted the browser v2. The kernel now refuses it any
  // path to the Internet stack — socket API or raw device alike.
  ObjectId dev = inet->device();
  Result<uint64_t> leak = inet->Connect(browser, MacFromIndex(0x99), 80);
  std::printf("\nVPN-tainted browser opens an Internet socket -> %s\n",
              std::string(StatusName(leak.status())).c_str());
  Status raw = kernel.sys_net_transmit(browser, ContainerEntry{kernel.root_container(), dev},
                                       ContainerEntry{kernel.root_container(), dev}, 0, 0);
  std::printf("VPN-tainted browser writes the NIC directly  -> %s\n",
              std::string(StatusName(raw)).c_str());

  // --- 4. And the other direction ---------------------------------------------------
  ObjectId downloader = MakeClient(&kernel, inet.get(), "downloader");
  // Tainted i2 by its Internet reads; the VPN stack's sockets demand v.
  Result<uint64_t> cross =
      vpnd->vpn_stack()->Connect(downloader, gateway.remote_host_mac(), 7);
  std::printf("Internet-tainted process opens a VPN socket  -> %s\n",
              std::string(StatusName(cross.status())).c_str());

  std::printf("\na system-wide two-network policy, enforced by two categories and one\n"
              "small daemon — no firewall rules, no per-application configuration.\n");

  vpnd->Stop();
  gateway.Stop();
  gw_stack->Stop();
  inet->Stop();
  CurrentThread::Set(kInvalidObject);
  const bool isolated = leak.status() == Status::kLabelCheckFailed &&
                        raw == Status::kLabelCheckFailed &&
                        cross.status() == Status::kLabelCheckFailed;
  if (!echoed || !isolated) {
    std::fprintf(stderr, "vpn_isolation: %s\n",
                 !echoed ? "the echo did not round-trip through the tunnel"
                         : "a cross-network attempt did not fail the label check");
    return 1;
  }
  return 0;
}
