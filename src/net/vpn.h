// VPN isolation (paper §6.3, Figure 11).
//
// Two networks, two taints: i for the open Internet, v for the VPN. The
// bootstrap labels the Internet device to taint everything received {i2, 1};
// the VPN stack's tun device analogously taints with v. The *only* component
// owning both categories is the vpnd client, which is trusted to
//   * taint incoming VPN packets v2,
//   * refuse to forward anything tainted i out the VPN (and vice versa),
//   * "encrypt" the tunnel (a keyed XOR stands in for real crypto — the
//     property under reproduction is taint separation, not confidentiality
//     against a cryptanalyst).
//
// Everything else — both lwIP stacks, the applications on either side — is
// untrusted, exactly as in the paper. A process tainted v2 cannot convey
// anything to the Internet; a process tainted i2 cannot touch VPN state.
#ifndef SRC_NET_VPN_H_
#define SRC_NET_VPN_H_

#include <atomic>
#include <thread>

#include "src/net/netd.h"

namespace histar {

// The simulated remote VPN gateway: lives on the Internet switch as a plain
// i2 client of the Internet stack, decrypts tunneled frames, impersonates
// hosts on the corporate network (an echo service on port 7), and encrypts
// replies. It plays the role of the far endpoint OpenVPN would talk to.
class VpnGatewaySim {
 public:
  VpnGatewaySim(NetDaemon* inet, Kernel* kernel, ObjectId client_thread, uint16_t listen_port,
                uint8_t key);
  ~VpnGatewaySim();

  void Stop();
  MacAddr remote_host_mac() const;
  uint64_t frames_tunneled() const { return frames_.load(); }

 private:
  void Loop();
  std::vector<uint8_t> HandleInnerFrame(const std::vector<uint8_t>& frame);

  NetDaemon* inet_;
  Kernel* kernel_;
  ObjectId self_;
  uint16_t port_;
  uint8_t key_;
  std::thread host_;
  std::atomic<bool> running_{true};
  std::atomic<uint64_t> frames_{0};
};

// The local side: tun pair + VPN protocol stack + vpnd client process.
//
// vpnd is event-driven, with one kernel thread per direction, each blocked
// on its own source. The process's thread connects the tunnel, then runs
// the inbound direction: it blocks in Recv on the Internet socket, decrypts,
// and transmits the frames on the tun. For the outbound direction it creates
// a second thread with its own label and clearance, which drains the tun
// with per-call sys_net_receive, blocks in sys_net_wait when the tun is
// empty, and Sends each frame encrypted into the tunnel. Both waits wake on
// data; their timeouts only bound Stop, as netd's pump wait does. The second
// thread is its own kernel Thread, not a second host thread on vpnd's:
// Send's flush crosses netd's ctl gate, which relabels the thread that
// crosses it.
class VpnDaemon {
 public:
  // `inet` is the Internet-side stack; `gateway_mac`/`gateway_port` locate
  // the remote gateway on the Internet.
  static std::unique_ptr<VpnDaemon> Start(UnixWorld* world, NetDaemon* inet,
                                          MacAddr gateway_mac, uint16_t gateway_port,
                                          uint8_t key);
  ~VpnDaemon();

  // The VPN-side protocol stack; applications use it exactly like the
  // Internet one (mounted as /netd by convention, §6.3).
  NetDaemon* vpn_stack() { return vpn_stack_.get(); }
  CategoryId v() const { return v_; }

  void Stop();
  uint64_t frames_out() const { return frames_out_.load(); }
  uint64_t frames_in() const { return frames_in_.load(); }

 private:
  VpnDaemon() = default;
  // The process thread's body: connect, start the outbound thread, run the
  // inbound direction until Stop or the tunnel closes.
  void ClientLoop();
  // Internet → decrypt → tun, on vpnd's process thread.
  void TunnelLoop(ObjectId self);
  // tun → encrypt → Internet, on the thread ClientLoop creates.
  void TunLoop(ObjectId self);

  UnixWorld* world_ = nullptr;
  Kernel* kernel_ = nullptr;
  NetDaemon* inet_ = nullptr;
  CategoryId v_ = kInvalidCategory;
  uint8_t key_ = 0;
  MacAddr gateway_mac_{};
  uint16_t gateway_port_ = 0;

  std::unique_ptr<NetSwitch> tun_;        // 2-port hub: stack end ⇄ client end
  std::unique_ptr<NetDaemon> vpn_stack_;  // the untrusted VPN lwIP analogue
  ObjectId tun_client_dev_ = kInvalidObject;
  ProcessIds vpnd_ids_;                    // the trusted-ish vpnd process
  // tun frame staging, labeled like the tun device: the outbound thread's
  // receive slot, then the inbound thread's transmit slot, so the two
  // threads never share bytes.
  ObjectId rxbuf_ = kInvalidObject;
  // Set by ClientLoop before it starts the outbound thread.
  uint64_t inet_sock_ = 0;

  std::thread client_host_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> frames_in_{0};
};

// Tunnel record framing over the Internet stream: [u16 len][xor-ed frame].
void TunnelEncode(uint8_t key, const std::vector<uint8_t>& frame, std::vector<uint8_t>* out);
// Incremental decoder; consumes bytes, emits complete frames.
class TunnelDecoder {
 public:
  explicit TunnelDecoder(uint8_t key) : key_(key) {}
  void Feed(const uint8_t* data, size_t len);
  bool Next(std::vector<uint8_t>* frame);

 private:
  uint8_t key_;
  std::vector<uint8_t> buf_;
};

}  // namespace histar

#endif  // SRC_NET_VPN_H_
