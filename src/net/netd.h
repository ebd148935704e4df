// netd: the untrusted user-level network stack (paper §5.7).
//
// lwIP's role is played by "ministack": a small reliable stream protocol
// (the wire is a lossless switch, so no retransmission machinery is needed —
// what matters for the paper's claims is *where the bytes and taint flow*,
// not TCP fidelity). netd runs as a regular process owning the device
// categories nr/nw; the device label {nr3, nw0, i2, 1} taints everything
// read from the network with i.
//
// Two interaction paths, as in the paper:
//  * a control gate ("netd.ctl") — socket setup, plus the "flush socket" op
//    that moves a socket's bytes: tx ring → wire, and staged receive bytes →
//    rx ring;
//  * a per-socket *shared memory segment* (labeled {i2, 1}) with tx/rx rings,
//    one mutex word per ring, and futex wakeups.
//
// netd is event-driven: each socket event is handled by the thread that
// causes it, which is the paper's "donating a worker thread to netd". Send
// publishes its bytes and crosses the gate to flush them itself; Recv
// crosses it to refill the rx ring when netd has flagged staged bytes. The
// gate runs netd code on the caller's thread with the caller's taint
// joined in, so a caller tainted in a category netd does not own moves
// nothing. The pump thread handles only device events: it drains the NIC
// into the sockets, and its 5 ms device wait is a fallback sweep and
// shutdown bound, not a clock the data path waits on. netd drives the NIC
// with per-call syscalls only.
//
// A client that sends and receives at the same time, like vpnd (vpn.h),
// needs one kernel thread per direction, not just one host thread: a
// Send's gate crossing relabels the kernel thread that makes it, and uses
// that thread's local segment for the request.
//
// Because rx data lives in {i2, 1} segments, an application must taint
// itself i2 before it can read from a socket; an untainted process simply
// cannot observe network payloads. Conversely anything tainted beyond i2 in
// an unowned category cannot transmit. This is the entire §6.3 story.
#ifndef SRC_NET_NETD_H_
#define SRC_NET_NETD_H_

#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "src/core/sync.h"
#include "src/core/thread_annotations.h"
#include "src/net/wire.h"
#include "src/unixlib/unix.h"

namespace histar {

// Stream protocol message types (frame proto 0x0800).
inline constexpr uint16_t kProtoStream = 0x0800;

// Largest frame a NIC receive stages (a kMaxFrame frame fits).
inline constexpr uint64_t kNetFrameMax = 2048;

struct NetTaint {
  CategoryId nr = kInvalidCategory;  // device read capability
  CategoryId nw = kInvalidCategory;  // device write capability
  CategoryId i = kInvalidCategory;   // the network taint itself
};

class NetDaemon {
 public:
  // Boots a netd process: allocates nr/nw/i (or uses `taint` if provided),
  // creates the kernel device bound to `port`, spawns the daemon. `name`
  // distinguishes multiple stacks ("netd", "vpnd-stack").
  static std::unique_ptr<NetDaemon> Start(UnixWorld* world, SimNetPort* port,
                                          const std::string& name,
                                          const NetTaint* taint = nullptr);
  ~NetDaemon();

  const NetTaint& taint() const { return taint_; }
  ObjectId device() const { return device_; }
  MacAddr mac() const { return mac_; }
  ObjectId proc_container() const { return ids_.proc_ct; }
  ObjectId ctl_gate() const { return ctl_gate_; }

  // ---- client API (runs on the caller's thread; crosses the ctl gate) ----

  // Opens a listening socket on `port`; returns a socket id.
  Result<uint64_t> Listen(ObjectId self, uint16_t port);
  // Accepts a pending connection (blocking up to timeout); returns a
  // connected socket id.
  Result<uint64_t> Accept(ObjectId self, uint64_t listen_sock, uint32_t timeout_ms);
  // Connects to a remote stack.
  Result<uint64_t> Connect(ObjectId self, MacAddr dst, uint16_t port);
  Status CloseSocket(ObjectId self, uint64_t sock);

  // Fast path: direct ring I/O on the socket's shared segment, plus one
  // ctl-gate flush per Send (and per Recv that finds bytes staged). The
  // caller must be able to observe/modify {i2, 1} segments (i.e. carry i2
  // taint). Send fails once either end has closed.
  Result<uint64_t> Send(ObjectId self, uint64_t sock, const void* buf, uint64_t len);
  Result<uint64_t> Recv(ObjectId self, uint64_t sock, void* buf, uint64_t len,
                        uint32_t timeout_ms);

  // The shared segment of a socket (tests poke at labels).
  Result<ContainerEntry> SocketSegment(uint64_t sock);

  // Convenience: the label a client thread needs to use sockets ({i2, 1}
  // joined into its own label).
  Label ClientTaint() const { return Label(Level::k1, {{taint_.i, Level::k2}}); }

  // Stops the pump thread (tests; destructor also does this).
  void Stop();

 private:
  NetDaemon() = default;

  struct Socket;

  // Gate entry bodies (execute with netd privilege on the caller's thread).
  friend void NetdCtlEntry(GateCall& call);
  uint64_t CtlOp(ObjectId self, uint64_t op, uint64_t a, uint64_t b);
  // Crosses the ctl gate with the "flush socket" op.
  void Flush(ObjectId self, uint64_t sock);

  // The pump: device → sockets.
  void PumpLoop();
  void HandleFrame(ObjectId self, const std::vector<uint8_t>& frame);
  // Moves one socket's bytes (tx ring → wire, staging → rx ring) with the
  // labels of `self`. Returns whether any data frame went out.
  bool DrainTx(ObjectId self, Socket* s) REQUIRES(mu_);
  bool SendFrame(ObjectId self, const MacAddr& dst, uint8_t type, uint16_t sport,
                 uint16_t dport, const uint8_t* data, uint16_t len) REQUIRES(mu_);
  std::vector<uint8_t> BuildFrame(const MacAddr& dst, uint8_t type, uint16_t sport,
                                  uint16_t dport, const uint8_t* data, uint16_t len) const;
  // Writes the socket's flags word (netd is its only writer, always under
  // mu_, so Socket::flags mirrors it). False, mirror untouched, when the
  // caller's labels forbid the write.
  bool WriteFlags(ObjectId self, Socket* s, uint64_t flags) REQUIRES(mu_);

  Result<Socket*> FindSocket(uint64_t sock) REQUIRES(mu_);
  Result<uint64_t> MakeSocketWithSegment(ObjectId self) REQUIRES(mu_);

  Kernel* kernel_ = nullptr;
  MacAddr mac_{};
  NetTaint taint_;
  ObjectId device_ = kInvalidObject;
  ProcessIds ids_;
  ObjectId ctl_gate_ = kInvalidObject;
  // Device frame staging, {nr3,nw0,i2,1}: a receive slot for the pump, and
  // a transmit slot for SendFrame (mu_-held callers), each kNetFrameMax.
  ObjectId rxbuf_seg_ = kInvalidObject;

  // Guards the socket table and every Socket's fields (the per-Socket
  // members cannot carry GUARDED_BY themselves — the analysis cannot name
  // another object's mutex — so their discipline is this comment plus the
  // REQUIRES on every helper that touches a Socket*).
  Mutex mu_;
  std::map<uint64_t, std::unique_ptr<Socket>> sockets_ GUARDED_BY(mu_);
  uint64_t next_sock_ GUARDED_BY(mu_) = 1;
  std::thread pump_host_;
  std::atomic<bool> running_{false};

  static Mutex registry_mu_;
  static std::map<uint64_t, NetDaemon*> registry_ GUARDED_BY(registry_mu_);
  static uint64_t next_registry_id_ GUARDED_BY(registry_mu_);
  uint64_t registry_id_ = 0;
};

}  // namespace histar

#endif  // SRC_NET_NETD_H_
