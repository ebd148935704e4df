#include "src/net/netd.h"

#include <cstring>

#include "src/kernel/thread_runner.h"
#include "src/unixlib/mutex.h"

namespace histar {

namespace {

// Shared socket segment layout: a control header followed by two rings.
// Each direction has its own mutex word: Send and Recv write disjoint
// cursors, so a sender and a receiver on one socket (vpnd's two threads)
// never contend for a SegmentMutex, whose compare-exchange is not atomic
// across threads.
constexpr uint64_t kOffTxMutex = 0;
constexpr uint64_t kOffTxR = 8;
constexpr uint64_t kOffTxW = 16;
constexpr uint64_t kOffRxR = 24;
constexpr uint64_t kOffRxW = 32;
constexpr uint64_t kOffFlags = 40;
constexpr uint64_t kOffRxMutex = 48;
constexpr uint64_t kRingBytes = 64 * 1024;
constexpr uint64_t kOffTxData = 56;
constexpr uint64_t kOffRxData = kOffTxData + kRingBytes;
constexpr uint64_t kSocketSegBytes = kOffRxData + kRingBytes;

constexpr uint64_t kFlagEstablished = 1;
constexpr uint64_t kFlagPeerClosed = 2;
constexpr uint64_t kFlagLocalClosed = 4;
// The rx ring is full and netd still holds bytes for it: a reader that
// sees this crosses the ctl gate to refill the ring.
constexpr uint64_t kFlagStaged = 8;

// Stream protocol message types.
constexpr uint8_t kMsgSyn = 1;
constexpr uint8_t kMsgSynAck = 2;
constexpr uint8_t kMsgData = 3;
constexpr uint8_t kMsgFin = 4;
constexpr uint16_t kMss = 1400;

// Control-gate ops (request word 0).
constexpr uint64_t kOpListen = 1;
constexpr uint64_t kOpAccept = 2;
constexpr uint64_t kOpConnect = 3;
constexpr uint64_t kOpClose = 4;
constexpr uint64_t kOpFlush = 5;

// A SYN that reaches a port before its Listen is dropped, so Connect
// resends it every kSynRetry until the SYN-ACK, for kSynAttempts tries
// (about 2 s in all).
constexpr auto kSynRetry = std::chrono::milliseconds(25);
constexpr int kSynAttempts = 80;

// Stream header after the 14-byte frame header:
// [type u8][sport u16][dport u16][len u16] = 7 bytes.
constexpr size_t kStreamHeader = 7;

// Staging-slot layout inside rxbuf_seg_ (see netd.h): the pump's receive
// slot, then the transmit slot.
constexpr uint64_t kRxSlot = 0;
constexpr uint64_t kTxSlot = kNetFrameMax;
constexpr uint64_t kStagingBytes = 2 * kNetFrameMax;

uint64_t PackMac(const MacAddr& m) {
  uint64_t v = 0;
  for (int i = 0; i < 6; ++i) {
    v = (v << 8) | m[static_cast<size_t>(i)];
  }
  return v;
}

MacAddr UnpackMac(uint64_t v) {
  MacAddr m;
  for (int i = 5; i >= 0; --i) {
    m[static_cast<size_t>(i)] = static_cast<uint8_t>(v);
    v >>= 8;
  }
  return m;
}

uint64_t ReadWord(Kernel* k, ObjectId self, ContainerEntry seg, uint64_t off) {
  uint64_t v = 0;
  k->sys_segment_read(self, seg, &v, off, 8);
  return v;
}

void WriteWord(Kernel* k, ObjectId self, ContainerEntry seg, uint64_t off, uint64_t v) {
  k->sys_segment_write(self, seg, &v, off, 8);
}

// Chunked ring write: data → ring[base..base+size) at position w.
Status RingPut(Kernel* k, ObjectId self, ContainerEntry seg, uint64_t base, uint64_t w,
               const uint8_t* data, uint64_t len) {
  uint64_t pos = w % kRingBytes;
  uint64_t first = std::min(len, kRingBytes - pos);
  Status st = k->sys_segment_write(self, seg, data, base + pos, first);
  if (st != Status::kOk) {
    return st;
  }
  if (first < len) {
    st = k->sys_segment_write(self, seg, data + first, base, len - first);
  }
  return st;
}

Status RingGet(Kernel* k, ObjectId self, ContainerEntry seg, uint64_t base, uint64_t r,
               uint8_t* data, uint64_t len) {
  uint64_t pos = r % kRingBytes;
  uint64_t first = std::min(len, kRingBytes - pos);
  Status st = k->sys_segment_read(self, seg, data, base + pos, first);
  if (st != Status::kOk) {
    return st;
  }
  if (first < len) {
    st = k->sys_segment_read(self, seg, data + first, base, len - first);
  }
  return st;
}

}  // namespace

Mutex NetDaemon::registry_mu_;
std::map<uint64_t, NetDaemon*> NetDaemon::registry_;
uint64_t NetDaemon::next_registry_id_ = 1;

struct NetDaemon::Socket {
  enum class State { kListening, kSynSent, kEstablished, kClosed };
  State state = State::kClosed;
  uint16_t local_port = 0;
  uint16_t peer_port = 0;
  MacAddr peer{};
  ObjectId seg = kInvalidObject;  // shared ring segment (in netd's proc ct)
  std::deque<std::pair<MacAddr, uint16_t>> backlog;  // pending SYNs
  uint64_t flags = 0;  // mirror of the segment's flags word (WriteFlags)
  std::deque<uint8_t> rx_staging;  // overflow when the rx ring is full
  bool fin_pending = false;  // FIN seen while staging still holds data
  CondVar cv;  // state changes (connect/accept); waits on NetDaemon::mu_
};

// The control-gate entry: ferries one operation from the caller's local
// segment into the daemon. Executes on the *caller's* thread, relabeled with
// netd's privileges by the gate — exactly the paper's RPC-without-server-
// resources model (§3.5).
void NetdCtlEntry(GateCall& call) {
  NetDaemon* d = nullptr;
  {
    MutexLock lock(&NetDaemon::registry_mu_);
    auto it = NetDaemon::registry_.find(call.closure[0]);
    if (it == NetDaemon::registry_.end()) {
      return;
    }
    d = it->second;
  }
  uint64_t req[3] = {};
  call.kernel->sys_self_local_read(call.thread, req, 0, sizeof(req));
  uint64_t resp = d->CtlOp(call.thread, req[0], req[1], req[2]);
  call.kernel->sys_self_local_write(call.thread, &resp, 32, 8);
}

std::unique_ptr<NetDaemon> NetDaemon::Start(UnixWorld* world, SimNetPort* port,
                                            const std::string& name, const NetTaint* taint) {
  auto d = std::unique_ptr<NetDaemon>(new NetDaemon());
  d->kernel_ = world->kernel();
  d->mac_ = port->MacAddress();
  Kernel* k = d->kernel_;
  ObjectId boot = world->init_thread();

  if (taint != nullptr) {
    d->taint_ = *taint;
  } else {
    d->taint_.nr = k->sys_cat_create(boot).value();
    d->taint_.nw = k->sys_cat_create(boot).value();
    d->taint_.i = k->sys_cat_create(boot).value();
  }

  // The device: {nr3, nw0, i2, 1} — reads taint with i, writes need nw.
  Label dev_label(Level::k1, {{d->taint_.nr, Level::k3},
                              {d->taint_.nw, Level::k0},
                              {d->taint_.i, Level::k2}});
  d->device_ = k->BootstrapDevice(DeviceKind::kNet, dev_label, name + "-dev");
  k->AttachNetPort(d->device_, port);

  // netd process: owns nr/nw, tainted i2 (Figure 11's lwIP stack label).
  ProcessOpts opts;
  opts.extra_ownership =
      Label(Level::k1, {{d->taint_.nr, Level::kStar}, {d->taint_.nw, Level::kStar}});
  opts.taint = Label(Level::k1, {{d->taint_.i, Level::k2}});
  opts.quota = 64 << 20;
  Result<ProcessIds> ids = world->procs().CreateProcessObjects(boot, name, opts);
  if (!ids.ok()) {
    return nullptr;
  }
  d->ids_ = ids.value();

  // Device frame staging, labeled like the device: the pump's receive slot
  // and the transmit slot (layout in netd.h).
  CreateSpec rspec;
  rspec.container = d->ids_.proc_ct;
  rspec.label = dev_label;
  rspec.descrip = "rxbuf";
  rspec.quota = kObjectOverheadBytes + kStagingBytes + kPageSize;
  Result<ObjectId> rxbuf = k->sys_segment_create(boot, rspec, kStagingBytes);
  if (!rxbuf.ok()) {
    return nullptr;
  }
  d->rxbuf_seg_ = rxbuf.value();

  // Control gate.
  {
    MutexLock lock(&registry_mu_);
    d->registry_id_ = next_registry_id_++;
    registry_[d->registry_id_] = d.get();
  }
  k->RegisterGateEntry("netd.ctl", NetdCtlEntry);
  // The control gate carries netd's process and device privileges; callers
  // must already carry the i2 network taint (the shared segments and the
  // device force it anyway).
  Label glabel(Level::k1, {{d->ids_.pr, Level::kStar},
                           {d->ids_.pw, Level::kStar},
                           {d->taint_.nr, Level::kStar},
                           {d->taint_.nw, Level::kStar}});
  Label gclear(Level::k2);
  CreateSpec gspec;
  gspec.container = d->ids_.proc_ct;
  gspec.descrip = "netd-ctl";
  Result<ObjectId> gate =
      k->sys_gate_create(boot, gspec, glabel, gclear, "netd.ctl", {d->registry_id_});
  if (!gate.ok()) {
    return nullptr;
  }
  d->ctl_gate_ = gate.value();

  // Start the pump on the process's thread.
  d->running_.store(true);
  NetDaemon* raw = d.get();
  d->pump_host_ = RunOnHostThread(k, d->ids_.thread, [raw]() { raw->PumpLoop(); });
  return d;
}

NetDaemon::~NetDaemon() {
  Stop();
  MutexLock lock(&registry_mu_);
  registry_.erase(registry_id_);
}

void NetDaemon::Stop() {
  running_.store(false);
  if (pump_host_.joinable()) {
    pump_host_.join();
  }
}

// ---- control path ---------------------------------------------------------------

Result<uint64_t> NetDaemon::MakeSocketWithSegment(ObjectId self) {
  // Runs on a thread holding netd's pw* (gate-granted) and i2 taint.
  Label seg_label(Level::k1, {{taint_.i, Level::k2}});
  CreateSpec spec;
  spec.container = ids_.proc_ct;
  spec.label = seg_label;
  spec.descrip = "sock";
  spec.quota = kObjectOverheadBytes + kSocketSegBytes + kPageSize;
  Result<ObjectId> seg = kernel_->sys_segment_create(self, spec, kSocketSegBytes);
  if (!seg.ok()) {
    return seg.status();
  }
  auto s = std::make_unique<Socket>();
  s->seg = seg.value();
  uint64_t id = next_sock_++;
  sockets_[id] = std::move(s);
  return id;
}

uint64_t NetDaemon::CtlOp(ObjectId self, uint64_t op, uint64_t a, uint64_t b) {
  MutexLock lock(&mu_);
  switch (op) {
    case kOpListen: {  // (port)
      Result<uint64_t> sock = MakeSocketWithSegment(self);
      if (!sock.ok()) {
        return 0;
      }
      Socket* s = sockets_[sock.value()].get();
      s->state = Socket::State::kListening;
      s->local_port = static_cast<uint16_t>(a);
      return sock.value();
    }
    case kOpAccept: {  // (listen_sock, timeout_ms)
      auto it = sockets_.find(a);
      if (it == sockets_.end() || it->second->state != Socket::State::kListening) {
        return 0;
      }
      Socket* ls = it->second.get();
      if (!ls->cv.WaitFor(mu_, std::chrono::milliseconds(b),
                          [ls] { return !ls->backlog.empty(); })) {
        return 0;
      }
      auto [peer, peer_port] = ls->backlog.front();
      ls->backlog.pop_front();
      Result<uint64_t> sock = MakeSocketWithSegment(self);
      if (!sock.ok()) {
        return 0;
      }
      Socket* s = sockets_[sock.value()].get();
      s->state = Socket::State::kEstablished;
      s->local_port = ls->local_port;
      s->peer = peer;
      s->peer_port = peer_port;
      WriteFlags(self, s, s->flags | kFlagEstablished);
      SendFrame(self, peer, kMsgSynAck, s->local_port, peer_port, nullptr, 0);
      return sock.value();
    }
    case kOpConnect: {  // (packed_mac, port)
      Result<uint64_t> sock = MakeSocketWithSegment(self);
      if (!sock.ok()) {
        return 0;
      }
      Socket* s = sockets_[sock.value()].get();
      s->state = Socket::State::kSynSent;
      s->peer = UnpackMac(a);
      s->peer_port = static_cast<uint16_t>(b);
      s->local_port = static_cast<uint16_t>(40000 + next_sock_);
      auto established = [s] { return s->state == Socket::State::kEstablished; };
      for (int attempt = 0; attempt < kSynAttempts && !established(); ++attempt) {
        SendFrame(self, s->peer, kMsgSyn, s->local_port, s->peer_port, nullptr, 0);
        s->cv.WaitFor(mu_, kSynRetry, established);
      }
      if (!established()) {
        s->state = Socket::State::kClosed;
        return 0;
      }
      // OR, don't overwrite: a fast peer may have already FIN'd.
      WriteFlags(self, s, s->flags | kFlagEstablished);
      return sock.value();
    }
    case kOpClose: {  // (sock)
      Result<Socket*> found = FindSocket(a);
      if (!found.ok()) {
        return 0;
      }
      Socket* s = found.value();
      // The flag write doubles as the label check: a caller that cannot
      // modify the socket cannot close it either.
      if (!WriteFlags(self, s, s->flags | kFlagLocalClosed)) {
        return 0;
      }
      if (s->state == Socket::State::kEstablished) {
        // Flush bytes still queued in the tx ring before the FIN — else the
        // FIN overtakes them on the wire and the peer sees a truncated
        // stream (a send-close immediately after a large send is the common
        // pattern: ServeDbOnce, HTTP responses).
        DrainTx(self, s);
        SendFrame(self, s->peer, kMsgFin, s->local_port, s->peer_port, nullptr, 0);
      }
      s->state = Socket::State::kClosed;
      return 1;
    }
    case kOpFlush: {  // (sock)
      Result<Socket*> found = FindSocket(a);
      if (!found.ok()) {
        return 0;
      }
      DrainTx(self, found.value());
      return 1;
    }
    default:
      return 0;
  }
}

namespace {

// Invokes the daemon's control gate with one request, taking the gate's
// privilege grant and restoring the caller's label afterwards.
Result<uint64_t> CtlCall(Kernel* k, ObjectId self, ContainerEntry gate, uint64_t op,
                         uint64_t a, uint64_t b) {
  uint64_t req[3] = {op, a, b};
  Status st = k->sys_self_local_write(self, req, 0, sizeof(req));
  if (st != Status::kOk) {
    return st;
  }
  Result<Label> mine = k->sys_self_get_label(self);
  Result<Label> myclear = k->sys_self_get_clearance(self);
  Result<Label> glabel = k->sys_obj_get_label(self, gate);
  if (!mine.ok() || !myclear.ok() || !glabel.ok()) {
    return Status::kLabelCheckFailed;
  }
  // Request exactly the floor: own taint plus the gate's ownership.
  Label request = Label::GateFloor(mine.value(), glabel.value());
  st = k->sys_gate_invoke(self, gate, request, myclear.value(), mine.value());
  if (st != Status::kOk) {
    return st;
  }
  uint64_t resp = 0;
  k->sys_self_local_read(self, &resp, 32, 8);
  // Drop the borrowed ownership (raising ⋆ back to the old level).
  k->sys_self_set_label(self, mine.value());
  k->sys_self_set_clearance(self, myclear.value());
  if (resp == 0) {
    return Status::kAgain;
  }
  return resp;
}

}  // namespace

Result<uint64_t> NetDaemon::Listen(ObjectId self, uint16_t port) {
  return CtlCall(kernel_, self, ContainerEntry{ids_.proc_ct, ctl_gate_}, kOpListen, port, 0);
}

Result<uint64_t> NetDaemon::Accept(ObjectId self, uint64_t listen_sock, uint32_t timeout_ms) {
  return CtlCall(kernel_, self, ContainerEntry{ids_.proc_ct, ctl_gate_}, kOpAccept, listen_sock,
                 timeout_ms);
}

Result<uint64_t> NetDaemon::Connect(ObjectId self, MacAddr dst, uint16_t port) {
  return CtlCall(kernel_, self, ContainerEntry{ids_.proc_ct, ctl_gate_}, kOpConnect,
                 PackMac(dst), port);
}

Status NetDaemon::CloseSocket(ObjectId self, uint64_t sock) {
  Result<uint64_t> r =
      CtlCall(kernel_, self, ContainerEntry{ids_.proc_ct, ctl_gate_}, kOpClose, sock, 0);
  return r.ok() ? Status::kOk : r.status();
}

void NetDaemon::Flush(ObjectId self, uint64_t sock) {
  // A failed crossing leaves the bytes where they are; the pump's fallback
  // sweep still moves them.
  (void)CtlCall(kernel_, self, ContainerEntry{ids_.proc_ct, ctl_gate_}, kOpFlush, sock, 0);
}

Result<ContainerEntry> NetDaemon::SocketSegment(uint64_t sock) {
  MutexLock lock(&mu_);
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) {
    return Status::kNotFound;
  }
  return ContainerEntry{ids_.proc_ct, it->second->seg};
}

// ---- fast path (shared segment rings) ----------------------------------------------

Result<uint64_t> NetDaemon::Send(ObjectId self, uint64_t sock, const void* buf, uint64_t len) {
  Result<ContainerEntry> seg = SocketSegment(sock);
  if (!seg.ok()) {
    return seg.status();
  }
  const uint8_t* src = static_cast<const uint8_t*>(buf);
  uint64_t sent = 0;
  SegmentMutex mu(kernel_, seg.value(), kOffTxMutex);
  while (sent < len) {
    if (!mu.Lock(self)) {
      return Status::kLabelCheckFailed;
    }
    uint64_t txr = ReadWord(kernel_, self, seg.value(), kOffTxR);
    uint64_t txw = ReadWord(kernel_, self, seg.value(), kOffTxW);
    uint64_t flags = ReadWord(kernel_, self, seg.value(), kOffFlags);
    if ((flags & (kFlagPeerClosed | kFlagLocalClosed)) != 0) {
      mu.Unlock(self);
      return sent > 0 ? Result<uint64_t>(sent) : Result<uint64_t>(Status::kNoPerm);
    }
    uint64_t space = kRingBytes - (txw - txr);
    if (space > 0) {
      uint64_t n = std::min(len - sent, space);
      Status st = RingPut(kernel_, self, seg.value(), kOffTxData, txw, src + sent, n);
      if (st != Status::kOk) {
        mu.Unlock(self);
        return st;
      }
      WriteWord(kernel_, self, seg.value(), kOffTxW, txw + n);
      sent += n;
      mu.Unlock(self);
      // Put the bytes on the wire from this thread, through the ctl gate.
      Flush(self, sock);
      continue;
    }
    uint64_t seen = txr;
    mu.Unlock(self);
    kernel_->sys_futex_wait(self, seg.value(), kOffTxR, seen, 50);
  }
  return sent;
}

Result<uint64_t> NetDaemon::Recv(ObjectId self, uint64_t sock, void* buf, uint64_t len,
                                 uint32_t timeout_ms) {
  Result<ContainerEntry> seg = SocketSegment(sock);
  if (!seg.ok()) {
    return seg.status();
  }
  uint8_t* dst = static_cast<uint8_t*>(buf);
  SegmentMutex mu(kernel_, seg.value(), kOffRxMutex);
  uint32_t waited = 0;
  bool refilled = false;  // one refill attempt per wait, so a refill that
                          // cannot move bytes never spins
  for (;;) {
    if (!mu.Lock(self)) {
      return Status::kLabelCheckFailed;
    }
    // Flags first: netd publishes rxw before it raises PeerClosed, so an
    // EOF seen here cannot hide bytes published after the rxw read.
    uint64_t flags = ReadWord(kernel_, self, seg.value(), kOffFlags);
    uint64_t rxr = ReadWord(kernel_, self, seg.value(), kOffRxR);
    uint64_t rxw = ReadWord(kernel_, self, seg.value(), kOffRxW);
    uint64_t avail = rxw - rxr;
    if (avail > 0) {
      uint64_t n = std::min(len, avail);
      Status st = RingGet(kernel_, self, seg.value(), kOffRxData, rxr, dst, n);
      if (st != Status::kOk) {
        mu.Unlock(self);
        return st;
      }
      WriteWord(kernel_, self, seg.value(), kOffRxR, rxr + n);
      mu.Unlock(self);
      if ((flags & kFlagStaged) != 0) {
        Flush(self, sock);  // refill the space just freed
      }
      return n;
    }
    mu.Unlock(self);
    if ((flags & kFlagPeerClosed) != 0) {
      return uint64_t{0};  // orderly EOF
    }
    if ((flags & kFlagStaged) != 0 && !refilled) {
      refilled = true;
      Flush(self, sock);
      continue;
    }
    Status ws = kernel_->sys_futex_wait(self, seg.value(), kOffRxW, rxw, 50);
    if (ws == Status::kHalted || ws == Status::kLabelCheckFailed) {
      return ws;
    }
    refilled = false;
    waited += 50;
    if (waited >= timeout_ms) {
      return Status::kTimedOut;
    }
  }
}

// ---- the pump -------------------------------------------------------------------------

std::vector<uint8_t> NetDaemon::BuildFrame(const MacAddr& dst, uint8_t type, uint16_t sport,
                                           uint16_t dport, const uint8_t* data,
                                           uint16_t len) const {
  std::vector<uint8_t> frame(kFrameHeader + kStreamHeader + len);
  memcpy(frame.data(), dst.data(), 6);
  memcpy(frame.data() + 6, mac_.data(), 6);
  frame[12] = static_cast<uint8_t>(kProtoStream >> 8);
  frame[13] = static_cast<uint8_t>(kProtoStream);
  frame[14] = type;
  memcpy(frame.data() + 15, &sport, 2);
  memcpy(frame.data() + 17, &dport, 2);
  memcpy(frame.data() + 19, &len, 2);
  if (len > 0) {
    memcpy(frame.data() + 21, data, len);
  }
  return frame;
}

bool NetDaemon::SendFrame(ObjectId self, const MacAddr& dst, uint8_t type, uint16_t sport,
                          uint16_t dport, const uint8_t* data, uint16_t len) {
  // Compose the frame in the staging segment's transmit slot (mu_-held
  // callers only), transmit.
  std::vector<uint8_t> frame = BuildFrame(dst, type, sport, dport, data, len);
  ContainerEntry rx{ids_.proc_ct, rxbuf_seg_};
  Status st = kernel_->sys_segment_write(self, rx, frame.data(), kTxSlot, frame.size());
  if (st != Status::kOk) {
    return false;
  }
  return kernel_->sys_net_transmit(self, ContainerEntry{kernel_->root_container(), device_}, rx,
                                   kTxSlot, frame.size()) == Status::kOk;
}

bool NetDaemon::WriteFlags(ObjectId self, Socket* s, uint64_t flags) {
  if (flags == s->flags) {
    return true;
  }
  if (kernel_->sys_segment_write(self, ContainerEntry{ids_.proc_ct, s->seg}, &flags, kOffFlags,
                                 8) != Status::kOk) {
    return false;
  }
  s->flags = flags;
  return true;
}

void NetDaemon::HandleFrame(ObjectId self, const std::vector<uint8_t>& frame) {
  if (frame.size() < kFrameHeader + kStreamHeader) {
    return;
  }
  uint16_t proto = static_cast<uint16_t>((frame[12] << 8) | frame[13]);
  if (proto != kProtoStream) {
    return;
  }
  uint8_t type = frame[14];
  uint16_t sport;
  uint16_t dport;
  uint16_t len;
  memcpy(&sport, frame.data() + 15, 2);
  memcpy(&dport, frame.data() + 17, 2);
  memcpy(&len, frame.data() + 19, 2);
  MacAddr src;
  memcpy(src.data(), frame.data() + 6, 6);

  MutexLock lock(&mu_);
  switch (type) {
    case kMsgSyn: {
      // Connect resends its SYN until answered: queue the first copy, and
      // ignore one whose peer is already queued or already has a socket.
      Socket* listener = nullptr;
      for (auto& [id, s] : sockets_) {
        if (s->local_port != dport) {
          continue;
        }
        if (s->state != Socket::State::kListening) {
          if (s->peer == src && s->peer_port == sport) {
            return;
          }
        } else if (listener == nullptr) {
          listener = s.get();
        }
      }
      if (listener == nullptr) {
        break;
      }
      for (const auto& [mac, port] : listener->backlog) {
        if (mac == src && port == sport) {
          return;
        }
      }
      listener->backlog.emplace_back(src, sport);
      listener->cv.NotifyAll();
      return;
    }
    case kMsgSynAck: {
      for (auto& [id, s] : sockets_) {
        if (s->state == Socket::State::kSynSent && s->local_port == dport &&
            s->peer_port == sport) {
          s->state = Socket::State::kEstablished;
          s->cv.NotifyAll();
          return;
        }
      }
      break;
    }
    case kMsgData: {
      for (auto& [id, s] : sockets_) {
        if (s->state == Socket::State::kEstablished && s->local_port == dport &&
            s->peer_port == sport && s->peer == src) {
          const uint8_t* payload = frame.data() + kFrameHeader + kStreamHeader;
          s->rx_staging.insert(s->rx_staging.end(), payload, payload + len);
          return;
        }
      }
      break;
    }
    case kMsgFin: {
      for (auto& [id, s] : sockets_) {
        if (s->local_port == dport && s->peer_port == sport) {
          if (!s->rx_staging.empty()) {
            // Data is still queued behind this FIN; surfacing EOF now would
            // make the receiver drop it. DrainTx raises the flag once the
            // staging queue empties into the rx ring.
            s->fin_pending = true;
            return;
          }
          if (WriteFlags(self, s.get(), s->flags | kFlagPeerClosed)) {
            kernel_->sys_futex_wake(self, ContainerEntry{ids_.proc_ct, s->seg}, kOffRxW,
                                    UINT32_MAX);
          }
          s->cv.NotifyAll();
          return;
        }
      }
      break;
    }
    default:
      break;
  }
}

bool NetDaemon::DrainTx(ObjectId self, Socket* s) {
  // Move bytes tx-ring → wire and staging → rx-ring. Called with mu_ held,
  // by the pump or by a ctl-gate caller: every write below carries the
  // caller's labels, so a caller tainted in a category netd does not own
  // moves nothing.
  ContainerEntry seg{ids_.proc_ct, s->seg};
  bool sent = false;
  if (s->state == Socket::State::kEstablished) {
    uint64_t txr = ReadWord(kernel_, self, seg, kOffTxR);
    uint64_t txw = ReadWord(kernel_, self, seg, kOffTxW);
    uint64_t start = txr;
    while (txr < txw) {
      uint16_t n = static_cast<uint16_t>(std::min<uint64_t>(txw - txr, kMss));
      uint8_t chunk[kMss];
      if (RingGet(kernel_, self, seg, kOffTxData, txr, chunk, n) != Status::kOk) {
        break;
      }
      if (!SendFrame(self, s->peer, kMsgData, s->local_port, s->peer_port, chunk, n)) {
        break;
      }
      txr += n;
    }
    // Publish the read cursor and wake a sender blocked on a full ring
    // once per drain, not once per frame.
    if (txr != start) {
      WriteWord(kernel_, self, seg, kOffTxR, txr);
      kernel_->sys_futex_wake(self, seg, kOffTxR, UINT32_MAX);
      sent = true;
    }
  }
  if (!s->rx_staging.empty()) {
    uint64_t rxr = ReadWord(kernel_, self, seg, kOffRxR);
    uint64_t rxw = ReadWord(kernel_, self, seg, kOffRxW);
    uint64_t space = kRingBytes - (rxw - rxr);
    uint64_t n = std::min<uint64_t>(space, s->rx_staging.size());
    if (n > 0) {
      std::vector<uint8_t> chunk(s->rx_staging.begin(),
                                 s->rx_staging.begin() + static_cast<ptrdiff_t>(n));
      if (RingPut(kernel_, self, seg, kOffRxData, rxw, chunk.data(), n) == Status::kOk) {
        s->rx_staging.erase(s->rx_staging.begin(),
                            s->rx_staging.begin() + static_cast<ptrdiff_t>(n));
        WriteWord(kernel_, self, seg, kOffRxW, rxw + n);
        kernel_->sys_futex_wake(self, seg, kOffRxW, UINT32_MAX);
      }
    }
  }
  // Bytes left behind wait for the reader, who refills when it sees the
  // flag: the pump does not poll for ring space.
  uint64_t staged = s->rx_staging.empty() ? 0 : kFlagStaged;
  WriteFlags(self, s, (s->flags & ~kFlagStaged) | staged);
  if (s->fin_pending && s->rx_staging.empty() &&
      WriteFlags(self, s, s->flags | kFlagPeerClosed)) {
    // The deferred FIN: every byte that preceded it is now in the ring.
    s->fin_pending = false;
    kernel_->sys_futex_wake(self, seg, kOffRxW, UINT32_MAX);
    s->cv.NotifyAll();
  }
  return sent;
}

void NetDaemon::PumpLoop() {
  ObjectId self = ids_.thread;
  ContainerEntry dev{kernel_->root_container(), device_};
  ContainerEntry rx{ids_.proc_ct, rxbuf_seg_};
  while (running_.load()) {
    bool idle = true;
    // Drain the NIC into the sockets' staging queues.
    for (;;) {
      Result<uint64_t> n = kernel_->sys_net_receive(self, dev, rx, kRxSlot, kNetFrameMax);
      if (!n.ok()) {
        break;
      }
      std::vector<uint8_t> frame(n.value());
      if (kernel_->sys_segment_read(self, rx, frame.data(), kRxSlot, n.value()) !=
          Status::kOk) {
        break;
      }
      HandleFrame(self, frame);
      idle = false;
    }
    // Deliver what arrived into the rx rings. Senders flush their own tx
    // rings through the ctl gate; this sweep only catches bytes a failed
    // flush left behind.
    {
      MutexLock lock(&mu_);
      for (auto& [id, s] : sockets_) {
        if (DrainTx(self, s.get())) {
          idle = false;
        }
      }
    }
    if (idle) {
      kernel_->sys_net_wait(self, dev, 5);
    }
  }
}

Result<NetDaemon::Socket*> NetDaemon::FindSocket(uint64_t sock) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) {
    return Status::kNotFound;
  }
  return it->second.get();
}

}  // namespace histar
