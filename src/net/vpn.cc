#include "src/net/vpn.h"

#include <cstring>

#include "src/kernel/thread_runner.h"

namespace histar {

namespace {

// Staging-slot layout inside tun-rxbuf (vpn.h): the outbound thread's
// receive slot, then the inbound thread's transmit slot.
constexpr uint64_t kTunRxSlot = 0;
constexpr uint64_t kTunTxSlot = kNetFrameMax;
constexpr uint64_t kTunStagingBytes = 2 * kNetFrameMax;

// Timeout of each direction's blocking wait. Both wake on data, so this
// only bounds how long Stop waits for a thread to notice.
constexpr uint32_t kStopPollMs = 50;

}  // namespace

void TunnelEncode(uint8_t key, const std::vector<uint8_t>& frame, std::vector<uint8_t>* out) {
  uint16_t len = static_cast<uint16_t>(frame.size());
  out->push_back(static_cast<uint8_t>(len));
  out->push_back(static_cast<uint8_t>(len >> 8));
  for (uint8_t b : frame) {
    out->push_back(b ^ key);
  }
}

void TunnelDecoder::Feed(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

bool TunnelDecoder::Next(std::vector<uint8_t>* frame) {
  if (buf_.size() < 2) {
    return false;
  }
  uint16_t len = static_cast<uint16_t>(buf_[0] | (buf_[1] << 8));
  if (buf_.size() < 2u + len) {
    return false;
  }
  frame->clear();
  frame->reserve(len);
  for (uint16_t i = 0; i < len; ++i) {
    frame->push_back(buf_[2 + i] ^ key_);
  }
  buf_.erase(buf_.begin(), buf_.begin() + 2 + len);
  return true;
}

// ---- VpnGatewaySim -------------------------------------------------------------

VpnGatewaySim::VpnGatewaySim(NetDaemon* inet, Kernel* kernel, ObjectId client_thread,
                             uint16_t listen_port, uint8_t key)
    : inet_(inet), kernel_(kernel), self_(client_thread), port_(listen_port), key_(key) {
  host_ = std::thread([this]() {
    CurrentThread bind(self_);
    Loop();
  });
}

VpnGatewaySim::~VpnGatewaySim() { Stop(); }

void VpnGatewaySim::Stop() {
  running_.store(false);
  if (host_.joinable()) {
    host_.join();
  }
}

MacAddr VpnGatewaySim::remote_host_mac() const { return MacFromIndex(0xbeef); }

// Frame-level responder for the pretend corporate network: an echo server
// (port 7) living at remote_host_mac(). Speaks the same mini stream protocol
// the VPN stack emits through the tunnel.
std::vector<uint8_t> VpnGatewaySim::HandleInnerFrame(const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> none;
  if (frame.size() < kFrameHeader + 7) {
    return none;
  }
  uint16_t proto = static_cast<uint16_t>((frame[12] << 8) | frame[13]);
  if (proto != kProtoStream) {
    return none;
  }
  MacAddr src;
  memcpy(src.data(), frame.data() + 6, 6);
  uint8_t type = frame[14];
  uint16_t sport;
  uint16_t dport;
  uint16_t len;
  memcpy(&sport, frame.data() + 15, 2);
  memcpy(&dport, frame.data() + 17, 2);
  memcpy(&len, frame.data() + 19, 2);

  // Build the reply with src/dst and ports swapped.
  auto make = [&](uint8_t t, const uint8_t* data, uint16_t n) {
    std::vector<uint8_t> r(kFrameHeader + 7 + n);
    memcpy(r.data(), src.data(), 6);                       // back to sender
    MacAddr me = remote_host_mac();
    memcpy(r.data() + 6, me.data(), 6);
    r[12] = static_cast<uint8_t>(kProtoStream >> 8);
    r[13] = static_cast<uint8_t>(kProtoStream);
    r[14] = t;
    memcpy(r.data() + 15, &dport, 2);  // our port is their dport
    memcpy(r.data() + 17, &sport, 2);
    memcpy(r.data() + 19, &n, 2);
    if (n > 0) {
      memcpy(r.data() + 21, data, n);
    }
    return r;
  };

  if (dport != 7) {
    return none;  // only the echo service exists out there
  }
  switch (type) {
    case 1:  // SYN → SYN_ACK
      return make(2, nullptr, 0);
    case 3:  // DATA → echo it back
      return make(3, frame.data() + 21, len);
    case 4:  // FIN → FIN
      return make(4, nullptr, 0);
    default:
      return none;
  }
}

void VpnGatewaySim::Loop() {
  Result<uint64_t> ls = inet_->Listen(self_, port_);
  if (!ls.ok()) {
    return;
  }
  Result<uint64_t> conn = inet_->Accept(self_, ls.value(), 30000);
  if (!conn.ok()) {
    return;
  }
  TunnelDecoder dec(key_);
  std::vector<uint8_t> buf(4096);
  while (running_.load()) {
    Result<uint64_t> n = inet_->Recv(self_, conn.value(), buf.data(), buf.size(), 100);
    if (n.ok() && n.value() > 0) {
      dec.Feed(buf.data(), n.value());
      std::vector<uint8_t> frame;
      while (dec.Next(&frame)) {
        ++frames_;
        std::vector<uint8_t> reply = HandleInnerFrame(frame);
        if (!reply.empty()) {
          std::vector<uint8_t> rec;
          TunnelEncode(key_, reply, &rec);
          inet_->Send(self_, conn.value(), rec.data(), rec.size());
        }
      }
    } else if (n.status() == Status::kHalted) {
      return;
    }
  }
}

// ---- VpnDaemon -----------------------------------------------------------------

std::unique_ptr<VpnDaemon> VpnDaemon::Start(UnixWorld* world, NetDaemon* inet,
                                            MacAddr gateway_mac, uint16_t gateway_port,
                                            uint8_t key) {
  auto d = std::unique_ptr<VpnDaemon>(new VpnDaemon());
  d->world_ = world;
  d->kernel_ = world->kernel();
  d->inet_ = inet;
  d->key_ = key;
  d->gateway_mac_ = gateway_mac;
  d->gateway_port_ = gateway_port;
  Kernel* k = d->kernel_;
  ObjectId boot = world->init_thread();

  // The VPN taint category v; the tun "wire" is a 2-port hub.
  d->v_ = k->sys_cat_create(boot).value();
  d->tun_ = std::make_unique<NetSwitch>(0);
  d->tun_->set_hub_mode(true);
  SimNetPort* stack_end = d->tun_->NewPort();
  SimNetPort* client_end = d->tun_->NewPort();

  // VPN protocol stack: like the Internet stack, but its "network taint"
  // category is v — everything read from the tun is {v2, 1}.
  NetTaint vpn_taint;
  vpn_taint.nr = k->sys_cat_create(boot).value();
  vpn_taint.nw = k->sys_cat_create(boot).value();
  vpn_taint.i = d->v_;
  d->vpn_stack_ = NetDaemon::Start(world, stack_end, "vpnd-stack", &vpn_taint);
  if (d->vpn_stack_ == nullptr) {
    return nullptr;
  }

  // The client end of the tun: a device only vpnd can use; carries v2 so
  // VPN-originated frames keep their taint even at the raw-device level.
  CategoryId cr = k->sys_cat_create(boot).value();
  CategoryId cw = k->sys_cat_create(boot).value();
  Label tun_label(Level::k1, {{cr, Level::k3}, {cw, Level::k0}, {d->v_, Level::k2}});
  d->tun_client_dev_ = k->BootstrapDevice(DeviceKind::kNet, tun_label, "tun-client");
  k->AttachNetPort(d->tun_client_dev_, client_end);

  // vpnd: the only owner of both i and v (Figure 11's {i*, v*, 1}).
  ProcessOpts opts;
  opts.extra_ownership = Label(Level::k1, {{inet->taint().i, Level::kStar},
                                           {d->v_, Level::kStar},
                                           {cr, Level::kStar},
                                           {cw, Level::kStar}});
  Result<ProcessIds> ids = world->procs().CreateProcessObjects(boot, "vpnd", opts);
  if (!ids.ok()) {
    return nullptr;
  }
  d->vpnd_ids_ = ids.value();

  // Frame staging for the tun device, labeled like the device: one receive
  // slot and one transmit slot (vpn.h).
  CreateSpec rspec;
  rspec.container = d->vpnd_ids_.proc_ct;
  rspec.label = tun_label;
  rspec.descrip = "tun-rxbuf";
  rspec.quota = kObjectOverheadBytes + kTunStagingBytes + kPageSize;
  Result<ObjectId> rxbuf = k->sys_segment_create(boot, rspec, kTunStagingBytes);
  if (!rxbuf.ok()) {
    return nullptr;
  }
  d->rxbuf_ = rxbuf.value();

  d->running_.store(true);
  VpnDaemon* raw = d.get();
  d->client_host_ = RunOnHostThread(k, d->vpnd_ids_.thread, [raw]() { raw->ClientLoop(); });
  return d;
}

VpnDaemon::~VpnDaemon() { Stop(); }

void VpnDaemon::Stop() {
  running_.store(false);
  if (client_host_.joinable()) {
    client_host_.join();
  }
  if (vpn_stack_ != nullptr) {
    vpn_stack_->Stop();
  }
}

void VpnDaemon::ClientLoop() {
  ObjectId self = vpnd_ids_.thread;
  Kernel* k = kernel_;
  // Connect the tunnel over the Internet stack. vpnd owns i, so socket
  // segments ({i2, 1}) are fully accessible to it.
  Result<uint64_t> conn = inet_->Connect(self, gateway_mac_, gateway_port_);
  if (!conn.ok()) {
    return;
  }
  inet_sock_ = conn.value();
  // The outbound thread: same label and clearance as this one, in vpnd's
  // process container.
  Result<Label> label = k->sys_self_get_label(self);
  Result<Label> clearance = k->sys_self_get_clearance(self);
  if (!label.ok() || !clearance.ok()) {
    return;
  }
  CreateSpec tspec;
  tspec.container = vpnd_ids_.proc_ct;
  tspec.descrip = "vpnd-tun";
  tspec.quota = 64 * kPageSize;
  Result<ObjectId> tun_thread =
      k->sys_thread_create(self, tspec, label.value(), clearance.value());
  if (!tun_thread.ok()) {
    return;
  }
  ObjectId tun_self = tun_thread.value();
  std::thread tun_host = RunOnHostThread(k, tun_self, [this, tun_self]() { TunLoop(tun_self); });
  TunnelLoop(self);
  // Stop, or the tunnel is gone: either way the outbound thread stops too.
  running_.store(false);
  tun_host.join();
}

void VpnDaemon::TunnelLoop(ObjectId self) {
  Kernel* k = kernel_;
  ContainerEntry tun_dev{k->root_container(), tun_client_dev_};
  ContainerEntry staging{vpnd_ids_.proc_ct, rxbuf_};
  TunnelDecoder dec(key_);
  std::vector<uint8_t> buf(4096);
  std::vector<uint8_t> frame;
  while (running_.load()) {
    // Inbound: Internet → decrypt → tun → VPN stack (arrives v2-tainted via
    // the vpn stack's device label).
    Result<uint64_t> n = inet_->Recv(self, inet_sock_, buf.data(), buf.size(), kStopPollMs);
    if (!n.ok()) {
      if (n.status() == Status::kTimedOut) {
        continue;
      }
      return;  // the socket is unusable
    }
    if (n.value() == 0) {
      return;  // orderly EOF: the gateway closed the tunnel
    }
    dec.Feed(buf.data(), n.value());
    while (dec.Next(&frame)) {
      // Tunnel bytes are outside input, and the NIC rejects a frame this
      // long anyway: drop it before it reaches the staging slot.
      if (frame.size() > kMaxFrame) {
        continue;
      }
      if (k->sys_segment_write(self, staging, frame.data(), kTunTxSlot, frame.size()) ==
              Status::kOk &&
          k->sys_net_transmit(self, tun_dev, staging, kTunTxSlot, frame.size()) == Status::kOk) {
        ++frames_in_;
      }
    }
  }
}

void VpnDaemon::TunLoop(ObjectId self) {
  Kernel* k = kernel_;
  ContainerEntry tun_dev{k->root_container(), tun_client_dev_};
  ContainerEntry staging{vpnd_ids_.proc_ct, rxbuf_};
  std::vector<uint8_t> rec;
  while (running_.load()) {
    // Outbound: VPN stack → tun → encrypt → Internet. OpenVPN's check that
    // outgoing packets are not i-tainted is structural here: everything
    // read from the tun device carries v2, never i.
    Result<uint64_t> n = k->sys_net_receive(self, tun_dev, staging, kTunRxSlot, kNetFrameMax);
    if (!n.ok()) {
      // Drained: sleep until the VPN stack transmits. A wait that fails
      // outright means the device is unusable, not empty.
      Status ws = k->sys_net_wait(self, tun_dev, kStopPollMs);
      if (ws != Status::kOk && ws != Status::kTimedOut) {
        return;
      }
      continue;
    }
    std::vector<uint8_t> frame(n.value());
    if (k->sys_segment_read(self, staging, frame.data(), kTunRxSlot, n.value()) != Status::kOk) {
      continue;
    }
    rec.clear();
    TunnelEncode(key_, frame, &rec);
    inet_->Send(self, inet_sock_, rec.data(), rec.size());
    ++frames_out_;
  }
}

}  // namespace histar
