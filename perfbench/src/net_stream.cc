// net-stream: one connection between two netd stacks on a 100 Mb/s switch.
//
// The client alternates two 64-byte request/response exchanges with one
// 1 MB download, all on the same connection (netd never frees a socket's
// segment, so a connection per download would exhaust netd's quota). Wire
// time is simulated, not slept: wall time measures the stacks' CPU cost,
// and the switch's virtual clock gives the wire goodput.
//
// The workload runs on one CPU. netd's socket rings are guarded by a
// SegmentMutex shared between the client and the pump thread; its
// compare-exchange is not atomic (src/unixlib/mutex.h), and on several CPUs
// wakeups get lost and exchanges stall for whole 50 ms futex timeouts, so
// throughput swings by 2x between runs. On one CPU, wall time is the CPU
// cost of every thread of the stack, which is what this workload measures.
// The CPU is the one the process is on at its first set-up, not a fixed
// one another tenant of the host may be loading.
#include <dirent.h>
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/net/netd.h"
#include "src/unixlib/unix.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace histar;

constexpr uint16_t kPort = 80;
constexpr uint64_t kMsgBytes = 64;
constexpr uint64_t kDownloadBytes = 1 << 20;
constexpr int kVariants = 4;
constexpr uint32_t kWaitMs = 2000;

enum Cls { kRtt, kDownload, kNumCls };

// Receives exactly `len` bytes; false on error, timeout or EOF.
bool RecvFull(NetDaemon* d, ObjectId self, uint64_t sock, uint8_t* buf, uint64_t len,
              const std::atomic<bool>* stop) {
  uint64_t got = 0;
  while (got < len) {
    Result<uint64_t> n = [&]() {
      Span span("net.recv");
      return d->Recv(self, sock, buf + got, std::min<uint64_t>(len - got, 16384),
                     stop != nullptr ? 200 : kWaitMs);
    }();
    if (n.ok() && n.value() > 0) {
      got += n.value();
    } else if (stop != nullptr && !n.ok() && n.status() == Status::kTimedOut && !stop->load()) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool SendFull(NetDaemon* d, ObjectId self, uint64_t sock, const uint8_t* buf, uint64_t len) {
  Span span("net.send");
  Result<uint64_t> n = d->Send(self, sock, buf, len);
  return n.ok() && n.value() == len;
}

class NetStream : public Workload {
 public:
  ~NetStream() override { Shutdown(); }

  int default_clients() const override { return 1; }
  Kernel* kernel() override { return kernel_.get(); }

  bool Setup(const Options& opts) override {
    seed_ = opts.seed;
    if (!PinToOneCpu()) {
      return false;
    }
    kernel_ = std::make_unique<Kernel>();
    unix_ = UnixWorld::Boot(kernel_.get());
    if (unix_ == nullptr) {
      return false;
    }
    CurrentThread::Set(unix_->init_thread());
    net_ = std::make_unique<NetSwitch>(100'000'000);
    srv_stack_ = NetDaemon::Start(unix_.get(), net_->NewPort(), "srv");
    cli_stack_ = NetDaemon::Start(unix_.get(), net_->NewPort(), "cli");
    if (srv_stack_ == nullptr || cli_stack_ == nullptr) {
      return false;
    }
    auto make_thread = [&](NetDaemon* d, const char* name) {
      Label c(Level::k2, {{d->taint().i, Level::k3}});
      return kernel_->BootstrapThread(d->ClientTaint(), c, name);
    };
    srv_ = make_thread(srv_stack_.get(), "bench-server");
    cli_ = make_thread(cli_stack_.get(), "bench-client");
    for (int v = 0; v < kVariants; ++v) {
      payload_.push_back(MakeBytes(Key(seed_, 0xd0, static_cast<uint64_t>(v)), kDownloadBytes));
    }

    uint64_t t0 = NowNs();
    Result<uint64_t> ls = srv_stack_->Listen(srv_, kPort);
    ctl_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!ls.ok()) {
      return false;
    }
    listen_ = ls.value();
    return true;
  }

  // The connection is made before the loop, untimed: the handshake waits
  // for the pumps' 5 ms poll timers, so its time is set by timer phase.
  LoopSpec Loop() override {
    if (!Connect()) {
      std::fprintf(stderr, "perfbench: connecting failed; every op will fail\n");
    }
    LoopSpec spec;
    spec.classes = kNumCls;
    spec.rss_mark_ops = 200;
    spec.client_init = [this](int) { CurrentThread::Set(cli_); };
    spec.client_fini = [](int) { CurrentThread::Set(kInvalidObject); };
    spec.body = [this](int, uint64_t) { return Op(); };
    return spec;
  }

  void BeginPhase() override {
    frames0_ = net_->frames_forwarded();
    wire_ns_ = 0;
    downloaded_ = 0;
  }

  bool Finish(LoopResult& res, Report* r) override {
    r->Set("net_rtt_p50_us", Median(res.by_class[kRtt]), "us");
    double dl_us = Median(res.by_class[kDownload]);
    r->Set("net_MBps", dl_us > 0 ? static_cast<double>(kDownloadBytes) / (1 << 20) / (dl_us / 1e6)
                                 : 0,
           "MB/s");
    double mb = static_cast<double>(downloaded_) / (1 << 20);
    if (mb > 0) {
      r->Set("net.frames_per_MB", static_cast<double>(net_->frames_forwarded() - frames0_) / mb,
             "count/MB");
      r->Set("net.wire_goodput_Mbps",
             static_cast<double>(downloaded_) * 8.0 / (static_cast<double>(wire_ns_) / 1e9) / 1e6,
             "Mb/s");
    }
    // Closing the connection ends the server loop; both sides close cleanly.
    bool ok = true;
    {
      CurrentThread bind(cli_);
      uint64_t t0 = NowNs();
      ok = cli_stack_->CloseSocket(cli_, conn_) == Status::kOk;
      ctl_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      conn_ = 0;
    }
    Shutdown();
    ok = ok && server_ok_;
    ctl_us_.push_back(ctl_us_server_);
    r->Set("net.ctl_us", Median(ctl_us_), "us");
    return ok;
  }

 private:
  bool Connect() {
    server_ = std::thread([this]() {
      CurrentThread bind(srv_);
      uint64_t a0 = NowNs();
      Result<uint64_t> accepted = srv_stack_->Accept(srv_, listen_, 10000);
      ctl_us_server_ = static_cast<double>(NowNs() - a0) / 1e3;
      if (accepted.ok()) {
        Serve(accepted.value());
      }
    });
    CurrentThread bind(cli_);
    uint64_t t0 = NowNs();
    Result<uint64_t> conn = cli_stack_->Connect(cli_, srv_stack_->mac(), kPort);
    ctl_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!conn.ok()) {
      return false;
    }
    conn_ = conn.value();
    return true;
  }

  // Restricts every thread of the process (and so every thread created
  // from now on) to the CPU the caller runs on.
  static bool PinToOneCpu() {
    int cpu = sched_getcpu();
    if (cpu < 0) {
      return false;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) {
      return false;
    }
    bool ok = true;
    while (dirent* e = readdir(tasks)) {
      if (e->d_name[0] != '.') {
        pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
        ok = sched_setaffinity(tid, sizeof(one), &one) == 0 && ok;
      }
    }
    closedir(tasks);
    return ok;
  }

  void Serve(uint64_t sock) {
    uint8_t req[kMsgBytes];
    uint8_t resp[kMsgBytes];
    for (;;) {
      if (!RecvFull(srv_stack_.get(), srv_, sock, req, sizeof(req), &stop_)) {
        break;  // the client closed the connection, or shutdown
      }
      bool sent = false;
      if (req[0] == 'D') {
        const std::vector<uint8_t>& p = payload_[req[1] % kVariants];
        sent = srv_stack_->Send(srv_, sock, p.data(), p.size()).ok();
      } else {
        for (size_t i = 0; i < sizeof(req); ++i) {
          resp[i] = static_cast<uint8_t>(req[i] ^ 0x5a);
        }
        sent = srv_stack_->Send(srv_, sock, resp, sizeof(resp)).ok();
      }
      if (!sent) {
        server_ok_ = false;
        break;
      }
    }
    srv_stack_->CloseSocket(srv_, sock);
  }

  OpOutcome Op() {
    const uint64_t i = ++ops_;
    OpOutcome o;
    o.cls = i % 3 == 0 ? kDownload : kRtt;
    uint8_t req[kMsgBytes];
    FillBytes(Key(seed_, 0x4e7, i), req, sizeof(req));
    req[0] = o.cls == kDownload ? 'D' : 'R';
    Span op("op");
    if (o.cls == kRtt) {
      uint8_t resp[kMsgBytes];
      uint64_t t0 = NowNs();
      o.ok = SendFull(cli_stack_.get(), cli_, conn_, req, sizeof(req)) &&
             RecvFull(cli_stack_.get(), cli_, conn_, resp, sizeof(resp), nullptr);
      o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
      for (size_t k = 0; k < sizeof(req) && o.ok; ++k) {
        o.correct = o.correct && resp[k] == static_cast<uint8_t>(req[k] ^ 0x5a);
      }
      return o;
    }
    buf_.resize(kDownloadBytes);
    uint64_t wire0 = net_->sim_time_ns();
    uint64_t t0 = NowNs();
    o.ok = SendFull(cli_stack_.get(), cli_, conn_, req, sizeof(req)) &&
           RecvFull(cli_stack_.get(), cli_, conn_, buf_.data(), buf_.size(), nullptr);
    o.latency_us = static_cast<double>(NowNs() - t0) / 1e3;
    wire_ns_ += net_->sim_time_ns() - wire0;
    downloaded_ += kDownloadBytes;
    o.correct = o.ok && std::memcmp(buf_.data(), payload_[req[1] % kVariants].data(),
                                    kDownloadBytes) == 0;
    return o;
  }

  void Shutdown() {
    stop_.store(true);
    if (server_.joinable()) {
      server_.join();
    }
    if (cli_stack_ != nullptr) {
      cli_stack_->Stop();
    }
    if (srv_stack_ != nullptr) {
      srv_stack_->Stop();
    }
    CurrentThread::Set(kInvalidObject);
  }

  uint64_t seed_ = 0;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> unix_;
  std::unique_ptr<NetSwitch> net_;
  std::unique_ptr<NetDaemon> srv_stack_;
  std::unique_ptr<NetDaemon> cli_stack_;
  ObjectId srv_ = kInvalidObject;
  ObjectId cli_ = kInvalidObject;
  uint64_t listen_ = 0;
  uint64_t conn_ = 0;
  std::vector<std::vector<uint8_t>> payload_;
  std::vector<uint8_t> buf_;
  std::atomic<bool> stop_{false};
  bool server_ok_ = true;
  double ctl_us_server_ = 0;
  std::thread server_;  // declared after everything it uses
  std::vector<double> ctl_us_;
  uint64_t ops_ = 0;
  uint64_t frames0_ = 0;
  uint64_t wire_ns_ = 0;
  uint64_t downloaded_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeNetStream() { return std::make_unique<NetStream>(); }

}  // namespace perfbench
