#include "src/apps/scanner.h"

#include <cstdio>
#include <cstring>
#include <deque>

namespace histar {

// ---- Aho–Corasick ---------------------------------------------------------------

AhoCorasick::AhoCorasick(const std::vector<Signature>& sigs) {
  nodes_.emplace_back();  // root
  names_.reserve(sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) {
    names_.push_back(sigs[i].name);
    int cur = 0;
    for (uint8_t b : sigs[i].pattern) {
      auto it = nodes_[static_cast<size_t>(cur)].next.find(b);
      if (it == nodes_[static_cast<size_t>(cur)].next.end()) {
        nodes_[static_cast<size_t>(cur)].next[b] = static_cast<int>(nodes_.size());
        cur = static_cast<int>(nodes_.size());
        nodes_.emplace_back();
      } else {
        cur = it->second;
      }
    }
    nodes_[static_cast<size_t>(cur)].outputs.push_back(static_cast<int>(i));
  }
  // BFS failure links.
  std::deque<int> queue;
  for (auto& [b, child] : nodes_[0].next) {
    nodes_[static_cast<size_t>(child)].fail = 0;
    queue.push_back(child);
  }
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop_front();
    for (auto& [b, v] : nodes_[static_cast<size_t>(u)].next) {
      int f = nodes_[static_cast<size_t>(u)].fail;
      while (f != 0 && nodes_[static_cast<size_t>(f)].next.count(b) == 0) {
        f = nodes_[static_cast<size_t>(f)].fail;
      }
      auto it = nodes_[static_cast<size_t>(f)].next.find(b);
      int link = (it != nodes_[static_cast<size_t>(f)].next.end() && it->second != v)
                     ? it->second
                     : 0;
      nodes_[static_cast<size_t>(v)].fail = link;
      const auto& fo = nodes_[static_cast<size_t>(link)].outputs;
      auto& vo = nodes_[static_cast<size_t>(v)].outputs;
      vo.insert(vo.end(), fo.begin(), fo.end());
      queue.push_back(v);
    }
  }
}

std::vector<std::string> AhoCorasick::Scan(const uint8_t* data, size_t len) const {
  std::vector<bool> hit(names_.size(), false);
  int cur = 0;
  for (size_t i = 0; i < len; ++i) {
    uint8_t b = data[i];
    while (cur != 0 && nodes_[static_cast<size_t>(cur)].next.count(b) == 0) {
      cur = nodes_[static_cast<size_t>(cur)].fail;
    }
    auto it = nodes_[static_cast<size_t>(cur)].next.find(b);
    cur = it != nodes_[static_cast<size_t>(cur)].next.end() ? it->second : 0;
    for (int out : nodes_[static_cast<size_t>(cur)].outputs) {
      hit[static_cast<size_t>(out)] = true;
    }
  }
  std::vector<std::string> found;
  for (size_t i = 0; i < hit.size(); ++i) {
    if (hit[i]) {
      found.push_back(names_[i]);
    }
  }
  return found;
}

// ---- database format ---------------------------------------------------------------

namespace {

char HexDigit(uint8_t v) { return v < 10 ? static_cast<char>('0' + v) : static_cast<char>('a' + v - 10); }

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

}  // namespace

std::string SerializeDb(const std::vector<Signature>& sigs) {
  std::string out;
  for (const Signature& s : sigs) {
    out += s.name;
    out += ':';
    for (uint8_t b : s.pattern) {
      out += HexDigit(b >> 4);
      out += HexDigit(b & 0xf);
    }
    out += '\n';
  }
  return out;
}

std::vector<Signature> ParseDb(const std::string& text) {
  std::vector<Signature> sigs;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      continue;
    }
    Signature s;
    s.name = line.substr(0, colon);
    for (size_t i = colon + 1; i + 1 < line.size(); i += 2) {
      int hi = HexValue(line[i]);
      int lo = HexValue(line[i + 1]);
      if (hi < 0 || lo < 0) {
        break;
      }
      s.pattern.push_back(static_cast<uint8_t>((hi << 4) | lo));
    }
    if (!s.pattern.empty()) {
      sigs.push_back(std::move(s));
    }
  }
  return sigs;
}

std::string SerializeReport(const ScanReport& r) {
  std::string out = "scanned " + std::to_string(r.files_scanned) + "\n";
  for (const std::string& i : r.infected) {
    out += "FOUND " + i + "\n";
  }
  out += "done\n";
  return out;
}

ScanReport ParseReport(const std::string& text) {
  ScanReport r;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      break;
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("scanned ", 0) == 0) {
      r.files_scanned = static_cast<uint64_t>(std::stoll(line.substr(8)));
    } else if (line.rfind("FOUND ", 0) == 0) {
      r.infected.push_back(line.substr(6));
    } else if (line == "done") {
      r.ok = true;
    }
  }
  return r;
}

// ---- scanner programs ---------------------------------------------------------------

namespace {

// Reads an entire file through the per-process file system.
Result<std::vector<uint8_t>> SlurpFile(ProcessContext& ctx, const std::string& path) {
  Result<std::pair<ObjectId, std::string>> loc = ctx.fs.WalkParent(ctx.self, ctx.cwd, path);
  if (!loc.ok()) {
    return loc.status();
  }
  Result<ObjectId> file = ctx.fs.Lookup(ctx.self, loc.value().first, loc.value().second);
  if (!file.ok()) {
    return file.status();
  }
  Result<uint64_t> size = ctx.fs.FileSize(ctx.self, loc.value().first, file.value());
  if (!size.ok()) {
    return size.status();
  }
  std::vector<uint8_t> data(size.value());
  Result<uint64_t> n =
      ctx.fs.ReadAt(ctx.self, loc.value().first, file.value(), data.data(), 0, data.size());
  if (!n.ok()) {
    return n.status();
  }
  data.resize(n.value());
  return data;
}

Status SpewFile(ProcessContext& ctx, const std::string& path, const std::vector<uint8_t>& data,
                const Label& label) {
  Result<std::pair<ObjectId, std::string>> loc = ctx.fs.WalkParent(ctx.self, ctx.cwd, path);
  if (!loc.ok()) {
    return loc.status();
  }
  Result<ObjectId> file =
      ctx.fs.Create(ctx.self, loc.value().first, loc.value().second, label,
                    kObjectOverheadBytes + data.size() + kPageSize);
  if (!file.ok()) {
    return file.status();
  }
  return ctx.fs.WriteAt(ctx.self, loc.value().first, file.value(), data.data(), 0, data.size());
}

uint8_t Rot13(uint8_t b) {
  if (b >= 'a' && b <= 'z') {
    return static_cast<uint8_t>('a' + (b - 'a' + 13) % 26);
  }
  if (b >= 'A' && b <= 'Z') {
    return static_cast<uint8_t>('A' + (b - 'A' + 13) % 26);
  }
  return b;
}

// "av-helper": decodes src into dst (rot13 body after the "R13:" prefix).
int64_t AvHelperMain(ProcessContext& ctx) {
  if (ctx.args.size() < 3) {
    return 2;
  }
  Result<std::vector<uint8_t>> data = SlurpFile(ctx, ctx.args[1]);
  if (!data.ok()) {
    return 2;
  }
  std::vector<uint8_t> out;
  const std::vector<uint8_t>& in = data.value();
  for (size_t i = 4; i < in.size(); ++i) {  // skip "R13:"
    out.push_back(Rot13(in[i]));
  }
  // The decoded copy carries the helper's own taint automatically: the
  // label here is the thread's *minimum* legal label for a new object.
  Label mine = ctx.kernel->sys_self_get_label(ctx.self).value();
  Label file_label;
  for (CategoryId c : mine.Categories()) {
    Level l = mine.get(c);
    if (l == Level::k2 || l == Level::k3) {
      file_label.set(c, l);
    }
  }
  return SpewFile(ctx, ctx.args[2], out, file_label) == Status::kOk ? 0 : 2;
}

// "avscan": the scanner proper.
int64_t AvScanMain(ProcessContext& ctx) {
  if (ctx.args.size() < 3) {
    return 2;
  }
  const std::string& db_path = ctx.args[1];
  int result_fd = std::stoi(ctx.args[2]);

  ScanReport report;
  Result<std::vector<uint8_t>> db_raw = SlurpFile(ctx, db_path);
  if (!db_raw.ok()) {
    std::string out = SerializeReport(report);
    ctx.fds->Write(ctx.self, result_fd, out.data(), out.size());
    return 2;
  }
  std::vector<Signature> sigs =
      ParseDb(std::string(db_raw.value().begin(), db_raw.value().end()));
  AhoCorasick ac(sigs);

  for (size_t i = 3; i < ctx.args.size(); ++i) {
    const std::string& path = ctx.args[i];
    Result<std::vector<uint8_t>> data = SlurpFile(ctx, path);
    if (!data.ok()) {
      continue;
    }
    std::vector<uint8_t> bytes = data.take();
    if (bytes.size() >= 4 && memcmp(bytes.data(), "R13:", 4) == 0) {
      // Encoded file: spawn the helper to decode into our private /tmp —
      // the "wide variety of external helper programs" of §1, each of
      // which inherits the scanner's taint (and its read capabilities, so
      // it can open the encoded input).
      std::string decoded_path = "tmp/decoded-" + std::to_string(i);
      ProcessOpts hopts;
      Label mine = ctx.kernel->sys_self_get_label(ctx.self).value();
      for (CategoryId c : mine.Categories()) {
        if (mine.get(c) == Level::kStar) {
          hopts.extra_ownership.set(c, Level::kStar);
        }
      }
      Result<std::unique_ptr<ProcHandle>> h = ctx.mgr->Spawn(
          ctx, "av-helper", {"av-helper", path, decoded_path}, hopts);
      if (!h.ok()) {
        continue;
      }
      Result<int64_t> st = h.value()->Wait(ctx.self);
      if (!st.ok() || st.value() != 0) {
        continue;
      }
      Result<std::vector<uint8_t>> dec = SlurpFile(ctx, decoded_path);
      if (!dec.ok()) {
        continue;
      }
      bytes = dec.take();
    }
    ++report.files_scanned;
    std::vector<std::string> found = ac.Scan(bytes.data(), bytes.size());
    for (const std::string& name : found) {
      report.infected.push_back(path + ": " + name);
    }
  }
  report.ok = true;
  std::string out = SerializeReport(report);
  ctx.fds->Write(ctx.self, result_fd, out.data(), out.size());
  return report.infected.empty() ? 0 : 1;
}

}  // namespace

void RegisterScannerPrograms(ProcessManager* procs) {
  procs->RegisterProgram("avscan", AvScanMain);
  procs->RegisterProgram("av-helper", AvHelperMain);
}

// ---- update daemon ---------------------------------------------------------------

void RegisterUpdateDaemon(ProcessManager* procs, const UpdateConfig* config) {
  const UpdateConfig* cfg = config;
  procs->RegisterProgram("av-update", [cfg](ProcessContext& ctx) -> int64_t {
    Kernel* k = ctx.kernel;
    // Reach the network. If the daemon owns i (import privilege granted by
    // the administrator at install time) its ⋆ already dominates the i2
    // data and no self-tainting is needed — that ownership is precisely
    // what lets it later write the untainted database file. A daemon
    // without the grant must taint itself i2 and will find the database
    // write blocked below.
    Label mine = k->sys_self_get_label(ctx.self).value();
    bool owns_i = mine.Owns(cfg->net->taint().i);
    if (!owns_i) {
      Label tainted = mine.Join(cfg->net->ClientTaint());
      if (k->sys_self_set_label(ctx.self, tainted) != Status::kOk) {
        return -1;
      }
    }
    Result<uint64_t> conn = cfg->net->Connect(ctx.self, cfg->server_mac, cfg->port);
    if (!conn.ok()) {
      return -2;
    }
    std::string db_text;
    char buf[2048];
    for (;;) {
      Result<uint64_t> n = cfg->net->Recv(ctx.self, conn.value(), buf, sizeof(buf), 5000);
      if (!n.ok() || n.value() == 0) {
        break;
      }
      db_text.append(buf, n.value());
    }
    cfg->net->CloseSocket(ctx.self, conn.value());
    if (db_text.empty()) {
      return -3;
    }
    // A daemon that had to taint itself is now stuck at i2 — taint never
    // comes off (§2) — and the untainted database write below will fail.
    // The i-owning daemon sails through.
    std::vector<Signature> sigs = ParseDb(db_text);
    if (sigs.empty()) {
      return -5;
    }
    // Rewrite the database file.
    Result<std::pair<ObjectId, std::string>> loc =
        ctx.fs.WalkParent(ctx.self, ctx.cwd, cfg->db_path);
    if (!loc.ok()) {
      return -6;
    }
    ctx.fs.Unlink(ctx.self, loc.value().first, loc.value().second);
    Result<ObjectId> file = ctx.fs.Create(ctx.self, loc.value().first, loc.value().second,
                                          Label(), kObjectOverheadBytes + db_text.size() +
                                                       kPageSize);
    if (!file.ok()) {
      return -7;
    }
    if (ctx.fs.WriteAt(ctx.self, loc.value().first, file.value(), db_text.data(), 0,
                       db_text.size()) != Status::kOk) {
      return -8;
    }
    return static_cast<int64_t>(sigs.size());
  });
}

void ServeDbOnce(NetDaemon* net, ObjectId self, uint16_t port, const std::string& db_text) {
  Result<uint64_t> ls = net->Listen(self, port);
  if (!ls.ok()) {
    return;
  }
  Result<uint64_t> conn = net->Accept(self, ls.value(), 10000);
  if (!conn.ok()) {
    return;
  }
  net->Send(self, conn.value(), db_text.data(), db_text.size());
  net->CloseSocket(self, conn.value());
}

}  // namespace histar
