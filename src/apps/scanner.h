// clamav-mini: the untrusted virus scanner of §6.1.
//
// The real evaluation ported ClamAV (40k+ lines). What the experiment needs
// from it is an *untrusted scanner* that (a) reads user files, (b) consults
// a signature database kept fresh by a separate update daemon, (c) spawns
// helper programs to decode input formats, and (d) would love to talk to
// the network. clamav-mini provides exactly that: an Aho–Corasick
// multi-pattern matcher over a serialized signature database, a rot13
// "decoder" helper it spawns for encoded files, and an update daemon that
// fetches databases over netd.
#ifndef SRC_APPS_SCANNER_H_
#define SRC_APPS_SCANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/netd.h"
#include "src/unixlib/unix.h"

namespace histar {

// One virus signature: a name and the byte pattern that identifies it.
struct Signature {
  std::string name;
  std::vector<uint8_t> pattern;
};

// Aho–Corasick automaton for simultaneous multi-pattern search.
class AhoCorasick {
 public:
  explicit AhoCorasick(const std::vector<Signature>& sigs);

  // Returns the names of all signatures found in `data` (deduplicated).
  std::vector<std::string> Scan(const uint8_t* data, size_t len) const;

  size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    std::map<uint8_t, int> next;
    int fail = 0;
    std::vector<int> outputs;  // signature indices ending here
  };
  std::vector<Node> nodes_;
  std::vector<std::string> names_;
};

// Database (de)serialization: "name:hexpattern\n" lines, like ClamAV's .ndb.
std::string SerializeDb(const std::vector<Signature>& sigs);
std::vector<Signature> ParseDb(const std::string& text);

// Scan report written by the scanner over its result pipe.
struct ScanReport {
  uint64_t files_scanned = 0;
  std::vector<std::string> infected;  // "filename: SIGNAME"
  bool ok = false;
};
std::string SerializeReport(const ScanReport& r);
ScanReport ParseReport(const std::string& text);

// Registers the scanner-side programs with the process manager:
//   "avscan"    args: [avscan, db_path, result_fd, file paths…]
//               scans each file; files starting with "R13:" are first
//               decoded by spawning the helper; writes a report to
//               result_fd and exits 0 (1 if anything was infected).
//   "av-helper" args: [av-helper, src_path, dst_path] — rot13-decodes.
void RegisterScannerPrograms(ProcessManager* procs);

// The update daemon: taints itself i2, fetches a fresh database from
// `server_mac:port` over `net`, untaints it (it owns i — the administrator
// granted import privilege at install time) and rewrites `db_path`.
// Registered as program "av-update"; returns the number of signatures
// installed, or negative on failure.
struct UpdateConfig {
  NetDaemon* net = nullptr;
  MacAddr server_mac{};
  uint16_t port = 0;
  std::string db_path;
};
void RegisterUpdateDaemon(ProcessManager* procs, const UpdateConfig* config);

// Serves one database download on `net` (the "mirror"): listens, accepts a
// single connection, sends the serialized db, closes. Run on an i2 client
// thread; returns when served or timed out.
void ServeDbOnce(NetDaemon* net, ObjectId self, uint16_t port, const std::string& db_text);

}  // namespace histar

#endif  // SRC_APPS_SCANNER_H_
