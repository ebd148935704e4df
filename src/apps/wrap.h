// wrap: the 110-line isolation launcher (paper §1, §6.1, Figures 2 and 4).
//
// Invoked with the user's privileges (ownership of the file-read category
// br), wrap:
//   1. allocates a fresh taint category v — of which it is the sole owner;
//   2. creates a private /tmp writable at taint v3 and mounts it over /tmp
//      for the scanner (so helper scratch files stay inside the sandbox);
//   3. creates a v3-tainted result pipe and process area;
//   4. launches the scanner {br⋆, v3, 1}: able to read the user's files,
//      unable to convey a byte to anything untainted;
//   5. reads the verdict through its v ownership, optionally killing the
//      scanner after a deadline (bounding covert-channel bandwidth);
//   6. reports the untainted verdict to the terminal.
//
// So long as wrap is correct, a fully compromised scanner — 40k lines of
// ClamAV, or our clamav-mini pretending to be malicious — cannot leak the
// scanned files.
#ifndef SRC_APPS_WRAP_H_
#define SRC_APPS_WRAP_H_

#include <string>
#include <vector>

#include "src/apps/scanner.h"
#include "src/unixlib/unix.h"

namespace histar {

struct WrapOptions {
  // Categories granting read access to the files under scan (bob's br).
  std::vector<CategoryId> read_categories;
  // Path to the signature database (world-readable).
  std::string db_path = "/db/virus.db";
  // Abort the scan after this budget (covert-channel bound, §6.1).
  uint32_t timeout_ms = 10000;
  // If true, do not create any untainting gate for v: strongest isolation
  // (the paper's wrap makes the same choice).
  bool strong_isolation = true;
};

struct WrapResult {
  bool completed = false;    // scanner finished within the budget
  bool killed = false;       // deadline revocation fired
  ScanReport report;         // valid when completed
  CategoryId v = kInvalidCategory;  // the taint category used (for tests)
};

// Runs one isolated scan of `paths` (absolute file paths). The calling
// thread must own every category in opts.read_categories; it gains nothing
// afterwards (wrap sheds v from its label and clearance with the scan, on
// every path out).
Result<WrapResult> WrapScan(ProcessContext& ctx, const std::vector<std::string>& paths,
                            const WrapOptions& opts);

}  // namespace histar

#endif  // SRC_APPS_WRAP_H_
