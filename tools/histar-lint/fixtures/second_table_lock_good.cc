// Fixture: sequential (non-overlapping) acquisitions — second-table-lock
// must stay quiet. A "TableLock inner(...)" in a comment is also fine.
#include "src/kernel/object_table.h"

namespace histar {

void Good(ObjectTable& table) {
  {
    TableLock lk(table, TableLock::Mode::kShared);
  }
  {
    // Retake in another mode: legal, the first scope has closed.
    TableLock lk(table, TableLock::Mode::kExclusive);
  }
  const char* s = "TableLock fake(table, x); TableLock fake2(table, y);";
  (void)s;
}

}  // namespace histar
