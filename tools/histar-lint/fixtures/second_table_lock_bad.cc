// Fixture: nested table-capability acquisition — must trip second-table-lock.
#include "src/kernel/object_table.h"

namespace histar {

void Bad(ObjectTable& table) {
  TableLock outer(table, TableLock::Mode::kShared);
  {
    // BAD: a second acquisition while `outer` is live — self-deadlock.
    TableLock inner(table, TableLock::Mode::kExclusive);
  }
}

void AlsoBad(ObjectTable& table) {
  TableLock lk(table, TableLock::Mode::kShared);
  PublishedReadTableCap cap_scope(table);  // BAD: overlaps the scoped lock
}

}  // namespace histar
