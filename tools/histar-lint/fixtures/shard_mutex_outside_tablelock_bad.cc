// Fixture: reaching past the TableLock abstraction — must trip
// shard-mutex-outside-tablelock.
#include "src/kernel/object_table.h"

namespace histar {

void Bad(ObjectTable& table) {
  // BAD: manual capability acquisition bypasses the scoped lock.
  table.cap().Acquire();
  table.cap().Release();
}

// BAD: naming the table's mutex outside object_table.h (the fixture is
// only lexed, never compiled, so the private access is not an error here).
void AlsoBad(ObjectTable& table) { table.table_mu_.Lock(); }

}  // namespace histar
