// Fixture: the scoped forms — shard-mutex-outside-tablelock must stay
// quiet. Identifiers that merely contain "table_mu_" (another class's
// member) must not fire either.
#include "src/kernel/object_table.h"

namespace histar {

struct OtherTable {
  int label_table_mu_ = 0;
  int table_mu_count = 0;
};

void Good(ObjectTable& table, OtherTable& other) {
  TableLock lk(table, TableLock::Mode::kShared);
  ++other.label_table_mu_;  // not the object table's mutex
  ++other.table_mu_count;
}

}  // namespace histar
