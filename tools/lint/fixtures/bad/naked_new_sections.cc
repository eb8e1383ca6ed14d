// Fixture: MUST trip naked-new-sections (and only that rule).
// Hand-rolls the frozen snapshot container framing instead of going
// through PagedSnapshotWriter::AddSection, forking the byte format.
#include "util/serialize.h"

namespace tabbin {

void BadHandRolledSnapshot(BinaryWriter* w) {
  w->WriteU32(0x4E534254);  // re-derived container magic
  w->WriteU64(1);
  w->WriteString("my.section");
}

}  // namespace tabbin
