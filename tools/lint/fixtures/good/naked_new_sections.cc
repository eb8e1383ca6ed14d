// Fixture: near-miss for naked-new-sections — MUST pass.
// Sections are created through the sanctioned PagedSnapshotWriter API;
// no container magic appears outside store/paged_snapshot.*.
#include "store/paged_snapshot.h"

namespace tabbin {

void GoodSectionViaWriter(PagedSnapshotWriter* snapshot) {
  BinaryWriter* section = snapshot->AddSection("my.section");
  section->WriteU64(1);
  section->WriteString("payload");
}

}  // namespace tabbin
