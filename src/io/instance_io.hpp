// One-call instance loading: the single place an instance file enters the
// program.
//
// The on-disk form of an instance is the versioned binary snapshot
// (io/snapshot.hpp).  load_instance() maps and validates it, then rehydrates
// the recorded family's solver/verifier wiring via lcl/registry's
// load_snapshot_instance, so callers get a ready-to-execute ErasedInstance.
// Writers call ErasedInstance::save_snapshot.
#pragma once

#include <string>

#include "io/snapshot.hpp"
#include "lcl/registry.hpp"

namespace volcal::io {

// Loads the snapshot at `path` into an executable ErasedInstance of its
// recorded family.  The CSR graph and ID table stay zero-copy views into the
// mapping (the instance keeps it alive).  Throws SnapshotError when the file
// is missing, unreadable or not a valid snapshot.
ErasedInstance load_instance(const std::string& path);

}  // namespace volcal::io
