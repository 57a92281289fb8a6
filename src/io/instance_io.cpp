#include "io/instance_io.hpp"

namespace volcal::io {

ErasedInstance load_instance(const std::string& path) {
  return load_snapshot_instance(Snapshot::load(path));
}

}  // namespace volcal::io
