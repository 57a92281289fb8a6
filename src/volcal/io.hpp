// volcal/io.hpp — instance persistence and export.
//
//   io/instance_io.hpp  load_instance: the one entry point for instance files
//   io/snapshot.hpp     versioned binary snapshots + mmap GraphView loader
//   io/dot.hpp          Graphviz rendering of the claimed structure
#pragma once

#include "io/dot.hpp"
#include "io/instance_io.hpp"
#include "io/snapshot.hpp"
