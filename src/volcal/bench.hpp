// volcal/bench.hpp — the public measurement surface.
//
// One include for the library-resident measurement stack: execution
// observability (traced sweeps, SweepMetrics, Chrome-trace export), perf
// artifacts with schema-versioned JSON plus the baseline differ, and the
// growth-fitting statistics the benches report.  The bench/ directory's CLI
// harness builds on these but is tool plumbing, not library API.  New code
// should include this umbrella instead of the individual obs/ and perf/
// headers (see DESIGN.md "API surface and deprecations").
#pragma once

#include "obs/metrics.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "perf/artifact.hpp"
#include "perf/diff.hpp"
#include "perf/probe.hpp"
#include "stats/growth.hpp"
#include "stats/table.hpp"
