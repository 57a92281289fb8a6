// volcal/serve.hpp — the online query-service surface.
//
// One include for everything the serving regime needs: the wire protocol
// (length-prefixed frames + stream decoder), the concurrent QueryService
// (admission control, waves answered through the per-node answer memo, hot
// snapshot swap, live mutation apply), the per-request tracer / slow-query
// log, the Unix-socket transport used by tools/volcal_serve, and the
// ServeClient tools/volcal_load and tools/volcal_top talk through.  The
// fine-grained serve/... headers remain valid includes but are internal
// layout (see DESIGN.md "API surface").
#pragma once

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/query_service.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
