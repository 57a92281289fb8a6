// volcal/volcal.hpp — everything: the full public API in one include.
//
//   volcal/runtime.hpp   graphs, executions, sweep engine, answer memo
//   volcal/problems.hpp  LCL formalization, instance generators, registry
//   volcal/io.hpp        instance persistence: snapshots, load_instance, DOT
//   volcal/bench.hpp     observability, perf artifacts, growth fitting
//
// Include the narrower umbrella when the translation unit only needs one
// layer; include this when exploring or writing examples.
#pragma once

#include "volcal/bench.hpp"
#include "volcal/io.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"
