#pragma once
// Umbrella header for sacpp_check: static and runtime verification of the
// array subsystem (docs/static_analysis.md).
//
//   diagnostics.hpp     structured Diagnostic + DiagnosticEngine reporter
//   partitions.hpp      generator-partition verifier
//   runtime_check.hpp   alias/uniqueness checker, race detector, Session
//   fuzz.hpp            backend row and nested-gather fuzzer
//   session.hpp         session-typed channels: spec IR, TypedChannel,
//                       runtime conformance monitor
//   lockorder.hpp       lock-acquisition-order cycle analysis
//   schedule.hpp        PCT-style schedule-exploring checker
//
// Checked mode is off by default; enable per-run with SACPP_CHECK=1 (or the
// MG driver's --check flag / --check=<pass> selector), or programmatically
// with check::Session / check::LockOrderSession.

#include "sacpp/check/diagnostics.hpp"
#include "sacpp/check/fuzz.hpp"
#include "sacpp/check/lockorder.hpp"
#include "sacpp/check/partitions.hpp"
#include "sacpp/check/runtime_check.hpp"
#include "sacpp/check/schedule.hpp"
#include "sacpp/check/session.hpp"
