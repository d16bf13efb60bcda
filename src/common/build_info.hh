/**
 * @file
 * Build provenance baked in at configure time: git revision, compiler,
 * optimization flags, build type and instrumentation options. Stamped
 * into the telemetry run record and printed by `xed_campaign version`,
 * whose output benchmark/run.py copies into every result's provenance,
 * so a benchmark result (or a multi-hour campaign) is attributable to
 * the exact binary that produced it.
 *
 * The git hash is captured when cmake configures (not per build), so
 * it can lag uncommitted edits; the telemetry sidecar additionally
 * records a runtime `git describe` for the working tree.
 */

#ifndef XED_COMMON_BUILD_INFO_HH
#define XED_COMMON_BUILD_INFO_HH

#include "common/json.hh"

namespace xed
{

/** Configure-time `git describe --always --dirty`, or "unknown". */
const char *buildGitDescribe();
/** Compiler id + version, e.g. "GNU 12.2.0". */
const char *buildCompiler();
/** The CXX flags the tree was compiled with (base + build type). */
const char *buildFlags();
/** CMAKE_BUILD_TYPE, e.g. "RelWithDebInfo". */
const char *buildType();
/** XED_SANITIZE value ("" when unsanitized). */
const char *buildSanitizer();
/** True when XED_TRACE span instrumentation is compiled in. */
bool buildTraceCompiled();

/** All of the above as one JSON object ("build" in run records). */
json::Value buildInfoJson();

} // namespace xed

#endif // XED_COMMON_BUILD_INFO_HH
