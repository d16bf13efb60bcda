#include "common/build_info.hh"

#include "common/simd.hh"

// The XED_BUILD_* macros are injected by src/common/CMakeLists.txt for
// this translation unit only; fall back loudly when built elsewhere.
#ifndef XED_BUILD_GIT
#define XED_BUILD_GIT "unknown"
#endif
#ifndef XED_BUILD_COMPILER
#define XED_BUILD_COMPILER "unknown"
#endif
#ifndef XED_BUILD_FLAGS
#define XED_BUILD_FLAGS ""
#endif
#ifndef XED_BUILD_TYPE
#define XED_BUILD_TYPE ""
#endif
#ifndef XED_BUILD_SANITIZE
#define XED_BUILD_SANITIZE ""
#endif
#ifndef XED_TRACE
#define XED_TRACE 1
#endif

namespace xed
{

const char *
buildGitDescribe()
{
    return XED_BUILD_GIT;
}

const char *
buildCompiler()
{
    return XED_BUILD_COMPILER;
}

const char *
buildFlags()
{
    return XED_BUILD_FLAGS;
}

const char *
buildType()
{
    return XED_BUILD_TYPE;
}

const char *
buildSanitizer()
{
    return XED_BUILD_SANITIZE;
}

bool
buildTraceCompiled()
{
    return XED_TRACE != 0;
}

json::Value
buildInfoJson()
{
    auto info = json::Value::object();
    info.set("git", buildGitDescribe());
    info.set("compiler", buildCompiler());
    info.set("flags", buildFlags());
    info.set("buildType", buildType());
    info.set("sanitizer", buildSanitizer());
    info.set("traceCompiled", buildTraceCompiled());
    // Unlike the configure-time fields above, the SIMD block is
    // resolved at RUN time: which kernels executed (level), what the
    // host could have run (detected), and the override that forced a
    // difference, null when none. Two otherwise-identical results from
    // different machines stay distinguishable.
    auto simd = json::Value::object();
    simd.set("level", simdLevelName(simdLevel()));
    simd.set("detected", simdLevelName(simdDetectedLevel()));
    const std::string ovr = simdOverride();
    simd.set("override",
             ovr.empty() ? json::Value(nullptr) : json::Value(ovr));
    info.set("simd", std::move(simd));
    return info;
}

} // namespace xed
