/**
 * @file
 * Runtime SIMD dispatch for the batch kernels (Table II's detection
 * lanes, GF(2^8) constant-multiplier rows, the Monte-Carlo zero-fault
 * filter).
 *
 * The level is decided ONCE per process from the running CPU
 * (CPUID-derived feature bits on x86-64, the architectural AdvSIMD
 * guarantee on aarch64), not from compile-time flags: a portable
 * binary built without -DXED_NATIVE still runs the AVX2/AVX-512
 * kernels on a machine that has them, and a -march=native binary
 * copied to an older box falls back instead of faulting on the first
 * vector instruction. XED_SIMD=scalar|neon|avx2|avx512 overrides the
 * resolved level, strict-parsed: garbage or a level the host cannot
 * execute throws instead of silently running something else.
 *
 * Byte-identity contract: every kernel behind this dispatch returns
 * results identical to its scalar loop at every level -- goldens,
 * JSONL stores and RNG draw sequences do not depend on the choice
 * (DESIGN.md section 4i).
 */

#ifndef XED_COMMON_SIMD_HH
#define XED_COMMON_SIMD_HH

#include <optional>
#include <string>
#include <string_view>

namespace xed
{

/**
 * Dispatch levels, ordered by preference within an architecture.
 * Scalar is valid everywhere; Neon only on aarch64; Avx2/Avx512 only
 * on x86-64 (Avx512 means the F+BW+DQ+VL subset every server part
 * since Skylake-SP ships together).
 */
enum class SimdLevel : unsigned
{
    Scalar = 0,
    Neon = 1,
    Avx2 = 2,
    Avx512 = 3,
};

/** Lower-case level name: "scalar", "neon", "avx2", "avx512". */
const char *simdLevelName(SimdLevel level);

/** Strict inverse of simdLevelName(); nullopt for anything else. */
std::optional<SimdLevel> parseSimdLevel(std::string_view name);

/** Best level the running CPU can execute (probed once, cached). */
SimdLevel simdDetectedLevel();

/** True iff the running CPU can execute kernels of @p level. */
bool simdLevelSupported(SimdLevel level);

/**
 * The level the kernels dispatch on: XED_SIMD if set (strict parse; a
 * malformed value or a level simdLevelSupported() rejects throws
 * std::runtime_error), otherwise simdDetectedLevel(). Resolved on
 * first call and cached; one relaxed atomic load afterwards, cheap
 * enough to sit at the top of every batch kernel.
 */
SimdLevel simdLevel();

/**
 * Force the resolved level, e.g. for the per-level equivalence and
 * allocation tests. Throws std::runtime_error when the host cannot
 * execute @p level. Takes effect for every subsequent simdLevel()
 * call; not meant to race running kernels.
 *
 * @param origin provenance tag recorded by simdOverride(), e.g.
 *        "test"; the XED_SIMD resolution uses "XED_SIMD=...".
 */
void simdForceLevel(SimdLevel level, std::string_view origin);

/**
 * The override in effect ("XED_SIMD=avx2", or the origin passed to
 * simdForceLevel()), or empty when simdLevel() is the detected level.
 * Stamped into build provenance (buildInfoJson(), printed by
 * `xed_campaign version`) so a result says which kernels actually ran.
 */
std::string simdOverride();

} // namespace xed

#endif // XED_COMMON_SIMD_HH
