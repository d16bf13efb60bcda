/**
 * @file
 * Helpers of the per-level tests (DESIGN.md section 4i): the SIMD
 * levels this host can execute, and a scope that forces one of them
 * through the real dispatch.
 */

#ifndef XED_TESTS_SUPPORT_SIMD_LEVELS_HH
#define XED_TESTS_SUPPORT_SIMD_LEVELS_HH

#include <vector>

#include "common/simd.hh"

namespace xed
{

/** Every level this host can execute, Scalar first. */
inline std::vector<SimdLevel>
executableLevels()
{
    std::vector<SimdLevel> levels;
    for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Neon,
                                  SimdLevel::Avx2, SimdLevel::Avx512})
        if (simdLevelSupported(level))
            levels.push_back(level);
    return levels;
}

/** Force a dispatch level for one scope; restores the previous one. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : prev_(simdLevel())
    {
        simdForceLevel(level, "test");
    }
    ~ScopedSimdLevel() { simdForceLevel(prev_, "test"); }
    ScopedSimdLevel(const ScopedSimdLevel &) = delete;
    ScopedSimdLevel &operator=(const ScopedSimdLevel &) = delete;

  private:
    SimdLevel prev_;
};

} // namespace xed

#endif // XED_TESTS_SUPPORT_SIMD_LEVELS_HH
