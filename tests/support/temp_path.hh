/**
 * @file
 * Temp paths of the calling process's own under ::testing::TempDir():
 * two runs of a test binary at once (two build trees' ctest, a
 * sanitizer profile beside the default build) never share a file.
 */

#ifndef XED_TESTS_SUPPORT_TEMP_PATH_HH
#define XED_TESTS_SUPPORT_TEMP_PATH_HH

#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

namespace xed
{

/** ::testing::TempDir() + "<pid>_" + @p name. */
inline std::string
ownTempPath(const std::string &name)
{
    return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

} // namespace xed

#endif // XED_TESTS_SUPPORT_TEMP_PATH_HH
