/**
 * @file
 * Strict numeric parsing (common/env.hh): every CLI flag and
 * environment knob routes through parseU64/parseF64, so "reject
 * malformed instead of silently truncating" is pinned here once for
 * all of them. The old CLI paths turned "--threads 4x" into 4 via
 * bare strtoul; these tests are the regression fence.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/env.hh"
#include "tests/support/scoped_threads_env.hh"

namespace xed
{
namespace
{

TEST(ParseU64, AcceptsPlainBase10)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("42"), 42u);
    EXPECT_EQ(parseU64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64, RejectsJunkSignsAndOverflow)
{
    EXPECT_FALSE(parseU64(""));
    EXPECT_FALSE(parseU64("4x"));
    EXPECT_FALSE(parseU64("x4"));
    EXPECT_FALSE(parseU64("-1"));
    EXPECT_FALSE(parseU64("+1"));
    EXPECT_FALSE(parseU64(" 1"));
    EXPECT_FALSE(parseU64("1 "));
    EXPECT_FALSE(parseU64("1e3"));
    EXPECT_FALSE(parseU64("0x10"));
    EXPECT_FALSE(parseU64("18446744073709551616")); // UINT64_MAX + 1
}

TEST(ParseF64, AcceptsFiniteBase10)
{
    EXPECT_DOUBLE_EQ(*parseF64("0"), 0.0);
    EXPECT_DOUBLE_EQ(*parseF64("1.5"), 1.5);
    EXPECT_DOUBLE_EQ(*parseF64("-2.25"), -2.25);
    EXPECT_DOUBLE_EQ(*parseF64("+0.5"), 0.5);
    EXPECT_DOUBLE_EQ(*parseF64("1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(*parseF64("2.5E-1"), 0.25);
    EXPECT_DOUBLE_EQ(*parseF64(".5"), 0.5);
}

TEST(ParseF64, RejectsJunkWhitespaceAndNonFinite)
{
    EXPECT_FALSE(parseF64(""));
    EXPECT_FALSE(parseF64("1.5x"));
    EXPECT_FALSE(parseF64("x1.5"));
    EXPECT_FALSE(parseF64(" 1.5"));
    EXPECT_FALSE(parseF64("1.5 "));
    EXPECT_FALSE(parseF64("nan"));
    EXPECT_FALSE(parseF64("NaN"));
    EXPECT_FALSE(parseF64("inf"));
    EXPECT_FALSE(parseF64("-inf"));
    EXPECT_FALSE(parseF64("infinity"));
    EXPECT_FALSE(parseF64("0x1p3")); // hex floats are not CLI values
    EXPECT_FALSE(parseF64("1,5"));
    EXPECT_FALSE(parseF64("--1"));
    EXPECT_FALSE(parseF64("1e999")); // overflows to +inf
}

TEST(EnvU64, UnsetIsNulloptMalformedThrows)
{
    ::unsetenv("XED_TEST_ENV_U64");
    EXPECT_FALSE(envU64("XED_TEST_ENV_U64").has_value());

    ::setenv("XED_TEST_ENV_U64", "123", 1);
    EXPECT_EQ(envU64("XED_TEST_ENV_U64"), 123u);

    ::setenv("XED_TEST_ENV_U64", "12x", 1);
    EXPECT_THROW(envU64("XED_TEST_ENV_U64"), std::runtime_error);
    ::unsetenv("XED_TEST_ENV_U64");
}

unsigned
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

TEST(ResolveWorkerThreads, AutoFallsBackToEnvThenHardware)
{
    {
        const ScopedThreadsEnv env(nullptr);
        EXPECT_EQ(resolveWorkerThreads(0, 1000), hardwareThreads());
    }
    {
        const ScopedThreadsEnv env("3");
        EXPECT_EQ(resolveWorkerThreads(0, 1000), 3u);
    }
    {
        const ScopedThreadsEnv env("0"); // explicit "auto"
        EXPECT_EQ(resolveWorkerThreads(0, 1000), hardwareThreads());
    }
}

TEST(ResolveWorkerThreads, MalformedOrAbsurdEnvThrows)
{
    {
        const ScopedThreadsEnv env("12x");
        try {
            resolveWorkerThreads(0, 1000);
            ADD_FAILURE() << "12x was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("XED_MC_THREADS"),
                      std::string::npos);
        }
    }
    {
        const ScopedThreadsEnv env("4294967296"); // UINT_MAX + 1
        EXPECT_THROW(resolveWorkerThreads(0, 1000), std::runtime_error);
    }
}

TEST(ResolveWorkerThreads, RequestOverridesEnvAndTasksCap)
{
    const ScopedThreadsEnv env("3");
    EXPECT_EQ(resolveWorkerThreads(7, 1000), 7u);
    EXPECT_EQ(resolveWorkerThreads(7, 5), 5u);
    EXPECT_EQ(resolveWorkerThreads(0, 2), 2u);
    EXPECT_EQ(resolveWorkerThreads(7, 0), 1u); // no tasks: one worker
}

} // namespace
} // namespace xed
