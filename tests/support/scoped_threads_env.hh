/**
 * @file
 * Sets XED_MC_THREADS for one scope, then restores the old value. The
 * worker-thread count of every pool in the repo (the Monte-Carlo
 * engine and the ordered pool's callers: the campaign runner, the
 * loaders, the perfsim run matrix and the stream scans) is resolved
 * from this variable by resolveWorkerThreads (common/env.hh), so tests
 * pick a thread count the same way the benches do.
 */

#ifndef XED_TESTS_SUPPORT_SCOPED_THREADS_ENV_HH
#define XED_TESTS_SUPPORT_SCOPED_THREADS_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>

namespace xed
{

class ScopedThreadsEnv
{
  public:
    /** @p value nullptr unsets the variable for the scope. */
    explicit ScopedThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedThreadsEnv()
    {
        if (saved_)
            ::setenv(name, saved_->c_str(), 1);
        else
            ::unsetenv(name);
    }
    ScopedThreadsEnv(const ScopedThreadsEnv &) = delete;
    ScopedThreadsEnv &operator=(const ScopedThreadsEnv &) = delete;

  private:
    static constexpr const char *name = "XED_MC_THREADS";
    std::optional<std::string> saved_;
};

} // namespace xed

#endif // XED_TESTS_SUPPORT_SCOPED_THREADS_ENV_HH
