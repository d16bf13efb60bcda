/**
 * @file
 * Run one command and report its own resource usage:
 *
 *   rusage_exec <report-file> <program> [args...]
 *
 * Forks, execs the program with the inherited stdin/stdout/stderr and
 * environment, waits for it with wait4(2) and writes one line to
 * <report-file>:
 *
 *   <wall_ns> <maxrss_kb> <utime_us> <stime_us>
 *
 * then exits with the program's status (128 + signal if it was killed).
 *
 * Why not wait4 from the benchmark's Python process directly: Linux
 * folds the forking process's resident set into a child's ru_maxrss at
 * exec, so every child of the Python runner reports at least the
 * interpreter's own ~14 MB. Forking from this small process keeps that
 * floor near 1 MB, so the peak-RSS metric measures the program.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

long long
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

long long
micros(const timeval &tv)
{
    return static_cast<long long>(tv.tv_sec) * 1000000LL + tv.tv_usec;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: rusage_exec <report-file> <program> "
                     "[args...]\n");
        return 2;
    }
    const long long start = nowNs();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("rusage_exec: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::fprintf(stderr, "rusage_exec: exec %s: %s\n", argv[2],
                     std::strerror(errno));
        _exit(127);
    }

    int status = 0;
    rusage usage{};
    pid_t waited;
    do {
        waited = wait4(pid, &status, 0, &usage);
    } while (waited < 0 && errno == EINTR);
    const long long wallNs = nowNs() - start;
    if (waited < 0) {
        std::perror("rusage_exec: wait4");
        return 2;
    }

    std::FILE *report = std::fopen(argv[1], "w");
    if (!report ||
        std::fprintf(report, "%lld %ld %lld %lld\n", wallNs,
                     usage.ru_maxrss, micros(usage.ru_utime),
                     micros(usage.ru_stime)) < 0 ||
        std::fclose(report) != 0) {
        std::perror("rusage_exec: report");
        return 2;
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}
