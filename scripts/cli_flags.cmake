# ctest helper for the `cli_flag_rejection` job: every numeric option
# of the xed_campaign CLI must strictly reject malformed values with a
# usage error (nonzero exit), never silently truncate them the way the
# old bare strtoul/strtod parsing did ("--threads 4x" used to run with
# 4 threads; "--threads x" with the hardware count). The removed
# `worker` and `merge` verbs and their flags, and the removed `fleet`
# and `trace` verbs, must fail the same way, naming what was refused.
# Invoked as
#   cmake -DCLI=... -DSPEC=... -P cli_flags.cmake

# flag|value pairs that must all be rejected. --dry-run would make the
# run a no-op, so a parse that wrongly succeeds cannot start a real
# campaign from the test.
set(rejected
    "--threads|4x"
    "--threads|x4"
    "--threads|-1"
    "--threads| 2"
    "--threads|1e3"
    "--threads|0x10"
    "--threads|4294967296"          # UINT_MAX + 1
    "--threads|99999999999999999999" # overflows uint64 too
    "--max-shards|abc"
    "--max-shards|1.5"
    "--max-shards|-3"
    "--progress-interval|nan"
    "--progress-interval|inf"
    "--progress-interval|1.5x"
    "--progress-interval|1,5"
    "--port|http"                    # status/serve flags parse strictly
    "--port|-1"
    "--port|65536"                   # one past the TCP range
    "--port|1e4"
    "--interval|never"
    "--interval|0"                   # positive refresh periods only
    "--interval|-2"
    "--format|yaml")

foreach(case IN LISTS rejected)
    string(REPLACE "|" ";" parts "${case}")
    list(GET parts 0 flag)
    list(GET parts 1 value)
    execute_process(
        COMMAND "${CLI}" run "${SPEC}" --dry-run "${flag}" "${value}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_VARIABLE stderr)
    if(rc EQUAL 0)
        message(FATAL_ERROR
            "${flag} ${value} was accepted; strict parsing is broken")
    endif()
    if(NOT stderr MATCHES "xed_campaign: ${flag}")
        message(FATAL_ERROR
            "${flag} ${value} died without naming the flag:\n${stderr}")
    endif()
endforeach()

# The verbs and flags of the removed shard queue, and the `fleet` and
# `trace` verbs (now `run`, and `run` under XED_TRACE=1), are errors
# that name them, not silently ignored options.
foreach(verb IN ITEMS worker merge fleet trace)
    execute_process(
        COMMAND "${CLI}" ${verb} "${SPEC}" --dry-run
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_VARIABLE stderr)
    if(rc EQUAL 0)
        message(FATAL_ERROR "the removed verb ${verb} was accepted")
    endif()
    if(NOT stderr MATCHES "xed_campaign: unknown command \"${verb}\"")
        message(FATAL_ERROR
            "${verb} died without naming the verb:\n${stderr}")
    endif()
endforeach()
foreach(flag IN ITEMS --queue-dir --worker-id --lease-seconds
                      --poll-interval --wait --timeout)
    execute_process(
        COMMAND "${CLI}" run "${SPEC}" --dry-run "${flag}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_VARIABLE stderr)
    if(rc EQUAL 0)
        message(FATAL_ERROR "the removed flag ${flag} was accepted")
    endif()
    if(NOT stderr MATCHES "xed_campaign: unknown option ${flag}")
        message(FATAL_ERROR
            "${flag} died without naming the flag:\n${stderr}")
    endif()
endforeach()

# Well-formed values must still parse (dry-run: no simulation).
execute_process(
    COMMAND "${CLI}" run "${SPEC}" --dry-run
        --threads 4 --max-shards 10 --progress-interval 0.5
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid numeric flags were rejected (rc=${rc})")
endif()
