# ctest helper for the golden-stdout jobs: run a bench binary under a
# pinned environment and require its stdout to be byte-identical to a
# committed golden file. This is the repo's bit-identicality contract
# for the Monte-Carlo sampling kernel and the performance simulator --
# any change to an RNG draw sequence or to a simulated cycle shows up
# as a diff here. Invoked as
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DENVVARS=<A=1;B=2> \
#         -P golden_stdout.cmake

separate_arguments(envList UNIX_COMMAND "${ENVVARS}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${envList} "${BENCH}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE got)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench failed (rc=${rc})")
endif()

file(READ "${GOLDEN}" want)
if(NOT got STREQUAL want)
    string(LENGTH "${got}" gotLen)
    string(LENGTH "${want}" wantLen)
    message(FATAL_ERROR
        "stdout differs from ${GOLDEN} "
        "(got ${gotLen} bytes, want ${wantLen}). The bench's output is "
        "pinned: an unexplained diff is a bug. See DESIGN.md section 4d "
        "(sampling kernel), 4b (stream scans) or 4l (perfsim) for which "
        "changes "
        "legitimately alter a golden and how to regenerate it.")
endif()
