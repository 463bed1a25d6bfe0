# CLI smoke test: run ptucker_cli end-to-end on a tiny synthetic tensor
# (--selftest) and assert exit code 0 plus parseable output (with the
# kernel build named in the header and on --help's last line), then run the
# same selftest through `solve` and assert the same final error line, with
# and without a --test-fraction hold-out (then also the same test RMSE),
# and a missing --load-model fails `solve`. Last, `replay` streams a
# gen-stream log through the ingest pipeline: the final model must be
# byte-identical at 1 and 3 threads, and a second run over the same
# --checkpoint-dir must resume from its checkpoint.
#
# Invoked by ctest as:
#   cmake -DPTUCKER_CLI=<path> -P cli_smoke.cmake

if(NOT PTUCKER_CLI)
  message(FATAL_ERROR "PTUCKER_CLI not set")
endif()

execute_process(
  COMMAND ${PTUCKER_CLI} --selftest --max-iters 5 --seed 42
  OUTPUT_VARIABLE smoke_out
  ERROR_VARIABLE smoke_err
  RESULT_VARIABLE smoke_rc
)

if(NOT smoke_rc EQUAL 0)
  message(FATAL_ERROR
    "ptucker_cli --selftest exited with ${smoke_rc}\n"
    "stdout:\n${smoke_out}\nstderr:\n${smoke_err}")
endif()

# The run must report a parseable final error line and the selftest gate.
if(NOT smoke_out MATCHES "final reconstruction error \\(Eq\\. 5\\): [0-9]+\\.[0-9]+")
  message(FATAL_ERROR "missing/unparseable final-error line in:\n${smoke_out}")
endif()
if(NOT smoke_out MATCHES "selftest OK")
  message(FATAL_ERROR "missing 'selftest OK' in:\n${smoke_out}")
endif()

# --help ends by naming the kernel build the dispatched kernels run, and
# the solve header names it too (util/cpu.h).
execute_process(
  COMMAND ${PTUCKER_CLI} --help
  OUTPUT_VARIABLE help_out
  RESULT_VARIABLE help_rc
)
if(NOT help_rc EQUAL 0 OR NOT help_out MATCHES "\nkernels: (avx2|generic)\n$")
  message(FATAL_ERROR
    "--help (exit ${help_rc}) does not end with 'kernels: avx2|generic':\n"
    "${help_out}")
endif()
if(NOT smoke_out MATCHES "\nkernels: (avx2|generic)\n")
  message(FATAL_ERROR "missing 'kernels:' line in the solve header:\n${smoke_out}")
endif()

# `solve` must print the same final error as `decompose` on the same flags
# and the same synthetic tensor: the distributed bit-identity contract
# (docs/distributed.md), checked end to end through the CLI.
execute_process(
  COMMAND ${PTUCKER_CLI} solve --selftest --workers 3 --max-iters 5 --seed 42
  OUTPUT_VARIABLE solve_out
  ERROR_VARIABLE solve_err
  RESULT_VARIABLE solve_rc
)
if(NOT solve_rc EQUAL 0)
  message(FATAL_ERROR
    "ptucker_cli solve --selftest exited with ${solve_rc}\n"
    "stdout:\n${solve_out}\nstderr:\n${solve_err}")
endif()
set(final_error_line "final reconstruction error \\(Eq\\. 5\\): [0-9]+\\.[0-9]+")
string(REGEX MATCH "${final_error_line}" decompose_final "${smoke_out}")
string(REGEX MATCH "${final_error_line}" solve_final "${solve_out}")
if(NOT solve_final STREQUAL decompose_final)
  message(FATAL_ERROR
    "solve and decompose disagree on the final error:\n"
    "decompose: '${decompose_final}'\nsolve: '${solve_final}'")
endif()

# Both subcommands share one front half: a hold-out split must reach
# `solve` too, so the two report the same final error and test RMSE.
set(split_flags --selftest --max-iters 5 --seed 42 --test-fraction 0.2)
execute_process(
  COMMAND ${PTUCKER_CLI} ${split_flags}
  OUTPUT_VARIABLE split_decompose_out
  ERROR_VARIABLE split_decompose_err
  RESULT_VARIABLE split_decompose_rc
)
execute_process(
  COMMAND ${PTUCKER_CLI} solve --workers 3 ${split_flags}
  OUTPUT_VARIABLE split_solve_out
  ERROR_VARIABLE split_solve_err
  RESULT_VARIABLE split_solve_rc
)
if(NOT split_decompose_rc EQUAL 0 OR NOT split_solve_rc EQUAL 0)
  message(FATAL_ERROR
    "--test-fraction runs exited with ${split_decompose_rc} (decompose) and "
    "${split_solve_rc} (solve)\n"
    "decompose stderr:\n${split_decompose_err}\n"
    "solve stderr:\n${split_solve_err}")
endif()
set(test_rmse_line "test RMSE on held-out entries: +[0-9]+\\.[0-9]+")
foreach(line_re IN ITEMS "${final_error_line}" "${test_rmse_line}")
  string(REGEX MATCH "${line_re}" decompose_line "${split_decompose_out}")
  string(REGEX MATCH "${line_re}" solve_line "${split_solve_out}")
  if(decompose_line STREQUAL "" OR NOT solve_line STREQUAL decompose_line)
    message(FATAL_ERROR
      "solve and decompose disagree under --test-fraction 0.2:\n"
      "decompose: '${decompose_line}'\nsolve: '${solve_line}'\n"
      "decompose stdout:\n${split_decompose_out}\n"
      "solve stdout:\n${split_solve_out}")
  endif()
endforeach()

# A warm start that cannot be read fails `solve` as it fails `decompose`.
execute_process(
  COMMAND ${PTUCKER_CLI} solve --selftest --workers 2
          --load-model ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_missing.ptks
  OUTPUT_VARIABLE missing_out
  ERROR_VARIABLE missing_err
  RESULT_VARIABLE missing_rc
)
if(missing_rc EQUAL 0)
  message(FATAL_ERROR
    "solve --load-model <missing file> exited 0:\n${missing_out}")
endif()

# `--variant cache` is the paper's name for `--delta-engine cache`, which
# `solve` runs like any other engine: the same final error as `decompose`.
set(cache_flags --selftest --variant cache --max-iters 5 --seed 42)
execute_process(
  COMMAND ${PTUCKER_CLI} ${cache_flags}
  OUTPUT_VARIABLE cache_decompose_out
  ERROR_VARIABLE cache_decompose_err
  RESULT_VARIABLE cache_decompose_rc
)
execute_process(
  COMMAND ${PTUCKER_CLI} solve --workers 2 ${cache_flags}
  OUTPUT_VARIABLE cache_solve_out
  ERROR_VARIABLE cache_solve_err
  RESULT_VARIABLE cache_solve_rc
)
if(NOT cache_decompose_rc EQUAL 0 OR NOT cache_solve_rc EQUAL 0)
  message(FATAL_ERROR
    "--variant cache runs exited with ${cache_decompose_rc} (decompose) and "
    "${cache_solve_rc} (solve)\n"
    "decompose stderr:\n${cache_decompose_err}\n"
    "solve stderr:\n${cache_solve_err}")
endif()
string(REGEX MATCH "${final_error_line}" cache_decompose_final
       "${cache_decompose_out}")
string(REGEX MATCH "${final_error_line}" cache_solve_final "${cache_solve_out}")
if(cache_decompose_final STREQUAL ""
   OR NOT cache_solve_final STREQUAL cache_decompose_final)
  message(FATAL_ERROR
    "solve and decompose disagree under --variant cache:\n"
    "decompose: '${cache_decompose_final}'\nsolve: '${cache_solve_final}'")
endif()

# gen-stream -> decompose -> replay. Each step must exit 0.
set(replay_dir ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_replay)
file(REMOVE_RECURSE ${replay_dir})
file(MAKE_DIRECTORY ${replay_dir})
function(run_cli label out_var)
  execute_process(
    COMMAND ${PTUCKER_CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${label} exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_cli("gen-stream" gen_out gen-stream
        --output-tensor ${replay_dir}/initial.tns
        --events ${replay_dir}/stream.log --num-events 256)
run_cli("decompose --save-model" fit_out
        --input ${replay_dir}/initial.tns --ranks 4,4,4,4 --max-iters 3
        --save-model ${replay_dir}/epoch.ptks)
set(replay_flags replay --input ${replay_dir}/initial.tns
    --load-model ${replay_dir}/epoch.ptks --events ${replay_dir}/stream.log)

# Flushes are deterministic: the replayed model may not depend on the
# thread count, byte for byte.
foreach(threads IN ITEMS 1 3)
  run_cli("replay --threads ${threads}" replay_out ${replay_flags}
          --threads ${threads}
          --save-model ${replay_dir}/replayed_${threads}.ptks)
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${replay_dir}/replayed_1.ptks ${replay_dir}/replayed_3.ptks
  RESULT_VARIABLE compare_rc
)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
    "replay --save-model differs between --threads 1 and --threads 3")
endif()

# A durable replay ends on a checkpoint; replaying into the same
# directory again picks it up instead of starting over.
run_cli("replay --checkpoint-dir (first run)" first_out ${replay_flags}
        --checkpoint-dir ${replay_dir}/ckpts)
run_cli("replay --checkpoint-dir (second run)" second_out ${replay_flags}
        --checkpoint-dir ${replay_dir}/ckpts)
if(NOT second_out MATCHES "resuming from checkpoint")
  message(FATAL_ERROR
    "second replay over the same --checkpoint-dir did not resume:\n"
    "${second_out}")
endif()

message(STATUS "cli_smoke passed")
